"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 bench/prove.py [--workloads qsweep,simulate,audit-stream]
        [--seeds 1-10] [--trace 0] [--out bench/baseline.json]

Runs are sequential, one process at a time. For every metric of the
JSON line it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median; end-to-end metrics whose spread exceeds a third of their
bound in BENCHMARK.json are flagged. ``--out`` saves the table with the
provenance of the first run, as a baseline for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    provenance = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the table as JSON to this path")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, provenance, steady = {}, None, True
    for workload in args.workloads.split(","):
        values, incorrect = {}, 0
        for seed in _seeds(args.seeds):
            result, prov = run_once(workload, seed, spec["run_seconds"], args.trace)
            provenance = provenance or prov
            incorrect += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {name: spread(vals) for name, vals in values.items()}
        table[workload] = {"incorrect_runs": incorrect, "metrics": rows}
        print(f"== {workload} ({incorrect} runs not correct)")
        for name, row in rows.items():
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                row["bound"] = bound
                if row["spread"] > bound / 3.0:
                    flag, steady = "  > bound/3", False
            print(
                f"  {name:<48} median {row['median']:<12.6g} "
                f"spread {row['spread']:.4f}  bound {bound}{flag}"
            )
    if args.out:
        record = {"seeds": args.seeds, "seconds": spec["run_seconds"], "trace": args.trace}
        record.update(provenance=provenance, workloads=table)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
