"""Measurement and reporting for bench/run.py; see its docstring for usage.

Import only after the BLAS thread pin is set: this module loads NumPy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
from cliop import digest, run_op
from tracing import LAYERS, SPAN_NAMES, Tracer
from workloads import WORKLOADS, Output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

PROBE_TIMEOUT_S = 120
# Never used while the benchmark was tuned; a speed claim should also
# hold on it.
HELD_OUT_SEED = 7919

END_TO_END = ("setup_s", "items_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb", "items_ok_frac")
# Self times only of what every workload calls: a function a workload
# never reaches would report a time of exactly zero on every run.
TIMED_FUNCTIONS = (
    "numerics.require_hermitian",
    "numerics.hermitian_eig",
    "state_family.StateFamily",
    "state_family.evaluate",
    "state_family.derivative",
    "metrology.qfi",
    "metrology.sld",
    "measurement.Povm",
    "measurement.outcome_distribution",
    "measurement.classical_fisher",
    "cli.load_config",
    "cli.build_family",
    "cli.main",
)
TIMED_LAYERS = ("numerics", "state_family", "metrology", "measurement", "cli")


def per_layer_names() -> list:
    """Names of the per-layer metrics in the JSON line, in order."""
    return (
        [f"{name}.calls" for name in SPAN_NAMES]
        + [f"{name}.self_ms" for name in TIMED_FUNCTIONS]
        + [f"{layer}.self_ms" for layer in TIMED_LAYERS]
        + [
            "state_family.evaluate.calls_per_trial",
            "metrology.seminorm_bound.calls_per_family",
            "trace.items_per_s_ratio",
            "failed_frac",
            "wrong_verdict_frac",
            "fisher_abs_err_max",
        ]
    )


def _provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "fisherlab_threads": os.environ.get("FISHERLAB_THREADS", "unset"),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "fisherlab").glob("*.py")),
        "load": "closed loop, 1 client, 1 thread, in-process fisherlab.cli.main",
    }


class Tally:
    """Ops and items attempted, failed and wrongly answered."""

    def __init__(self):
        self.ops = self.failed_ops = 0
        self.items = self.failed_items = self.wrong_items = 0

    def add(self, items: int, failed: bool, wrong: int) -> None:
        self.ops += 1
        self.items += items
        if failed:
            self.failed_ops += 1
            self.failed_items += items
        else:
            self.wrong_items += wrong


@dataclass
class Measured:
    """What one measuring stretch saw; its times are raw seconds."""

    op_seconds: list
    items: int
    wall: float
    probes: list
    reference_seconds: list

    @property
    def slowdown(self) -> float:
        """Mean time of the host-speed reference over its nominal time."""
        return statistics.fmean(self.reference_seconds) / hostspeed.NOMINAL_S

    @property
    def items_per_s(self) -> float:
        """Items per second, scaled to the nominal host speed."""
        return self.items / self.wall * self.slowdown


class Runner:
    """One workload's pool, written to disk, and every op run on it.

    The first full pass in-process is the reference: its outputs are
    checked against the oracles, and every other run of an op, set-up
    probes included, must reproduce its digest byte for byte.
    """

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.pool = workload.make_pool(seed)
        self.argvs, self.outs = [], []
        for k, op in enumerate(self.pool):
            argv = [op.command]
            if op.config is not None:
                path = workdir / f"op{k}.json"
                path.write_text(op.config)
                argv += ["--config", str(path)]
            out = str(workdir / f"op{k}.out") if op.writes_out else None
            if out is not None:
                argv += ["--out", out]
            self.argvs.append(argv)
            self.outs.append(out)
        self.reference = []  # (digest, Output) of the first pass, by op
        self.seen = []  # (op index, digest) of every op run

    def run(self, k: int, reference: bool = False) -> float:
        code, stdout, out_bytes, seconds = run_op(self.cli.main, self.argvs[k], self.outs[k])
        dig = digest(code, stdout, out_bytes)
        if reference:
            self.reference.append((dig, Output(code, stdout, out_bytes, self.outs[k])))
        self.seen.append((k, dig))
        return seconds

    def probe(self, ops) -> dict:
        """Run ops ``ops`` in a fresh process; see cliop.py for its report.

        A probe that dies reports its wall time, no memory figure, and no
        digests, so its ops count as failed.
        """
        argv = [sys.executable, str(BENCH_DIR / "cliop.py"), str(SRC)]
        argv.append(json.dumps([[self.argvs[k], self.outs[k]] for k in ops]))
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
            digests = report["digests"]
        except (IndexError, KeyError, ValueError):
            report = {"seconds": time.perf_counter() - start, "peak_rss_mb": math.inf}
            digests = [None] * len(ops)
        self.seen.extend(zip(ops, digests))
        return report

    def measure(self, seconds: float, tracer=None, probes: int = 0) -> Measured:
        """Whole passes until ``seconds`` of ops have elapsed.

        The host-speed reference is timed at the start and then between
        ops, once per ``hostspeed.EVERY_S`` of op time. ``probes`` set-up
        probes run ``import fisherlab`` plus op 0 in fresh processes,
        between passes and evenly spread over the run. Neither counts in
        ``wall``. The first probe also runs the rest of the pass, for the
        memory figure of a process that does nothing but the workload.
        """
        if not self.reference:
            self.run(0)  # untimed: the first call finishes lazy set-up
        done = Measured([], 0, 0.0, [], [hostspeed.reference_seconds()])
        start = time.perf_counter()
        paused = since_reference = 0.0
        while True:
            done.wall = time.perf_counter() - start - paused
            while len(done.probes) < probes and len(done.probes) * seconds <= min(done.wall, seconds) * probes:
                begin = time.perf_counter()
                done.probes.append(self.probe(range(len(self.pool)) if not done.probes else [0]))
                paused += time.perf_counter() - begin
            if done.wall >= seconds:
                return done
            for k in range(len(self.pool)):
                if tracer is not None:
                    tracer.op += 1
                op_s = self.run(k, reference=len(self.reference) == k)
                done.op_seconds.append(op_s)
                done.items += self.pool[k].items
                since_reference += op_s
                if since_reference >= hostspeed.EVERY_S:
                    done.reference_seconds.append(hostspeed.reference_seconds())
                    paused += done.reference_seconds[-1]
                    since_reference = 0.0

    def settle(self):
        """Check the reference pass and count every op run: ``(Tally, checks)``."""
        checks = self.workload.check_pass(self.pool, [out for _, out in self.reference])
        tally = Tally()
        for k, dig in self.seen:
            failed = checks[k].failed is not None or dig != self.reference[k][0]
            tally.add(self.pool[k].items, failed, checks[k].wrong)
        return tally, checks


def _accuracy(tally: Tally, checks) -> dict:
    errors = [c.fisher_err for c in checks if c.failed is None]
    return {
        "failed_frac": (tally.failed_ops / tally.ops, "1"),
        "wrong_verdict_frac": (tally.wrong_items / tally.items, "1"),
        "fisher_abs_err_max": (max(errors) if errors else math.inf, "1"),
    }


def run_end_to_end(runner: Runner, seconds: float) -> tuple:
    done = runner.measure(seconds, probes=runner.workload.setup_probes)
    op_ms = np.array(done.op_seconds) * 1e3
    tail = float(np.percentile(op_ms, runner.workload.tail_pct))
    setup_s = statistics.median(p["seconds"] for p in done.probes)
    tally, checks = runner.settle()
    slowdown = done.slowdown
    metrics = {
        "setup_s": (setup_s / slowdown, "s"),
        "items_per_s": (done.items_per_s, "1/s"),
        "op_ms_p50": (float(np.median(op_ms)) / slowdown, "ms"),
        "op_ms_tail": (tail / slowdown, "ms"),
        "peak_rss_mb": (done.probes[0]["peak_rss_mb"], "MB"),
        "items_ok_frac": ((tally.items - tally.failed_items - tally.wrong_items) / tally.items, "1"),
    }
    metrics.update(_accuracy(tally, checks))
    metrics["host.slowdown"] = (slowdown, "1")
    notes = {
        "host.slowdown": (
            f"reference mean {statistics.fmean(done.reference_seconds) * 1e3:.4g} ms over "
            f"{len(done.reference_seconds)} timings, nominal {hostspeed.NOMINAL_S * 1e3:g} ms; "
            "timings above are divided by it, rates multiplied"
        ),
        "op_ms_tail": f"p{runner.workload.tail_pct:g}, {int(np.sum(op_ms > tail))} of {op_ms.size} ops beyond, raw {tail:.6g} ms",
        "op_ms_p50": f"raw {np.median(op_ms):.6g} ms",
        "setup_s": f"median of {len(done.probes)} fresh processes spread over the run, raw {setup_s:.6g} s",
        "peak_rss_mb": "peak of a fresh process that imports fisherlab and runs one pass",
        "items_per_s": f"{done.items} {runner.workload.items_label} in {done.wall:.2f} s, raw {done.items / done.wall:.6g}/s",
    }
    return metrics, notes, tally


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple:
    untraced = runner.measure(seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.measure(seconds / 2.0, tracer)
    finally:
        tracer.remove()
    tracer.write(spans_path)
    calls, self_s = tracer.summary()
    ops = len(traced.op_seconds)
    by_name = dict(zip(SPAN_NAMES, zip(calls / ops, self_s * 1e3 / ops)))
    metrics = {}
    for name, (per_op, _) in by_name.items():
        metrics[f"{name}.calls"] = (float(per_op), "count")
    for name, (_, ms) in by_name.items():
        metrics[f"{name}.self_ms"] = (float(ms), "ms")
    for layer, names in LAYERS.items():
        metrics[f"{layer}.self_ms"] = (sum(by_name[f"{layer}.{n}"][1] for n in names), "ms")

    def ratio(num: str, den: str) -> float:
        return float(by_name[num][0] / by_name[den][0]) if by_name[den][0] else 0.0

    metrics["state_family.evaluate.calls_per_trial"] = (
        ratio("state_family.evaluate", "estimation.mle_estimate"),
        "count",
    )
    metrics["metrology.seminorm_bound.calls_per_family"] = (
        ratio("metrology.seminorm_bound", "state_family.StateFamily"),
        "count",
    )
    metrics["trace.items_per_s_ratio"] = (traced.items_per_s / untraced.items_per_s, "1")
    tally, checks = runner.settle()
    metrics.update(_accuracy(tally, checks))
    notes = {
        "trace.items_per_s_ratio": (
            f"traced {traced.items_per_s:.6g} vs untraced {untraced.items_per_s:.6g} per s, "
            "both scaled to the nominal host speed"
        ),
        "spans": f"{len(tracer.start)} spans over {ops} ops in {spans_path.relative_to(ROOT)}",
    }
    return metrics, notes, tally


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool):
    workdir = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, WORKLOADS[name], seed, workdir)
        if trace:
            return run_traced(runner, seconds, OUT_DIR / f"spans-{name}.npz")
        return run_end_to_end(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_table(name: str, metrics: dict, notes: dict) -> None:
    print(f"== {name}")
    for metric, (value, unit) in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<48} {value:>14.6g} {unit}{note}")
    for key in notes.keys() - metrics.keys():
        print(f"  {key}: {notes[key]}")


def _parse_args(argv, usage: str):
    parser = argparse.ArgumentParser(
        description=usage, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv, usage: str) -> int:
    args = _parse_args(argv, usage)
    if not (SRC / "fisherlab" / "__init__.py").is_file():
        print(f"error: no fisherlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fisherlab.cli

    if Path(fisherlab.__file__).resolve().parent != SRC / "fisherlab":
        print(f"error: imported fisherlab from {fisherlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    provenance = _provenance(args.seed)
    print("provenance " + json.dumps(provenance))
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    wanted = per_layer_names() if args.trace else END_TO_END
    attempted = failed = 0
    reported = {}
    for name in names:
        metrics, notes, tally = run_workload(fisherlab.cli, name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, metrics, notes)
        record = {"workload": name, "trace": args.trace, "provenance": provenance, "notes": notes}
        record["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
        result_path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(record, indent=1) + "\n")
        attempted += tally.ops
        failed += tally.failed_ops
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in wanted:
            value, unit = metrics[metric]
            reported[prefix + metric] = {"value": value, "unit": unit}
    if not all(math.isfinite(m["value"]) for m in reported.values()):
        print("error: some metrics are undefined: no op passed its checks, or a probe died", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0

