"""fisherlab benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload {qsweep,simulate,audit-stream,all} \\
        --seed N --seconds S --trace {0,1}

One client in one process calls ``fisherlab.cli.main(argv)`` in-process,
each op starting when the previous one returns, cycling through a pool
of inputs made from ``--seed`` in whole passes, after one untimed
warm-up op. Set-up time and peak memory come from probes: fresh
processes, spread over the run and left out of its time, that import
fisherlab and run op 0 (the first of them runs the whole pool). Every
output of the first pass is checked against oracles that do not use
fisherlab; every other run of an op, the probes' included, must
reproduce it byte for byte. BLAS is pinned to one thread and
``FISHERLAB_THREADS`` is unset.

Timings are scaled to a nominal host speed, measured all through the
run by a fixed reference computation (see hostspeed.py); the raw
figures are printed beside them.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half with every public fisherlab function wrapped
in a span, and reports per-layer calls and self time per op (raw) plus
the tracing overhead. A table of every metric goes to stdout, then one JSON
line with the metrics listed in BENCHMARK.json. The full record of each
run, and the spans of each workload's latest traced run, go to
``.bench_out/``.
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    # BLAS reads its thread count when NumPy loads, so pin it before
    # anything imports NumPy; set-up probes inherit the environment.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FISHERLAB_THREADS", None)
    import harness

    return harness.main(sys.argv[1:], __doc__)


if __name__ == "__main__":
    sys.exit(main())
