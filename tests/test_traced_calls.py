"""Traced call counts of benchmark operations, run through ``cli.main``.

The benchmark's tracer (bench/tracing.py) wraps 26 named functions and
classes by swapping module attributes, and reports their call counts per
layer. A traced function held in a dict, a default argument or an
import-time closure escapes the swap and its count drops; a renamed or
removed one makes ``install`` fail. This pins the counts of op 0 of the
qsweep and simulate pools and the first nine audit-stream ops (seed 11).
"""

import contextlib
import functools
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from fisherlab import cli  # noqa: E402

SEED = 11

# Every op loads a config and builds its family, whose generator is checked
# and diagonalised once.
LOAD = {
    "cli.main": 1,
    "cli.load_config": 1,
    "cli.build_family": 1,
    "state_family.StateFamily": 1,
    "numerics.require_hermitian": 1,
    "numerics.hermitian_eig": 1,
    "metrology.seminorm_bound": 1,
}
# One state and derivative, and the QFI of it.
ONE_POINT = {"state_family.derivative": 1, "state_family.evaluate": 1, "metrology.qfi": 1}
# A spec measurement is built from the SLD at lambda, then audited at lambda.
SPEC_AUDIT = {
    **LOAD,
    "cli.build_povm": 1,
    "state_family.derivative": 2,
    "state_family.evaluate": 2,
    "metrology.qfi": 2,
    "metrology.sld": 1,
    "measurement.Povm": 1,
    "measurement.shannon_entropy": 1,
    "audit.audit": 1,
}


def explicit_audit(dim: int) -> dict:
    """An explicit list of ``dim`` effects: one Hermiticity check each, after the generator's."""
    counts = {**LOAD, **ONE_POINT, "cli.build_povm": 1, "measurement.Povm": 1}
    counts |= {"measurement.shannon_entropy": 1, "audit.audit": 1}
    return counts | {"numerics.require_hermitian": 1 + dim}


EXPECTED = {
    ("qsweep", 0): {
        **LOAD,
        **ONE_POINT,
        "metrology.qfi": 2,
        "metrology.sld": 1,
        "measurement.shannon_entropy": 1,
        "audit.sweep_q": 1,
        "audit.write_sweep_csv": 1,
    },
    ("simulate", 0): {
        **LOAD,
        **ONE_POINT,
        "cli.build_povm": 1,
        "state_family.derivative": 2,
        "state_family.evaluate": 2,
        "metrology.sld": 1,
        "measurement.Povm": 1,
        "measurement.sld_measurement": 1,
        "measurement.outcome_distribution": 1,
        "measurement.classical_fisher": 1,
        "estimation.crb_experiment": 1,
    },
}
# The audit-stream pool cycles through dims 2, 8 and 32, each with an
# SLD, a q-family and an explicit measurement.
for index, dim in enumerate((2, 8, 32)):
    EXPECTED["audit-stream", 3 * index] = {**SPEC_AUDIT, "measurement.sld_measurement": 1}
    EXPECTED["audit-stream", 3 * index + 1] = {**SPEC_AUDIT, "measurement.q_family_measurement": 1}
    EXPECTED["audit-stream", 3 * index + 2] = explicit_audit(dim)


@functools.cache
def pool(workload: str) -> list:
    return workloads.WORKLOADS[workload].make_pool(SEED)


@pytest.mark.parametrize("workload, index", EXPECTED, ids=[f"{w}-{k}" for w, k in EXPECTED])
def test_traced_call_counts(tmp_path, workload, index):
    op = pool(workload)[index]
    argv = [op.command]
    if op.config is not None:
        config = tmp_path / "op.json"
        config.write_text(op.config)
        argv += ["--config", str(config)]
    if op.writes_out:
        argv += ["--out", str(tmp_path / "op.out")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.remove()
    calls, _ = tracer.summary()
    counts = {name: int(count) for name, count in zip(tracing.SPAN_NAMES, calls) if count}
    assert counts == EXPECTED[workload, index]
