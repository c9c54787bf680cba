"""Tests of the benchmark's input generator, oracles, checks and tracer."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import hostspeed
import oracles
import tracing
import workloads
from fisherlab import cli, reproduce_counterexample

# Paper family sigma_z/2 on |+>, measured in the sigma_x basis at
# lam = pi/3: p = (3/4, 1/4), F = 1, S = -(3/4)ln(3/4) - (1/4)ln(1/4).
HAND_ENTROPY = 0.5623351446188083


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(name):
    make = workloads.WORKLOADS[name].make_pool
    first = [op.config for op in make(3)]
    assert first == [op.config for op in make(3)]
    assert first != [op.config for op in make(4)]


def test_binary_entropy_closed_form():
    assert oracles.binary_entropy(0.0) == 0.0
    assert oracles.binary_entropy(1.0) == 0.0
    assert oracles.binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert oracles.binary_entropy(0.25) == pytest.approx(HAND_ENTROPY, abs=1e-15)


def test_oracles_match_hand_checked_qubit():
    lam = math.pi / 3.0
    kets = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    gen, psi = workloads.PAPER_GENERATOR, workloads.PAPER_STATE
    probs, fisher = oracles.amplitude_fisher(kets, *oracles.evolve(gen, psi, lam))
    assert probs == pytest.approx([0.75, 0.25], abs=1e-15)
    assert fisher == pytest.approx(1.0, abs=1e-14)
    assert oracles.entropy(probs) == pytest.approx(HAND_ENTROPY, abs=1e-14)
    assert oracles.qfi(gen, psi) == pytest.approx(1.0, abs=1e-15)
    assert oracles.seminorm_sq(gen) == pytest.approx(1.0, abs=1e-15)
    assert oracles.crb(10_000, fisher) == pytest.approx(0.01, rel=1e-14)


def test_golden_oracle_matches_reproduce_counterexample():
    report = reproduce_counterexample()
    want = workloads.golden_oracle()
    for key in ("entropy", "fisher", "qfi", "seminorm_sq", "rhs"):
        assert getattr(report, key) == pytest.approx(want[key], abs=1e-12), key
    assert report.violated == want["violated"] is True
    assert report.measurement_optimal == want["optimal"] is True


def test_optimal_input_attains_the_seminorm():
    generator = workloads.random_generator(np.random.default_rng(5), 8)
    state = oracles.optimal_input(generator)
    assert oracles.qfi(generator, state) == pytest.approx(oracles.seminorm_sq(generator), rel=1e-13)


def test_qsweep_grid_verdicts_have_margin():
    entropy = np.array([oracles.binary_entropy(q) for q in workloads.QSWEEP_GRID])
    assert len(workloads.QSWEEP_GRID) == 2001
    # q = 1/2 sits exactly TOL_AUDIT from the threshold, far above rounding.
    assert np.min(np.abs(entropy - (oracles.LN2 - oracles.TOL_AUDIT))) > 1e-10


def _sweep_output(op, flip_row=None):
    """A sweep CSV holding the oracle's exact values, as a correct program writes it."""
    h2 = op.oracle["seminorm_sq"]
    lines = [",".join(workloads.SWEEP_COLUMNS)]
    for i, q in enumerate(workloads.QSWEEP_GRID):
        entropy = oracles.binary_entropy(q)
        violated = entropy < oracles.LN2 - oracles.TOL_AUDIT
        optimal = i != flip_row
        numbers = ",".join(f"{x:.17g}" for x in (q, entropy, h2, op.oracle["qfi"], h2, oracles.LN2))
        lines.append(f"{numbers},{str(violated).lower()},{str(optimal).lower()}")
    violations = sum(line.split(",")[6] == "true" for line in lines[1:])
    stdout = f"wrote {len(lines) - 1} rows to x.csv ({violations} violated, sweep over q)\n"
    return workloads.Output(0, stdout, ("\r\n".join(lines) + "\r\n").encode(), "x.csv")


def test_qsweep_check_counts_wrong_verdicts():
    op = workloads.qsweep_pool(0)[0]
    assert workloads.qsweep_check([op], [_sweep_output(op)]) == [workloads.Check(None, 0, 0.0)]
    flipped = workloads.qsweep_check([op], [_sweep_output(op, flip_row=7)])[0]
    assert flipped.failed is None and flipped.wrong == 1


def _simulate_output(op, estimates):
    """A simulate op's stdout and CSV for the given per-trial estimates."""
    std = float(np.std(estimates, ddof=1))
    crb = op.oracle["crb"]
    head = f"# true_lambda={workloads.SIM_LAMBDA:.17g} n={workloads.SIM_SHOTS} "
    head += f"trials={workloads.SIM_TRIALS} seed={op.oracle['seed']} measurement=sld"
    lines = [head, "trial,estimate"] + [f"{i},{e:.17g}" for i, e in enumerate(estimates)]
    lines.append(f"summary,{std:.17g}")
    stdout = f"empirical_std = {std:.6g}\ncrb = {crb:.6g}\nratio = {std / crb:.6g}\n"
    stdout += f"trials = {workloads.SIM_TRIALS}\nwrote per-trial estimates to x.csv\n"
    return workloads.Output(0, stdout, ("\n".join(lines) + "\n").encode(), "x.csv")


@pytest.mark.parametrize("shift, wrong", [(0.0, 0), (0.5, workloads.SIM_TRIALS)])
def test_simulate_check_fails_a_biased_estimator(shift, wrong):
    pool = workloads.simulate_pool(0)
    rng = np.random.default_rng(1)
    crb = pool[0].oracle["crb"]
    outputs = []
    for op in pool:
        estimates = workloads.SIM_LAMBDA + crb * (shift + rng.standard_normal(workloads.SIM_TRIALS))
        outputs.append(_simulate_output(op, estimates))
    checks = workloads.simulate_check(pool, outputs)
    assert [(c.failed, c.wrong) for c in checks] == [(None, wrong)] * len(pool)


def _run_pool(pool, tmp_path):
    outputs = []
    for k, op in enumerate(pool):
        argv = [op.command]
        if op.config is not None:
            path = tmp_path / f"op{k}.json"
            path.write_text(op.config)
            argv += ["--config", str(path)]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        outputs.append(workloads.Output(code, buffer.getvalue(), b"", None))
    return outputs


def test_audit_stream_outputs_pass_checks_and_flipped_verdicts_do_not(tmp_path):
    pool = workloads.audit_stream_pool(0)
    outputs = _run_pool(pool, tmp_path)
    checks = workloads.audit_stream_check(pool, outputs)
    assert [c.failed for c in checks] == [None] * len(pool)
    assert sum(c.wrong for c in checks) == 0

    flipped = outputs[0].stdout.replace("measurement_optimal = true", "measurement_optimal = false")
    assert flipped != outputs[0].stdout
    bad = workloads.audit_stream_check(pool[:1], [workloads.Output(0, flipped, b"", None)])
    assert bad[0].wrong == 1


def test_tracer_counts_golden_calls_and_restores_the_package():
    audit_module = sys.modules["fisherlab.audit"]
    original = audit_module.audit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["golden"]) == 0
    finally:
        tracer.remove()
    assert audit_module.audit is original
    calls, self_s = tracer.summary()
    counts = dict(zip(tracing.SPAN_NAMES, calls))
    assert counts["audit.audit"] == 1
    assert counts["measurement.rotated_qubit_measurement"] == 1
    assert counts["state_family.StateFamily"] == 1
    assert counts["cli.main"] == 1
    assert np.all(self_s >= 0.0)


def test_rates_are_scaled_to_the_nominal_host_speed():
    # Twice the nominal reference time: the host ran at half speed.
    slow = harness.Measured([], 100, 2.0, [], [1.5 * hostspeed.NOMINAL_S, 2.5 * hostspeed.NOMINAL_S])
    assert slow.slowdown == pytest.approx(2.0)
    assert slow.items_per_s == pytest.approx(100.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(harness.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == harness.per_layer_names()
