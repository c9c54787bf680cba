"""No verdict depends on the gauge of the family or the basis it is written in.

A generator offset ``h + cI`` and a global phase on the input state only
multiply ``|psi_lam>`` by a phase; a unitary change of basis ``U`` applied
to the generator, the input state and the POVM rows (``M_a -> M_a U^H``)
changes no probability. So every verdict cell must be the same, and the
reported numbers may move only by rounding. An offset ``c`` scales the
rounding of the phases ``lam (e_j + c)`` by ``|c|``, so each bound is a
multiple of ``max(1, |c|)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_basis, random_family
from fisherlab import (
    Povm,
    StateFamily,
    audit,
    classical_fisher,
    crb_experiment,
    derivative,
    evaluate,
    q_family_measurement,
    rotated_qubit_measurement,
    sld,
    sld_measurement,
    sweep_phi,
    sweep_q,
)
from fisherlab.audit import SweepResult
from test_audit import BENCH_Q_GRID

CHANGES = ["offset", "phase", "basis"]
# c / gap for an offset, the angle for a phase; a basis is drawn from the seed.
AMOUNTS = st.one_of(st.sampled_from([1e6, -1e6, 1e4]), st.floats(-1e6, 1e6))
SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([2, 4, 8])
CHECKS = settings(derandomize=True, max_examples=40, deadline=None)

# Largest change per unit of max(1, |c|), about ten times the largest seen
# over 2,000 seeded examples of each check: F 2.4e-13 (phi sweep against
# audits in a rotated basis; at most 3.8e-14 elsewhere), S 8.0e-15, an
# estimate 1.2e-14 and the Cramer-Rao bound 7.2e-15 of itself.
FISHER_BOUND = 2e-12
ENTROPY_BOUND = 1e-13
ESTIMATE_BOUND = 1e-13
CRB_BOUND = 1e-13
VERDICTS = ("violated", "measurement_optimal")


def changed(dim: int, seed: int, change: str, amount: float):
    """A random family and ``lam``, the changed family, its basis ``U`` and the bound scale."""
    rng = np.random.default_rng(seed)
    family = random_family(dim, rng)
    lam = float(rng.uniform(-np.pi, np.pi))
    gen, psi, unitary, scale = family.generator, family.input_state, np.eye(dim), 1.0
    if change == "offset":
        shift = amount * float(family._eigvals[-1] - family._eigvals[0])
        gen, scale = gen + shift * np.eye(dim), max(1.0, abs(shift))
    elif change == "phase":
        psi = np.exp(1j * amount) * psi
    else:
        unitary = haar_basis(rng, dim)
        gen = unitary @ gen @ unitary.conj().T
        gen, psi = 0.5 * (gen + gen.conj().T), unitary @ psi
    return family, lam, StateFamily(generator=gen, input_state=psi), unitary, scale


def rotated(povm: Povm, unitary: np.ndarray) -> Povm:
    return Povm(rows=povm.rows @ unitary.conj().T)


def columns(reports) -> dict:
    """Verdict and number columns of a sweep or of a list of audit reports."""
    names = VERDICTS + ("fisher", "entropy")
    if isinstance(reports, SweepResult):
        return {name: getattr(reports, name) for name in names}
    return {name: np.array([getattr(report, name) for report in reports]) for name in names}


def assert_same_verdicts(before, after, scale: float) -> None:
    before, after = columns(before), columns(after)
    for name in VERDICTS:
        assert (before[name] == after[name]).all()
    assert np.abs(before["fisher"] - after["fisher"]).max() <= FISHER_BOUND * scale
    assert np.abs(before["entropy"] - after["entropy"]).max() <= ENTROPY_BOUND * scale


@pytest.mark.parametrize("change", CHANGES)
@CHECKS
@given(dim=DIMS, seed=SEEDS, amount=AMOUNTS)
def test_sweep_q(change, dim, seed, amount):
    family, lam, other, _, scale = changed(dim, seed, change, amount)
    before, after = sweep_q(family, lam, BENCH_Q_GRID), sweep_q(other, lam, BENCH_Q_GRID)
    assert_same_verdicts(before, after, scale)


@pytest.mark.parametrize("change", CHANGES)
@CHECKS
@given(seed=SEEDS, amount=AMOUNTS)
def test_sweep_phi(change, seed, amount):
    family, lam, other, unitary, scale = changed(2, seed, change, amount)
    grid = lam + np.linspace(-np.pi, np.pi, 65)
    if change == "basis":
        # The sweep measures in the qubit's own basis: the changed family
        # is audited point by point with the rotated rows.
        povms = [rotated(rotated_qubit_measurement(phi), unitary) for phi in grid]
        after = [audit(other, lam, povm) for povm in povms]
    else:
        after = sweep_phi(other, lam, grid)
    assert_same_verdicts(sweep_phi(family, lam, grid), after, scale)


@pytest.mark.parametrize("change", CHANGES)
@CHECKS
@given(dim=DIMS, seed=SEEDS, amount=AMOUNTS, exponent=st.integers(-13, 0))
def test_audit(change, dim, seed, amount, exponent):
    family, lam, other, unitary, scale = changed(dim, seed, change, amount)
    sd = derivative(family, lam)
    povms = [
        Povm(rows=haar_basis(np.random.default_rng(seed), dim).conj().T[:, None, :]),
        sld_measurement(sld(sd)),
        # From q = 1e-13 on, the small outcome takes the vanishing-probability limit.
        q_family_measurement(sld(sd), 10.0**exponent),
    ]
    before = [audit(family, lam, povm) for povm in povms]
    after = [audit(other, lam, rotated(povm, unitary)) for povm in povms]
    assert_same_verdicts(before, after, scale)


@pytest.mark.parametrize("change", CHANGES)
@CHECKS
@given(dim=DIMS, seed=SEEDS, amount=AMOUNTS, q=st.floats(0.05, 0.45))
def test_crb_experiment(change, dim, seed, amount, q):
    # Not the SLD measurement: at its p = 1/2, NumPy's binomial sampler
    # switches from counting successes to counting failures, so a change of
    # p by rounding can mirror every count.
    family, lam, other, unitary, scale = changed(dim, seed, change, amount)
    sd = derivative(family, lam)
    povm = q_family_measurement(sld(sd), q)
    reports = [
        crb_experiment(fam, rows, lam, 1000, 10, seed)
        for fam, rows in [(family, povm), (other, rotated(povm, unitary))]
    ]
    estimates = [np.array(report.estimates) for report in reports]
    assert np.abs(estimates[0] - estimates[1]).max() <= ESTIMATE_BOUND * scale
    assert abs(reports[0].crb - reports[1].crb) <= CRB_BOUND * scale * reports[0].crb


# Nor on the phase of each eigenvector column, which LAPACK picks and which
# may differ between builds: it cancels in the evolution V e^{-i lam E} V^H psi
# and in the likelihood weights. Largest change seen over 1,500 families at
# each of d = 2, 8 and 32: a state entry 5.6e-16, a report number 3.8e-14 (an
# audit's F), and an estimate 1.6e-14 / F, with F the Fisher information at
# lam, since a flat likelihood moves its maximum further for the same
# rounding. Each bound is about ten times that.
STATE_BOUND = 1e-14
NUMBER_BOUND = 4e-13
FLAT_ESTIMATE_BOUND = 2e-13


def rephased(family: StateFamily, rng: np.random.Generator) -> StateFamily:
    """A copy of ``family`` with each eigenvector column times a random unit phase."""
    other = StateFamily(generator=family.generator, input_state=family.input_state)
    phases = np.exp(2j * np.pi * rng.uniform(size=family.dim))
    object.__setattr__(other, "_eigvecs", family._eigvecs * phases)
    return other


def phase_changes(dim: int, seed: int) -> dict:
    """Largest change of states, report numbers and F-weighted estimates under :func:`rephased`."""
    rng = np.random.default_rng(seed)
    family = random_family(dim, rng)
    lam = float(rng.uniform(-np.pi, np.pi))
    families = (family, rephased(family, rng))
    sds = [derivative(fam, lam) for fam in families]
    states = [np.stack([evaluate(fam, lam), sd.state, sd.dstate, sd.tangent])
              for fam, sd in zip(families, sds)]
    # Not the SLD measurement for the estimates: see test_crb_experiment.
    povm = q_family_measurement(sld(sds[0]), float(rng.uniform(0.05, 0.45)))
    basis = Povm(rows=haar_basis(rng, dim).conj().T[:, None, :])
    povms = [basis, sld_measurement(sld(sds[0])), povm]
    reports = [[audit(fam, lam, each) for each in povms] + [sweep_q(fam, lam, BENCH_Q_GRID)]
               for fam in families]
    numbers = []
    for one, two in zip(*reports):
        for name in VERDICTS:
            assert (np.asarray(getattr(one, name)) == getattr(two, name)).all()
        for name in ("entropy", "fisher", "qfi", "seminorm_sq", "rhs"):
            numbers.append(np.abs(np.subtract(getattr(one, name), getattr(two, name))).max())
    estimates = [crb_experiment(fam, povm, lam, 1000, 10, seed).estimates for fam in families]
    return {
        "state": np.abs(states[0] - states[1]).max(),
        "number": max(numbers),
        "estimate": np.abs(np.subtract(*estimates)).max() * classical_fisher(povm, sds[0]),
    }


@pytest.mark.parametrize("dim", [2, 8, 32])
@pytest.mark.parametrize("seed", range(8))
def test_eigenvector_phases(dim, seed):
    changes = phase_changes(dim, seed)
    assert changes["state"] <= STATE_BOUND
    assert changes["number"] <= NUMBER_BOUND
    assert changes["estimate"] <= FLAT_ESTIMATE_BOUND
