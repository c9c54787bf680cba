"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
the lines on success)."""

import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import haar_basis, paper_qubit_family, random_family, random_state
from fisherlab import (
    Povm,
    StateFamily,
    classical_fisher,
    crb_experiment,
    derivative,
    finite_difference_derivative,
    optimal_input_state,
    outcome_distribution,
    q_family_measurement,
    qfi,
    reproduce_counterexample,
    rotated_qubit_measurement,
    seminorm_bound,
    shannon_entropy,
    sld,
    sld_measurement,
)
from fisherlab.cli import main
from fisherlab.measurement import EPS_PROB, _born_terms, _fisher_sum

LN2 = math.log(2.0)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}")
        raise
    print(f"PASS criterion {label}")


@functools.lru_cache(maxsize=1)
def acceptance_families() -> tuple:
    """100 random families with dims cycling through 2..8 and QFI > 1e-6."""
    rng = np.random.default_rng(987654321)
    return tuple(random_family(2 + i % 7, rng) for i in range(100))


def test_criterion_1_golden_counterexample():
    with criterion("1: golden counterexample scalars exact, runtime < 0.1 s"):
        start = time.perf_counter()
        report = reproduce_counterexample()
        elapsed = time.perf_counter() - start
        assert report.qfi == pytest.approx(1.0, abs=1e-9)
        assert report.seminorm_sq == pytest.approx(1.0, abs=1e-9)
        assert report.fisher == pytest.approx(1.0, abs=1e-9)
        assert report.entropy == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(LN2, abs=1e-9)
        assert report.violated is True
        assert elapsed < 0.1


def test_criterion_2_sld_basis_entropy():
    with criterion("2: SLD measurement gives p = (1/2, 1/2) and S = ln 2"):
        for family in acceptance_families():
            sd = derivative(family, 0.0)
            povm = sld_measurement(sld(sd))
            dist = outcome_distribution(povm, sd)
            assert dist.probs[0] == pytest.approx(0.5, abs=1e-9)
            assert dist.probs[1] == pytest.approx(0.5, abs=1e-9)
            assert shannon_entropy(dist) == pytest.approx(LN2, abs=1e-9)


def test_criterion_3_q_family_optimality():
    with criterion("3: q-family stays optimal while entropy spans [0, ln 2]"):
        grid = np.linspace(0.0, 1.0, 21)
        for family in acceptance_families():
            sd = derivative(family, 0.0)
            sldd = sld(sd)
            target = qfi(sd)
            for q in grid:
                povm = q_family_measurement(sldd, sd.state, q)
                assert abs(classical_fisher(povm, sd) - target) <= 1e-9
                entropy = shannon_entropy(outcome_distribution(povm, sd))
                expected = 0.0
                if 0.0 < q < 1.0:
                    expected = -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)
                assert entropy == pytest.approx(expected, abs=1e-9)
            skewed = q_family_measurement(sldd, sd.state, 0.001)
            assert shannon_entropy(outcome_distribution(skewed, sd)) < 0.01


def test_criterion_4_qfi_equals_four_over_n_squared():
    with criterion("4: F_Q = 4/N^2 on every random family"):
        for family in acceptance_families():
            sd = derivative(family, 0.0)
            sldd = sld(sd)
            assert qfi(sd) == pytest.approx(4.0 / sldd.normalization**2, abs=1e-9)


def test_criterion_5_seminorm_ceiling():
    with criterion("5: QFI <= ||h||^2 over random inputs, equality at the optimum"):
        rng = np.random.default_rng(24681357)
        for dim in (2, 3, 4, 6, 8):
            from conftest import random_hermitian

            generator = random_hermitian(dim, rng)
            probe = StateFamily(generator=generator, input_state=random_state(dim, rng))
            bound = seminorm_bound(probe)
            for _ in range(200):
                family = StateFamily(generator=generator, input_state=random_state(dim, rng))
                assert qfi(derivative(family, 0.0)) <= bound + 1e-9
            best = StateFamily(generator=generator, input_state=optimal_input_state(probe))
            assert qfi(derivative(best, 0.0)) == pytest.approx(bound, abs=1e-9)


def test_criterion_6_zero_probability_limit_rule(monkeypatch):
    with criterion("6: vanishing-probability Fisher terms take their limit value"):
        family = paper_qubit_family()
        lam = 0.7
        sd = derivative(family, lam)
        at_angle = classical_fisher(rotated_qubit_measurement(lam), sd)
        assert at_angle == pytest.approx(1.0, abs=1e-9)
        for offset in (1e-4, -1e-4):
            nearby = classical_fisher(rotated_qubit_measurement(lam + offset), sd)
            assert abs(at_angle - nearby) <= 1e-6

        # A build that silently drops p ~ 0 outcomes must fail the golden check.
        def dropping_fisher(probs, dprobs, limits):
            regular = probs > EPS_PROB
            return np.where(regular, dprobs**2 / np.maximum(probs, EPS_PROB), 0.0).sum(-1)

        import sys

        audit_module = sys.modules["fisherlab.audit"]
        monkeypatch.setattr(audit_module, "_fisher_sum", dropping_fisher)
        rc = main(["golden"])
        monkeypatch.undo()
        assert rc == 1


def test_criterion_7_derivative_oracle():
    with criterion("7: finite differences confirm the analytic derivative, order 2"):
        rng = np.random.default_rng(1122334455)
        for dim in (2, 4, 8):
            family = random_family(dim, rng)
            exact = derivative(family, 0.3).dstate
            fd = finite_difference_derivative(family, 0.3, step=1e-5)
            assert np.linalg.norm(exact - fd) <= 1e-9
            errors = [
                np.linalg.norm(finite_difference_derivative(family, 0.3, step) - exact)
                for step in (1e-2, 1e-3, 1e-4)
            ]
            for coarse, fine in zip(errors, errors[1:]):
                order = math.log10(coarse / fine)
                assert 1.8 <= order <= 2.2


def test_criterion_8_brute_force_measurement_search():
    with criterion("8: 1e4 random bases never beat the QFI yet come within 1%"):
        start = time.perf_counter()
        family = paper_qubit_family()
        sd = derivative(family, 0.7)
        target = qfi(sd)
        bases = haar_basis(np.random.default_rng(777), count=10**4)
        # Outcome a of a basis projects on column a, whose amplitude row is
        # its conjugate: one (10^4, 2, 1, 2) row stack for all bases.
        rows = bases.conj().transpose(0, 2, 1)[:, :, None, :]
        fishers = _fisher_sum(*_born_terms(rows, sd))
        best = float(fishers.max())
        elapsed = time.perf_counter() - start
        # The per-basis scalar path stays as the oracle on a prefix.
        for basis, fisher in zip(bases[:500], fishers):
            povm = Povm.from_effects(tuple(np.outer(col, col.conj()) for col in basis.T))
            assert abs(classical_fisher(povm, sd) - fisher) <= 1e-12
        assert best <= target + 1e-8
        assert best >= 0.99 * target
        assert elapsed < 10.0


def test_criterion_9_cramer_rao_simulation():
    with criterion("9: MLE spread saturates the Cramer-Rao bound, deterministically"):
        start = time.perf_counter()
        family = paper_qubit_family()
        lam = 0.7
        povm = sld_measurement(sld(derivative(family, lam)))
        first = crb_experiment(family, povm, lam, n=10**4, trials=400, seed=2026)
        second = crb_experiment(family, povm, lam, n=10**4, trials=400, seed=2026)
        elapsed = time.perf_counter() - start
        assert 0.9 <= first.ratio <= 1.2
        assert first == second
        assert elapsed < 30.0
