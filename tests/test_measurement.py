import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import haar_basis, paper_qubit_family, random_family
from fisherlab import (
    OutcomeDistribution,
    Povm,
    StateFamily,
    audit,
    classical_fisher,
    derivative,
    outcome_distribution,
    q_family_measurement,
    qfi,
    rotated_qubit_measurement,
    shannon_entropy,
    sld,
    sld_measurement,
)
from fisherlab.audit import OPTIMALITY_TOL
from fisherlab.errors import DimMismatchError, InvalidQError, NonHermitianError

LN2 = np.log(2.0)
# -0.3 ln 0.3 - 0.7 ln 0.7, frozen from a 40-digit mpmath evaluation
BINARY_ENTROPY_03 = 0.6108643020548935


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return float(-q * np.log(q) - (1.0 - q) * np.log(1.0 - q))


def projective_povm(basis: np.ndarray) -> Povm:
    effects = tuple(np.outer(col, col.conj()) for col in basis.T)
    return Povm.from_effects(effects)


def dense_statistics(effects, sd):
    """Reference oracle on dense effects: ``<psi|E|psi>`` and ``2 Re<dpsi|E|psi>``."""
    probs = np.array([np.vdot(sd.state, e @ sd.state).real for e in effects])
    dprobs = np.array([2.0 * np.vdot(sd.dstate, e @ sd.state).real for e in effects])
    return probs, dprobs


def random_effects(count: int, dim: int, rng: np.random.Generator) -> list:
    """Full-rank random POVM: ``E_a = S^-1/2 X_a^H X_a S^-1/2`` with ``S = sum X_a^H X_a``."""
    raw = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    grams = [x.conj().T @ x for x in raw]
    values, vectors = np.linalg.eigh(sum(grams))
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.conj().T
    effects = []
    for gram in grams:
        effect = inv_sqrt @ gram @ inv_sqrt
        effects.append((effect + effect.conj().T) / 2.0)
    return effects


class TestPovmValidation:
    def test_accepts_projective_basis(self):
        povm = projective_povm(np.eye(3, dtype=complex))
        assert povm.dim == 3
        assert len(povm) == 3
        assert povm.labels == ("E0", "E1", "E2")

    def test_rejects_incomplete_effects(self):
        e0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            Povm.from_effects((e0,))

    def test_rejects_negative_effect(self):
        up = np.diag([1.5, 0.0])
        down = np.diag([-0.5, 1.0])
        with pytest.raises(ValueError):
            Povm.from_effects((up, down))

    def test_rejects_non_hermitian_effect(self):
        skew = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(NonHermitianError):
            Povm.from_effects((skew, np.eye(2) - skew))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimMismatchError):
            Povm.from_effects((np.eye(2), np.eye(3)))


class TestOutcomeDistribution:
    def test_rotated_measurement_reproduces_cosine_law(self):
        family = paper_qubit_family()
        lam = 0.7
        sd = derivative(family, lam)
        for phi in (-1.0, 0.0, 0.7, 2.2):
            dist = outcome_distribution(rotated_qubit_measurement(phi), sd)
            expected = 0.5 * np.array([1.0 + np.cos(phi - lam), 1.0 - np.cos(phi - lam)])
            assert_allclose(dist.probs, expected, atol=1e-12)

    def test_identity_povm(self):
        sd = derivative(paper_qubit_family(), 0.3)
        dist = outcome_distribution(Povm.from_effects((np.eye(2),)), sd)
        assert_allclose(dist.probs, [1.0], atol=1e-15)
        assert_allclose(dist.dprobs, [0.0], atol=1e-12)

    def test_q_family_probabilities_read_back_q(self, rng):
        sd = derivative(random_family(3, rng), 0.5)
        povm = q_family_measurement(sld(sd), sd.state, 0.3)
        dist = outcome_distribution(povm, sd)
        assert_allclose(dist.probs, [0.3, 0.7, 0.0], atol=1e-12)

    def test_normalization_invariants(self, rng):
        for dim in (2, 4):
            sd = derivative(random_family(dim, rng), 0.1)
            povm = sld_measurement(sld(sd))
            dist = outcome_distribution(povm, sd)
            assert abs(dist.probs.sum() - 1.0) <= 1e-9
            assert abs(dist.dprobs.sum()) <= 1e-9

    def test_dim_mismatch(self):
        sd = derivative(paper_qubit_family(), 0.0)
        with pytest.raises(DimMismatchError):
            outcome_distribution(projective_povm(np.eye(3, dtype=complex)), sd)

    @pytest.mark.parametrize(
        "probs, dprobs",
        [([np.nan, 0.5], [0.0, 0.0]), ([np.nan, np.nan], [0.0, 0.0]), ([0.5, 0.5], [np.nan, 0.0])],
    )
    def test_rejects_non_finite_entries(self, probs, dprobs):
        with pytest.raises(ValueError):
            OutcomeDistribution(probs=probs, dprobs=dprobs)


class TestBatchedDistributions:
    """Leading axes index distributions; every check holds for each of them."""

    @pytest.mark.parametrize("excess, valid", [(0.9e-9, True), (1.1e-9, False)])
    def test_sum_band_edge_in_one_row(self, excess, valid):
        probs = np.array([[0.5, 0.5], [0.25, 0.75 + excess], [1.0, 0.0]])
        if valid:
            OutcomeDistribution(probs=probs, dprobs=np.zeros_like(probs))
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                OutcomeDistribution(probs=probs, dprobs=np.zeros_like(probs))

    @pytest.mark.parametrize("low, valid", [(-0.9e-12, True), (-1.1e-12, False)])
    def test_negativity_band_edge_in_one_row(self, low, valid):
        probs = np.array([[0.5, 0.5], [low, 1.0 - low]])
        if valid:
            OutcomeDistribution(probs=probs, dprobs=np.zeros_like(probs))
        else:
            with pytest.raises(ValueError, match="negative"):
                OutcomeDistribution(probs=probs, dprobs=np.zeros_like(probs))

    def test_derivative_sum_checked_per_row(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        dprobs = np.array([[1.0, -1.0], [1.0, -1.0 + 2e-9]])
        with pytest.raises(ValueError, match="derivatives"):
            OutcomeDistribution(probs=probs, dprobs=dprobs)

    def test_entropy_of_a_stack_is_the_entropy_of_each_row(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [1.0, 0.0, 0.0]])
        stacked = shannon_entropy(probs)
        assert stacked.shape == (3,)
        assert stacked.tolist() == [shannon_entropy(row) for row in probs]
        assert isinstance(shannon_entropy(probs[0]), float)


class TestClassicalFisher:
    def test_rotated_measurement_is_optimal_at_every_angle(self):
        family = paper_qubit_family()
        lam = 0.7
        sd = derivative(family, lam)
        for phi in (lam, lam + 0.5, lam + np.pi / 2.0, lam - 2.0, lam + np.pi):
            fisher = classical_fisher(rotated_qubit_measurement(phi), sd)
            assert fisher == pytest.approx(1.0, abs=1e-9)

    def test_identity_povm_carries_no_information(self):
        sd = derivative(paper_qubit_family(), 0.2)
        assert classical_fisher(Povm.from_effects((np.eye(2),)), sd) == pytest.approx(0.0, abs=1e-12)

    def test_q_family_attains_qfi(self, rng):
        for dim in (2, 3):
            sd = derivative(random_family(dim, rng), 0.8)
            sldd = sld(sd)
            for q in (0.0, 0.25, 0.5, 1.0):
                povm = q_family_measurement(sldd, sd.state, q)
                assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)

    def test_q_grid_optimality_across_dims(self, rng):
        for dim in (2, 3, 4):
            sd = derivative(random_family(dim, rng), -0.6)
            sldd = sld(sd)
            for q in np.linspace(0.0, 1.0, 21):
                povm = q_family_measurement(sldd, sd.state, q)
                assert abs(classical_fisher(povm, sd) - qfi(sd)) <= 1e-9

    def test_never_exceeds_qfi_for_random_bases(self, rng):
        for _ in range(50):
            family = random_family(2, rng)
            sd = derivative(family, 0.4)
            povm = projective_povm(haar_basis(rng))
            assert classical_fisher(povm, sd) <= qfi(sd) + 1e-8

    def test_zero_probability_continuity(self):
        # The value at phi = lam must agree with the limit phi -> lam.
        family = paper_qubit_family()
        lam = 0.7
        sd = derivative(family, lam)
        at_zero = classical_fisher(rotated_qubit_measurement(lam), sd)
        nearby = classical_fisher(rotated_qubit_measurement(lam + 1e-4), sd)
        assert abs(at_zero - nearby) <= 1e-6
        nearby = classical_fisher(rotated_qubit_measurement(lam - 1e-4), sd)
        assert abs(at_zero - nearby) <= 1e-6

    def test_brute_force_basis_search_stays_below_qfi(self, rng):
        family = paper_qubit_family()
        sd = derivative(family, 0.7)
        target = qfi(sd)
        best = 0.0
        for _ in range(2000):
            best = max(best, classical_fisher(projective_povm(haar_basis(rng)), sd))
        assert best <= target + 1e-8
        assert best >= 0.99 * target


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_deterministic_outcome(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_biased_coin_against_frozen_value(self):
        assert shannon_entropy([0.3, 0.7]) == pytest.approx(BINARY_ENTROPY_03, abs=1e-12)

    def test_accepts_outcome_distribution(self):
        sd = derivative(paper_qubit_family(), 0.0)
        dist = outcome_distribution(sld_measurement(sld(sd)), sd)
        assert shannon_entropy(dist) == pytest.approx(LN2, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_under_outcome_swap(self, q):
        assert shannon_entropy([q, 1.0 - q]) == pytest.approx(
            shannon_entropy([1.0 - q, q]), abs=1e-12
        )

    def test_range_bound(self, rng):
        probs = rng.random(5)
        probs /= probs.sum()
        assert 0.0 <= shannon_entropy(probs) <= np.log(5.0)


class TestSldMeasurement:
    def test_qubit_outcomes_are_balanced(self):
        sd = derivative(paper_qubit_family(), 0.7)
        povm = sld_measurement(sld(sd))
        assert len(povm) == 2
        dist = outcome_distribution(povm, sd)
        assert_allclose(dist.probs, [0.5, 0.5], atol=1e-12)

    def test_qutrit_lumped_complement(self):
        family = StateFamily(
            generator=np.diag([1.0, 0.0, -1.0]),
            input_state=np.ones(3) / np.sqrt(3.0),
        )
        sd = derivative(family, 0.4)
        povm = sld_measurement(sld(sd))
        assert len(povm) == 3
        assert povm.labels == ("+", "-", "rest")
        dist = outcome_distribution(povm, sd)
        assert_allclose(dist.probs, [0.5, 0.5, 0.0], atol=1e-12)

    def test_achieves_qfi_and_log2_entropy(self, rng):
        for dim in (2, 3, 5, 8):
            sd = derivative(random_family(dim, rng), -1.1)
            povm = sld_measurement(sld(sd))
            assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)
            assert shannon_entropy(outcome_distribution(povm, sd)) == pytest.approx(
                LN2, abs=1e-9
            )

    def test_completeness_on_random_families(self, rng):
        for dim in (2, 4, 6):
            sd = derivative(random_family(dim, rng), 0.9)
            povm = sld_measurement(sld(sd))
            total = sum(povm.effects)
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-9


class TestQFamilyMeasurement:
    def test_half_mixing_recovers_sld_basis(self, rng):
        sd = derivative(random_family(3, rng), 0.2)
        sldd = sld(sd)
        q_povm = q_family_measurement(sldd, sd.state, 0.5)
        sld_povm = sld_measurement(sldd)
        assert_allclose(q_povm.effects[0], sld_povm.effects[0], atol=1e-12)
        assert_allclose(q_povm.effects[1], sld_povm.effects[1], atol=1e-12)

    def test_zero_mixing_is_deterministic_yet_optimal(self, rng):
        sd = derivative(random_family(3, rng), 0.6)
        povm = q_family_measurement(sld(sd), sd.state, 0.0)
        dist = outcome_distribution(povm, sd)
        assert_allclose(dist.probs, [0.0, 1.0, 0.0], atol=1e-12)
        assert shannon_entropy(dist) == pytest.approx(0.0, abs=1e-9)
        assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)

    def test_partial_mixing_entropy(self, rng):
        sd = derivative(random_family(2, rng), 0.6)
        povm = q_family_measurement(sld(sd), sd.state, 0.3)
        dist = outcome_distribution(povm, sd)
        assert shannon_entropy(dist) == pytest.approx(BINARY_ENTROPY_03, abs=1e-9)
        assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)

    def test_rejects_q_outside_unit_interval(self, rng):
        sd = derivative(random_family(2, rng), 0.0)
        sldd = sld(sd)
        for q in (-0.1, 1.1, 2.0):
            with pytest.raises(InvalidQError):
                q_family_measurement(sldd, sd.state, q)


class TestRotatedQubitMeasurement:
    def test_zero_angle_is_sigma_x_basis(self):
        povm = rotated_qubit_measurement(0.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert_allclose(povm.effects[0], np.outer(plus, plus.conj()), atol=1e-14)

    def test_quarter_turn_is_sigma_y_basis(self):
        povm = rotated_qubit_measurement(np.pi / 2.0)
        plus = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert_allclose(povm.effects[0], np.outer(plus, plus.conj()), atol=1e-14)

    def test_cosine_law_on_phase_family(self):
        family = paper_qubit_family()
        lam = -0.9
        sd = derivative(family, lam)
        for phi in np.linspace(-np.pi, np.pi, 11):
            dist = outcome_distribution(rotated_qubit_measurement(phi), sd)
            assert dist.probs[0] == pytest.approx(0.5 * (1.0 + np.cos(phi - lam)), abs=1e-12)


class TestSldWeightIdentity:
    def test_trace_form_matches_probability_derivatives(self, rng):
        # (1/4) Tr[L E]^2 agrees with (dp)^2 for each effect when L is the
        # rank-2 derivative operator of a pure state.
        for dim in (2, 3, 5):
            sd = derivative(random_family(dim, rng), 0.7)
            sldd = sld(sd)
            for povm in (
                sld_measurement(sldd),
                q_family_measurement(sldd, sd.state, 0.37),
            ):
                dist = outcome_distribution(povm, sd)
                for eff, dp in zip(povm.effects, dist.dprobs):
                    trace_weight = 0.25 * np.trace(sldd.sld @ eff).real ** 2
                    assert trace_weight == pytest.approx(dp**2, abs=1e-10)


class TestAmplitudeAccuracy:
    """Fisher information near vanishing outcome probabilities.

    Each measurement below is provably optimal, so ``F = F_Q`` exactly;
    forming ``p = <psi|E|psi>`` from dense effects loses these digits to
    cancellation once an outcome is nearly orthogonal to the state.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        log_q=st.floats(min_value=-10.0, max_value=-2.0),
    )
    def test_q_family_optimal_at_extreme_bias(self, dim, seed, log_q):
        family = random_family(dim, np.random.default_rng(seed))
        sd = derivative(family, 0.3)
        sldd = sld(sd)
        q = 10.0**log_q
        for bias in (q, 1.0 - q):
            report = audit(family, 0.3, q_family_measurement(sldd, sd.state, bias))
            assert abs(report.fisher - report.qfi) <= OPTIMALITY_TOL
            assert report.measurement_optimal

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_delta=st.floats(min_value=-10.0, max_value=-2.0),
        sign=st.sampled_from((1.0, -1.0)),
    )
    def test_rotated_qubit_optimal_near_deterministic_angle(self, log_delta, sign):
        lam = 0.7
        povm = rotated_qubit_measurement(lam + sign * 10.0**log_delta)
        report = audit(paper_qubit_family(), lam, povm)
        assert abs(report.fisher - report.qfi) <= OPTIMALITY_TOL
        assert report.measurement_optimal

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=6),
        count=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_agrees_with_dense_effect_oracle(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        effects = random_effects(count, dim, rng)
        sd = derivative(random_family(dim, rng), 0.4)
        probs, dprobs = dense_statistics(effects, sd)
        assume(probs.min() > 1e-3)
        povm = Povm.from_effects(effects)
        dist = outcome_distribution(povm, sd)
        assert_allclose(dist.probs, probs, rtol=0.0, atol=1e-12)
        assert_allclose(dist.dprobs, dprobs, rtol=0.0, atol=1e-12)
        dense_fisher = float(np.sum(dprobs**2 / probs))
        assert abs(classical_fisher(povm, sd) - dense_fisher) <= 1e-10
