import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fisherlab.measurement as measurement
import referee
from conftest import haar_basis, paper_qubit_family, povm_effects, random_family
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
from fisherlab.measurement import (
    EPS_PROB,
    _born_terms,
    _complement,
    _fisher_sum,
    _plane_terms,
    _q_basis,
    _q_coeffs,
    _short_sum,
)

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
        assert_allclose(povm_effects(povm), [np.diag(row) for row in np.eye(3)], atol=1e-14)

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

    def test_rejects_no_effects(self):
        with pytest.raises(DimMismatchError, match="at least one effect"):
            Povm.from_effects(())

    @pytest.mark.parametrize("shape", [(2, 2), (0, 1, 2), (2, 1, 0), (1, 1, 1, 1)])
    def test_rejects_rows_of_the_wrong_shape(self, shape):
        with pytest.raises(DimMismatchError, match=r"shape \(K, r, d\)"):
            Povm(rows=np.zeros(shape))


def watch_gram(monkeypatch) -> list:
    """A list that gains the name of each ufunc that a later ``_check_complete`` applies to its rows.

    The Gram is ``matmul`` for a matrix product and ``multiply`` for elementwise products.
    """
    seen = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            seen.append(ufunc.__name__)
            plain = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    check = measurement._check_complete
    monkeypatch.setattr(measurement, "_check_complete", lambda rows: check(rows.view(Watched)))
    return seen


def isometry_rows(shape, rng, excess: float = 0.0) -> np.ndarray:
    """A complete ``(K, r, d)`` stack: the rows of a Haar unitary, then zero rows.

    The first row ``u`` is scaled by ``sqrt(1 + excess)``, which adds ``excess u^H u``
    to the Gram: its deviation is then ``excess max|u_i|^2``.
    """
    count, rank, dim = shape
    flat = np.zeros((count * rank, dim), dtype=complex)
    flat[:dim] = haar_basis(rng, dim).conj().T
    flat[0] *= np.sqrt(1.0 + excess)
    return flat.reshape(shape)


# Shapes either side of _ELEMENTWISE_GRAM = 64 products K r d^2: the paper
# qubit's SLD rows, 16 qubit rows and (4, 1, 4) at the constant, then one
# padding row past it, and the d = 8 and d = 32 SLD rows.
GRAM_SHAPES = [(2, 1, 2), (16, 1, 2), (4, 1, 4), (17, 1, 2), (3, 8, 8), (3, 32, 32)]


class TestGramForms:
    """``_check_complete`` forms small Grams elementwise and large ones as a matmul."""

    @staticmethod
    def deviation(rows, monkeypatch, limit) -> float:
        """``_check_complete``'s deviation of ``rows`` with the constant set to ``limit``."""
        seen = []
        monkeypatch.setattr(measurement, "_ELEMENTWISE_GRAM", limit)
        monkeypatch.setattr(measurement, "_require_identity", lambda dev, tol: seen.append(dev))
        measurement._check_complete(rows)
        return seen[0]

    @pytest.mark.parametrize("shape", GRAM_SHAPES)
    def test_the_stack_size_selects_the_form(self, shape, monkeypatch, rng):
        seen = watch_gram(monkeypatch)
        Povm(rows=isometry_rows(shape, rng))
        count, rank, dim = shape
        small = count * rank * dim * dim <= measurement._ELEMENTWISE_GRAM
        assert seen == ["conjugate", "multiply" if small else "matmul"]

    @pytest.mark.parametrize("excess", [0.0, 3e-10])
    @pytest.mark.parametrize("shape", GRAM_SHAPES)
    def test_both_forms_agree_to_rounding(self, shape, excess, monkeypatch, rng):
        # Each Gram entry is a sum of n = K r products of entries of unit
        # columns, within (n + 2) eps of exact in either form.
        rows = isometry_rows(shape, rng, excess)
        elementwise = self.deviation(rows, monkeypatch, 10**9)
        matmul = self.deviation(rows, monkeypatch, 0)
        bound = 2 * (shape[0] * shape[1] + 2) * np.finfo(float).eps
        assert abs(elementwise - matmul) <= bound
        first = np.abs(rows.reshape(-1, shape[2])[0]).max() ** 2 / (1.0 + excess)
        assert abs(elementwise - excess * first) <= bound

    @pytest.mark.parametrize(
        "limit", [0, measurement._ELEMENTWISE_GRAM, 10**9], ids=["matmul", "default", "elementwise"]
    )
    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("excess, complete", [(0.9e-9, True), (1.1e-9, False)])
    def test_completeness_band_edge_in_either_form(self, dim, limit, excess, complete, monkeypatch):
        # The shared-complement stack of TestSweepPerPointChecks: bras <0| and
        # <1| padded to (3, d, d) rows with the complement of their plane, the
        # first scaled by sqrt(1 + excess), the whole completeness deviation.
        monkeypatch.setattr(measurement, "_ELEMENTWISE_GRAM", limit)
        basis = np.eye(dim, dtype=complex)[:2]
        rows = np.zeros((3, dim, dim), dtype=complex)
        rows[:2, 0] = basis
        rows[0, 0, 0] = np.sqrt(1.0 + excess)
        rows[2] = measurement._complement(basis)
        if complete:
            assert len(Povm(rows=rows)) == 3
        else:
            with pytest.raises(ValueError, match="identity"):
                Povm(rows=rows)


def count_eigh(monkeypatch) -> list:
    """A list that gains one entry per ``np.linalg.eigh`` call from now on."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    return calls


def eigh_rows(effects) -> np.ndarray:
    """Rows ``sqrt(w) v^H`` of the batched eigendecomposition of the effect stack."""
    weights, vecs = np.linalg.eigh(np.stack([np.asarray(e, dtype=complex) for e in effects]))
    return np.sqrt(np.maximum(weights, 0.0))[..., None] * vecs.conj().swapaxes(1, 2)


def rank_one_bound(effects) -> float:
    """The rank-1 factor's per-entry bound: ``8 d eps`` times the stack's largest diagonal."""
    stack = np.stack(effects)
    return 8 * stack.shape[-1] * np.finfo(float).eps * stack.diagonal(axis1=1, axis2=2).real.max()


def trine_effects() -> list:
    """Qubit trine ``E_a = 2/3 |psi_a><psi_a|``: rank 1, not projectors, summing to I."""
    kets = [np.array([np.cos(a * np.pi / 3.0), np.sin(a * np.pi / 3.0)]) for a in range(3)]
    return [2.0 / 3.0 * np.outer(ket, ket.conj()) for ket in kets]


def assert_matches_dense_oracle(povm, effects, sd):
    probs, dprobs = dense_statistics(effects, sd)
    assert probs.min() > 1e-6
    dist = outcome_distribution(povm, sd)
    assert_allclose(dist.probs, probs, rtol=0.0, atol=1e-12)
    assert_allclose(dist.dprobs, dprobs, rtol=0.0, atol=1e-12)
    assert abs(classical_fisher(povm, sd) - float(np.sum(dprobs**2 / probs))) <= 1e-12


class TestRankOneFactor:
    """``from_effects`` factors rank-1 stacks in closed form and the rest with ``eigh``."""

    @pytest.mark.parametrize("case", ["haar-2", "haar-3", "haar-8", "haar-32", "trine"])
    def test_rank_one_stack_gets_one_row_per_effect_without_eigh(self, case, monkeypatch):
        rng = np.random.default_rng(sum(map(ord, case)))
        if case == "trine":
            effects = trine_effects()
        else:
            basis = haar_basis(rng, int(case.split("-")[1]))
            effects = [np.outer(col, col.conj()) for col in basis.T]
        dim = effects[0].shape[0]
        calls = count_eigh(monkeypatch)
        povm = Povm.from_effects(effects)
        assert calls == []
        assert povm.rows.shape == (len(effects), 1, dim)
        assert_allclose(povm_effects(povm), effects, rtol=0.0, atol=1e-15)
        assert_matches_dense_oracle(povm, effects, derivative(random_family(dim, rng), 0.4))

    @pytest.mark.parametrize("case", ["rank-2", "zero", "non-hermitian"])
    def test_other_stacks_get_the_eigh_rows(self, case, monkeypatch):
        rng = np.random.default_rng(5)
        basis = haar_basis(rng, 3)
        projectors = [np.outer(col, col.conj()) for col in basis.T]
        if case == "rank-2":
            effects = [projectors[0] + projectors[1], projectors[2]]
        elif case == "zero":
            effects = projectors + [np.zeros((3, 3))]
        else:
            # Skew by 1e-13: inside HERMITICITY_RTOL, far outside the rank-1 bound.
            skew = np.zeros((3, 3))
            skew[0, 1] = 1e-13
            effects = [projectors[0] + skew, projectors[1] - skew, projectors[2]]
        calls = count_eigh(monkeypatch)
        povm = Povm.from_effects(effects)
        assert calls == [(len(effects), 3, 3)]
        assert povm.rows.shape == (len(effects), 3, 3)
        assert povm.rows.tobytes() == eigh_rows(effects).tobytes()

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_bound_edge_switches_the_path_and_both_sides_agree(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        basis = haar_basis(rng, dim)
        effects = [np.outer(col, col.conj()) for col in basis.T]
        sd = derivative(random_family(dim, rng), 0.4)
        bound = rank_one_bound(effects)
        # A Hermitian bump on one entry pair off the pivot's row and column
        # (a lone diagonal entry at d = 2) leaves v alone and moves the
        # deviation by exactly its size, far above the residual's rounding.
        pivot = int(np.argmax(effects[0].diagonal().real))
        i, k = [j for j in range(dim) if j != pivot][:2] if dim > 2 else (1 - pivot,) * 2
        calls = count_eigh(monkeypatch)
        povms = []
        for scale in (0.9, 1.1):
            bumped = [e.copy() for e in effects]
            bump = scale * bound * (np.exp(0.3j) if i != k else 1.0)
            bumped[0][i, k] += bump
            if i != k:
                bumped[0][k, i] += np.conj(bump)
            assert rank_one_bound(bumped) == bound
            povms.append(Povm.from_effects(bumped))
        below, above = povms
        assert below.rows.shape == (dim, 1, dim) and above.rows.shape == (dim, dim, dim)
        assert len(calls) == 1
        assert_allclose(povm_effects(below), povm_effects(above), rtol=0.0, atol=1e-12)
        for povm in povms:
            assert_matches_dense_oracle(povm, effects, sd)

    @pytest.mark.parametrize("bumped", [0, 3, 4, 9])
    def test_every_effect_is_held_to_the_bound(self, bumped, monkeypatch):
        # The residual is checked a few effects at a time: a bump of 10 b on any one
        # of ten effects, in the first, a middle or the last, partial group, takes eigh.
        rng = np.random.default_rng(10)
        effects = [np.outer(col, col.conj()) for col in haar_basis(rng, 10).T]
        pivot = int(np.argmax(effects[bumped].diagonal().real))
        i, k = [j for j in range(10) if j != pivot][:2]
        bump = 10 * rank_one_bound(effects) * np.exp(0.3j)
        effects[bumped][i, k] += bump
        effects[bumped][k, i] += np.conj(bump)
        calls = count_eigh(monkeypatch)
        assert Povm.from_effects(np.array(effects)).rows.shape == (10, 10, 10)
        assert calls == [(10, 10, 10)]

    @pytest.mark.parametrize("case", ["rank-one", "rank-two"])
    def test_every_input_form_gives_the_same_rows(self, case):
        # Real effects, so that a real array holds them exactly: the projectors of
        # a real basis, or a rank-2 sum of two of them with the rest, which takes eigh.
        basis, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((9, 9)))
        effects = np.einsum("ik,jk->kij", basis, basis)
        if case == "rank-two":
            effects = np.concatenate([effects[:2].sum(0, keepdims=True), effects[2:]])
        forms = [list(effects), tuple(effects), effects, effects.astype(complex)]
        rows = [Povm.from_effects(form).rows for form in forms]
        assert rows[0].shape == ((9, 1, 9) if case == "rank-one" else (8, 9, 9))
        assert [(r.shape, r.tobytes()) for r in rows] == [(rows[0].shape, rows[0].tobytes())] * 4

    @pytest.mark.parametrize("dim, rank", [(75, 1), (76, 76)])
    def test_psd_margin_caps_the_rank_one_path(self, dim, rank):
        # With pivots of 1, d b = 8 d^2 eps passes 1e-11 between d = 75 and 76.
        effects = [np.diag(row) for row in np.eye(dim)]
        assert (dim * rank_one_bound(effects) <= 1e-11) == (rank == 1)
        assert Povm.from_effects(effects).rows.shape == (dim, rank, dim)

    @pytest.mark.parametrize(
        "effect, lowest",
        [
            (-np.diag([1.0, 0.0]), "-1.000e+00"),
            (np.array([[1e-300, 1e10], [1e10, 1e-300]]), "-1.000e+10"),
        ],
        ids=["negative-rank-1", "overflowing-factor"],
    )
    def test_effect_that_is_not_psd_is_refused(self, effect, lowest):
        # The second one's closed-form factor overflows: quietly, and it takes eigh.
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(f"effect has negative eigenvalue {lowest}")):
            Povm.from_effects((effect, p0 - effect, p1))


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
        povm = q_family_measurement(sld(sd), 0.3)
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

    @pytest.mark.parametrize(
        "probs, dprobs", [([0.5, 0.5], [0.0]), ([[0.5, 0.5]], [0.0, 0.0]), (1.0, 0.0)]
    )
    def test_rejects_unequal_or_scalar_shapes(self, probs, dprobs):
        with pytest.raises(DimMismatchError, match="equal shape"):
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

    def test_an_empty_stack_is_valid(self):
        dist = OutcomeDistribution(probs=np.zeros((0, 3)), dprobs=np.zeros((0, 3)))
        assert dist.probs.shape == (0, 3) and shannon_entropy(dist).shape == (0,)

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
                povm = q_family_measurement(sldd, q)
                assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)

    def test_q_grid_optimality_across_dims(self, rng):
        for dim in (2, 3, 4):
            sd = derivative(random_family(dim, rng), -0.6)
            sldd = sld(sd)
            for q in np.linspace(0.0, 1.0, 21):
                povm = q_family_measurement(sldd, q)
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


class TestExactReferee:
    """``classical_fisher`` against the exact Fisher sum of its own float rows, state and tangent.

    Measured relative errors on the paper qubit at lambda = 0.7: 0.73 eps for
    the SLD rows and 0.38, 0.21 and 2.0 eps for q = 0.5, 1e-2 and 1e-6, where
    the outcome with p ~ 1 - q takes dp from a cancelling sum (86 eps off);
    the bound is 4 eps.
    """

    LAM = 0.7

    @pytest.mark.parametrize("q", [None, 0.5, 1e-2, 1e-6], ids=["sld", "q=0.5", "q=1e-2", "q=1e-6"])
    def test_paper_qubit_fisher_within_four_eps_of_exact(self, q):
        sd = derivative(paper_qubit_family(), self.LAM)
        sldd = sld(sd)
        povm = sld_measurement(sldd) if q is None else q_family_measurement(sldd, q)
        exact = referee.fisher(povm.rows, sd.state, sd.tangent)
        error = abs(Fraction(classical_fisher(povm, sd)) - exact)
        assert error <= 4 * Fraction(np.finfo(float).eps) * exact

    def test_exact_terms_and_the_limit_of_a_vanishing_outcome(self):
        # Dyadic entries: outcome 0 has p = dp = limit = 1/4; outcome 1
        # annihilates the state, so p = dp = 0 and F takes its limit 4 |t_1|^2 = 1.
        rows = np.eye(2)[:, None, :]
        state, tangent = np.array([0.5, 0.0]), np.array([0.25, -0.5j])
        quarter = Fraction(1, 4)
        assert referee.born_terms(rows, state, tangent) == [(quarter,) * 3, (0, 0, 1)]
        assert referee.fisher(rows, state, tangent) == Fraction(5, 4)


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
        # The lumped "rest" outcome projects onto the SLD's null space.
        rest = povm_effects(povm)[2]
        assert_allclose(rest @ rest, rest, atol=1e-12)
        assert np.trace(rest).real == pytest.approx(1.0, abs=1e-12)
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
            total = povm_effects(povm).sum(0)
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-9


class TestQFamilyMeasurement:
    def test_half_mixing_recovers_sld_basis(self, rng):
        sd = derivative(random_family(3, rng), 0.2)
        sldd = sld(sd)
        q_povm = q_family_measurement(sldd, 0.5)
        sld_povm = sld_measurement(sldd)
        assert_allclose(povm_effects(q_povm), povm_effects(sld_povm), atol=1e-12)

    def test_zero_mixing_is_deterministic_yet_optimal(self, rng):
        sd = derivative(random_family(3, rng), 0.6)
        povm = q_family_measurement(sld(sd), 0.0)
        dist = outcome_distribution(povm, sd)
        assert_allclose(dist.probs, [0.0, 1.0, 0.0], atol=1e-12)
        assert shannon_entropy(dist) == pytest.approx(0.0, abs=1e-9)
        assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)

    def test_partial_mixing_entropy(self, rng):
        sd = derivative(random_family(2, rng), 0.6)
        povm = q_family_measurement(sld(sd), 0.3)
        dist = outcome_distribution(povm, sd)
        assert shannon_entropy(dist) == pytest.approx(BINARY_ENTROPY_03, abs=1e-9)
        assert classical_fisher(povm, sd) == pytest.approx(qfi(sd), abs=1e-9)

    def test_rejects_q_outside_unit_interval(self, rng):
        sd = derivative(random_family(2, rng), 0.0)
        sldd = sld(sd)
        for q in (-0.1, 1.1, 2.0):
            with pytest.raises(InvalidQError):
                q_family_measurement(sldd, q)


class TestRotatedQubitMeasurement:
    def test_zero_angle_is_sigma_x_basis(self):
        povm = rotated_qubit_measurement(0.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert_allclose(povm_effects(povm)[0], np.outer(plus, plus.conj()), atol=1e-14)

    def test_quarter_turn_is_sigma_y_basis(self):
        povm = rotated_qubit_measurement(np.pi / 2.0)
        plus = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert_allclose(povm_effects(povm)[0], np.outer(plus, plus.conj()), atol=1e-14)

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
                q_family_measurement(sldd, 0.37),
            ):
                dist = outcome_distribution(povm, sd)
                for eff, dp in zip(povm_effects(povm), dist.dprobs):
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
            report = audit(family, 0.3, q_family_measurement(sldd, bias))
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


def reduced_born_terms(rows, state, tangent):
    """``_born_terms`` with its re/im x rank sums as NumPy reductions, as it was written before."""
    amps = (rows @ state).view(float)
    damps = (rows @ tangent).view(float)
    return (amps * amps).sum(-1), 2.0 * (damps * amps).sum(-1), 4.0 * (damps * damps).sum(-1)


def reduced_fisher_sum(probs, dprobs, limits):
    """``_fisher_sum`` with its outcome sum as a NumPy reduction."""
    regular = probs > EPS_PROB
    return np.where(regular, dprobs**2 / np.maximum(probs, EPS_PROB), limits).sum(-1)


def reduced_entropy(probs):
    """``shannon_entropy`` of a probability stack with its outcome sum as a NumPy reduction."""
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return -(probs * logs).sum(-1)


def short_sum_case(kind: str):
    """Amplitude rows, state and tangent of one measurement path, and outcome terms ``(..., K)``.

    ``plane``: the q family's ``(G, 2, 1, 2)`` coefficient rows at d = 8 (r = 1), with the
    plane's ``(G, 3)`` terms; ``complement``: the d = 8 complement (r = 8), with the SLD
    measurement's 3 outcomes; ``explicit``: 33 full-rank effects at d = 32 (r = 32).
    """
    rng = np.random.default_rng({"plane": 1, "complement": 2, "explicit": 3}[kind])
    sd = derivative(random_family(32 if kind == "explicit" else 8, rng), 0.3)
    if kind == "explicit":
        rows = Povm.from_effects(random_effects(33, 32, rng)).rows
        return rows, sd.state, sd.tangent, reduced_born_terms(rows, sd.state, sd.tangent)
    basis = _q_basis(sld(sd))
    if kind == "complement":
        terms = reduced_born_terms(sld_measurement(sld(sd)).rows, sd.state, sd.tangent)
        return _complement(basis)[None], sd.state, sd.tangent, terms
    grid = np.concatenate([[0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12], rng.random(300)])
    coeffs = _q_coeffs(grid)
    terms = _plane_terms(sd, coeffs, basis)
    return coeffs[:, :, None, :], basis @ sd.state, basis @ sd.tangent, terms


SHORT_SUM_KINDS = ["plane", "complement", "explicit"]


def assert_reduction_bits(got, want):
    """``got`` has the bits of the reduction ``want``, but may hold -0.0 where it has +0.0.

    The reduction starts from +0.0 and so never returns -0.0. Adding +0.0
    turns -0.0 into +0.0 and leaves every other value, NaNs included, as it is.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.asarray(got + 0.0).tobytes() == want.tobytes()


class TestShortSum:
    """The shared short-axis sum and its callers against the NumPy reductions they replaced.

    NumPy adds fewer than 8 float64s (4 complex128s) one at a time onto +0.0,
    so ``_short_sum`` matches ``.sum(-1)`` bit for bit at every length,
    infinities, NaNs and subnormals included, except that a row of -0.0
    alone sums to -0.0 where the reduction gives +0.0.
    """

    SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
    SPECIALS += [2.2250738585072014e-308, -1.0]

    @staticmethod
    def stacks(rng, length, specials, dtype=float):
        """Random stacks with a last axis of ``length``, in several leading shapes and layouts."""
        width = 2 if dtype is complex else 1
        for lead in [(), (1,), (4, 3), (300,)]:
            shape = lead + (length, width)
            parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            yield parts.view(dtype)[..., 0]
            special = rng.random(shape) < 0.5
            parts[special] = rng.choice(specials, special.sum())
            yield parts.view(dtype)[..., 0]
        values = parts.view(dtype)[..., 0]
        yield np.asfortranarray(values)  # a strided last axis
        yield np.repeat(values, 2, axis=-1)[..., ::2]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("length", range(17))
    def test_sums_match_the_reduction_bit_for_bit(self, length, dtype):
        specials = self.SPECIALS
        if dtype is complex:
            # Two NaNs of opposite sign added in a complex sum may keep either sign.
            specials = [value for value in specials if value == value] + [np.nan]
        rng = np.random.default_rng(length)
        for values in self.stacks(rng, length, specials, dtype):
            with np.errstate(invalid="ignore"):
                assert_reduction_bits(_short_sum(values), values.sum(-1))

    @pytest.mark.parametrize("kind", SHORT_SUM_KINDS)
    def test_born_terms_match_their_reduction_form(self, kind):
        rows, state, tangent, _ = short_sum_case(kind)
        terms = _born_terms(rows, state, tangent)
        for got, want in zip(terms, reduced_born_terms(rows, state, tangent)):
            assert_reduction_bits(got, want)

    @pytest.mark.parametrize("kind", SHORT_SUM_KINDS)
    def test_fisher_sum_and_entropy_match_their_reduction_forms(self, kind):
        probs, dprobs, limits = short_sum_case(kind)[3]
        want = reduced_fisher_sum(probs, dprobs, limits)
        assert_reduction_bits(_fisher_sum(probs, dprobs, limits), want)
        # The sums themselves, before the entropy's sign flip.
        probs = np.minimum(probs, 1.0)
        assert_reduction_bits(-shannon_entropy(probs), -reduced_entropy(probs))

    @pytest.mark.parametrize("kind", SHORT_SUM_KINDS)
    @pytest.mark.parametrize("field", ["probs", "dprobs"])
    def test_distribution_checks_match_their_reduction_forms(self, kind, field):
        probs, dprobs, _ = short_sum_case(kind)[3]
        values = {"probs": np.minimum(probs, 1.0), "dprobs": dprobs}
        target = 1.0 if field == "probs" else 0.0
        # Shift the last outcome of every row so that the worst row's sum
        # straddles the 1e-9 band edge in steps of one ulp of 1.
        base = np.max(values[field].sum(-1) - target)
        verdicts = set()
        for step in range(-8, 9):
            shifted = values[field].copy()
            shifted[..., -1] += 1e-9 - base + step * np.finfo(float).eps
            deviation = abs(shifted.sum(-1) - target).max()
            fields = dict(values, **{field: shifted})
            verdicts.add(bool(deviation <= 1e-9))
            if deviation <= 1e-9:
                OutcomeDistribution(**fields)
            else:
                with pytest.raises(ValueError, match=f"within {deviation:.3e}"):
                    OutcomeDistribution(**fields)
        assert verdicts == {False, True}
