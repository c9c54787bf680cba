import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import paper_qubit_family, random_family
from fisherlab import (
    StateAndDerivative,
    StateFamily,
    derivative,
    evaluate,
    finite_difference_derivative,
)
from fisherlab.errors import DimMismatchError, InvalidStepError, NonHermitianError
from test_numerics import taylor_expm


class TestConstruction:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            StateFamily(generator=np.eye(2), input_state=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_input_state(self, bad):
        with pytest.raises(ValueError):
            StateFamily(generator=np.eye(2), input_state=np.array([bad, 0.0]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            StateFamily(generator=np.eye(3), input_state=np.array([1.0, 0.0]))

    def test_checks_and_decomposes_the_generator_once(self, monkeypatch, rng):
        import fisherlab.numerics as numerics
        import fisherlab.state_family as state_family

        calls = []
        check, eigh = numerics.require_hermitian, np.linalg.eigh
        counted = lambda m: calls.append("check") or check(m)  # noqa: E731
        for module in (numerics, state_family):
            monkeypatch.setattr(module, "require_hermitian", counted, raising=False)
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append("eigh") or eigh(m))
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        StateFamily(generator=np.diag([0.0, 1.0, 2.0, 3.0]), input_state=state)
        assert calls == ["check", "eigh"]

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(NonHermitianError):
            StateFamily(
                generator=np.array([[0.0, 1.0], [0.0, 0.0]]),
                input_state=np.array([1.0, 0.0]),
            )


class TestEvaluate:
    def test_qubit_phase_family(self):
        family = paper_qubit_family()
        for lam in (0.0, 0.7, -2.3, np.pi):
            expected = np.array([np.exp(-0.5j * lam), np.exp(0.5j * lam)]) / np.sqrt(2.0)
            assert_allclose(evaluate(family, lam), expected, atol=1e-12)

    def test_zero_parameter_returns_input(self, rng):
        family = random_family(4, rng)
        assert_allclose(evaluate(family, 0.0), family.input_state, atol=1e-14)

    def test_diagonal_generator_on_basis_vector(self):
        family = StateFamily(
            generator=np.diag([1.0, 2.0, 3.0]),
            input_state=np.array([0.0, 0.0, 1.0]),
        )
        oracle = taylor_expm(-1j * np.pi * np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert_allclose(evaluate(family, np.pi), oracle @ family.input_state, atol=1e-12)
        assert_allclose(evaluate(family, np.pi), np.array([0.0, 0.0, np.exp(-3j * np.pi)]), atol=1e-12)

    def test_matches_taylor_series_exponential(self, rng):
        family = random_family(5, rng)
        u = taylor_expm(-1.3j * family.generator)
        assert_allclose(evaluate(family, 1.3), u @ family.input_state, atol=1e-12)

    def test_stays_normalized(self, rng):
        family = random_family(6, rng)
        for lam in np.linspace(-4.0, 4.0, 9):
            assert abs(np.linalg.norm(evaluate(family, lam)) - 1.0) <= 1e-10


class TestDerivative:
    def test_qubit_analytic_form(self):
        family = paper_qubit_family()
        sd = derivative(family, 1.1)
        assert_allclose(sd.dstate, -1j * (family.generator @ sd.state), atol=1e-14)
        assert np.vdot(sd.dstate, sd.dstate).real == pytest.approx(0.25, abs=1e-12)

    def test_matches_finite_difference(self, rng):
        family = paper_qubit_family()
        fd = finite_difference_derivative(family, 1.1, step=1e-6)
        assert np.linalg.norm(derivative(family, 1.1).dstate - fd) <= 1e-9
        for dim in (2, 3, 8):
            fam = random_family(dim, rng)
            fd = finite_difference_derivative(fam, 0.4, step=1e-6)
            assert np.linalg.norm(derivative(fam, 0.4).dstate - fd) <= 1e-9

    def test_zero_generator_is_stationary(self):
        family = StateFamily(generator=np.zeros((2, 2)), input_state=np.array([1.0, 0.0]))
        sd = derivative(family, 0.9)
        assert_allclose(sd.dstate, 0.0, atol=1e-15)

    def test_eigenvector_input_gives_phase_only_motion(self):
        family = StateFamily(generator=np.diag([2.0, -1.0]), input_state=np.array([0.0, 1.0]))
        sd = derivative(family, 0.3)
        assert_allclose(sd.dstate, -1j * (-1.0) * sd.state, atol=1e-12)

    def test_nan_parameter_fails_closed(self):
        with pytest.raises(ValueError):
            derivative(paper_qubit_family(), np.nan)

    def test_overlap_is_purely_imaginary(self, rng):
        for dim in (2, 5):
            sd = derivative(random_family(dim, rng), 0.8)
            assert abs(np.vdot(sd.state, sd.dstate).real) <= 1e-9


class TestStateAndDerivative:
    @pytest.mark.parametrize("offset", [1e8, 1e10])
    def test_large_generator_offsets_are_accepted(self, offset):
        # |+> under diag(c, c + 1): Re<psi|dpsi> rounds to ~c * 4e-17, once
        # over the old absolute band of 1e-9.
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        family = StateFamily(generator=np.diag([offset, offset + 1.0]), input_state=plus)
        sd = derivative(family, 0.7)
        assert abs(np.vdot(sd.state, sd.dstate).real) <= 1e-15 * np.linalg.norm(sd.dstate)

    @pytest.mark.parametrize(
        "size, real, accepted",
        [
            (1e6, 0.999e-3, True),
            (1e6, -0.999e-3, True),
            (1e6, 1.001e-3, False),
            (1e6, -1.001e-3, False),
            (0.5, 0.999e-9, True),
            (0.5, 1.001e-9, False),
        ],
    )
    def test_overlap_band_edge(self, size, real, accepted):
        # ||dstate|| = size to the last bit; the band is 1e-9 * max(1, size).
        state, dstate = np.array([1.0, 0.0]), np.array([real, 1j * size])
        if accepted:
            StateAndDerivative(state=state, dstate=dstate, lam=0.0)
        else:
            with pytest.raises(ValueError, match=r"Re<state\|dstate>"):
                StateAndDerivative(state=state, dstate=dstate, lam=0.0)

    @pytest.mark.parametrize("dstate", [[math.inf, 1j], [math.nan, 1j], [1.7e308, 1.7e308]])
    def test_non_finite_or_overflowing_dstate_is_rejected(self, dstate):
        # The last overlap overflows to inf, and so does the band it is held to.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"Re<state\|dstate>"):
            StateAndDerivative(state=np.array([0.6, 0.8]), dstate=np.array(dstate), lam=0.0)


class TestFiniteDifference:
    def test_rejects_bad_steps(self):
        family = paper_qubit_family()
        for step in (0.0, -1e-3, 1e-13):
            with pytest.raises(InvalidStepError):
                finite_difference_derivative(family, 0.0, step=step)

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_steps(self, step):
        with pytest.raises(InvalidStepError):
            finite_difference_derivative(paper_qubit_family(), 0.0, step=step)

    def test_zero_generator_gives_exact_zero(self):
        family = StateFamily(generator=np.zeros((2, 2)), input_state=np.array([1.0, 0.0]))
        assert_allclose(finite_difference_derivative(family, 0.5, 1e-3), 0.0, atol=1e-16)

    def test_quadratic_convergence(self):
        family = paper_qubit_family()
        exact = derivative(family, 0.9).dstate
        err = {
            step: np.linalg.norm(finite_difference_derivative(family, 0.9, step) - exact)
            for step in (1e-2, 1e-3)
        }
        ratio = err[1e-2] / err[1e-3]
        assert 80.0 <= ratio <= 120.0


class TestGeneratorReadback:
    def test_qubit_generator(self):
        family = paper_qubit_family()
        assert_allclose(family.generator, np.diag([0.5, -0.5]), atol=1e-15)

    def test_zero_generator(self):
        family = StateFamily(generator=np.zeros((3, 3)), input_state=np.array([1.0, 0.0, 0.0]))
        assert_allclose(family.generator, np.zeros((3, 3)), atol=1e-15)

    def test_matches_unitary_finite_difference(self):
        # i U(lam)^dag dU/dlam recovered from a central difference of the unitary
        gen = np.diag([1.0, -1.0, 0.0]).astype(complex)
        family = StateFamily(generator=gen, input_state=np.ones(3) / np.sqrt(3.0))
        lam, step = 0.6, 1e-5
        du = (taylor_expm(-1j * (lam + step) * gen) - taylor_expm(-1j * (lam - step) * gen)) / (
            2.0 * step
        )
        recovered = 1j * taylor_expm(-1j * lam * gen).conj().T @ du
        assert_allclose(recovered, family.generator, atol=1e-8)


class TestGlobalPhaseCovariance:
    def test_phase_multiplies_state_and_derivative(self, rng):
        base = random_family(3, rng)
        alpha = 0.77
        rotated = StateFamily(
            generator=base.generator,
            input_state=np.exp(1j * alpha) * base.input_state,
        )
        sd0 = derivative(base, 1.2)
        sd1 = derivative(rotated, 1.2)
        assert_allclose(sd1.state, np.exp(1j * alpha) * sd0.state, atol=1e-12)
        assert_allclose(sd1.dstate, np.exp(1j * alpha) * sd0.dstate, atol=1e-12)

    def test_downstream_scalars_unchanged(self, rng):
        from fisherlab import classical_fisher, outcome_distribution, qfi, shannon_entropy, sld
        from fisherlab import sld_measurement

        base = random_family(3, rng)
        rotated = StateFamily(
            generator=base.generator,
            input_state=np.exp(0.31j) * base.input_state,
        )
        sd0 = derivative(base, 0.5)
        sd1 = derivative(rotated, 0.5)
        assert qfi(sd1) == pytest.approx(qfi(sd0), abs=1e-12)
        povm = sld_measurement(sld(sd0))
        assert classical_fisher(povm, sd1) == pytest.approx(classical_fisher(povm, sd0), abs=1e-10)
        assert shannon_entropy(outcome_distribution(povm, sd1)) == pytest.approx(
            shannon_entropy(outcome_distribution(povm, sd0)), abs=1e-10
        )
