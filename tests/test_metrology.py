import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import optimal_input, paper_qubit_family, random_family, random_state
from fisherlab import StateFamily, derivative, hermitian_eig, qfi, qfi_report, seminorm_bound, sld
from fisherlab.errors import DegenerateGeneratorError, StationaryStateError


def variance_qfi(family: StateFamily, lam: float) -> float:
    """Independent oracle: F_Q = 4 (<H^2> - <H>^2) for unitary phase families."""
    from fisherlab import evaluate

    state = evaluate(family, lam)
    gen = family.generator
    mean = np.vdot(state, gen @ state).real
    mean_sq = np.vdot(state, gen @ (gen @ state)).real
    return 4.0 * (mean_sq - mean**2)


class TestQfi:
    def test_paper_qubit_family_is_one(self):
        assert qfi(derivative(paper_qubit_family(), 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_stationary_state_is_zero(self):
        family = StateFamily(generator=np.zeros((2, 2)), input_state=np.array([1.0, 0.0]))
        assert qfi(derivative(family, 0.0)) == 0.0

    def test_tilted_input_matches_variance_formula(self):
        theta = np.pi / 8.0
        family = StateFamily(
            generator=np.diag([0.5, -0.5]),
            input_state=np.array([np.cos(theta), np.sin(theta)]),
        )
        # 4 Var(sigma_z/2) = sin^2(2 theta) = 1/2 at theta = pi/8
        assert qfi(derivative(family, 0.3)) == pytest.approx(0.5, abs=1e-12)
        assert qfi(derivative(family, 0.3)) == pytest.approx(variance_qfi(family, 0.3), abs=1e-12)

    def test_lambda_independent_for_phase_families(self, rng):
        family = random_family(5, rng)
        values = [qfi(derivative(family, lam)) for lam in np.linspace(-3.0, 3.0, 7)]
        assert np.ptp(values) <= 1e-9

    def test_matches_variance_oracle_on_random_families(self, rng):
        for dim in (2, 3, 6):
            family = random_family(dim, rng)
            assert qfi(derivative(family, 0.2)) == pytest.approx(
                variance_qfi(family, 0.2), abs=1e-11
            )



def offset_qubit_family(offset: float, gap: float) -> StateFamily:
    """``|+>`` under ``diag(offset, offset + gap)``: F_Q is the squared gap at every lam."""
    generator = np.diag([offset, offset + gap])
    return StateFamily(generator=generator, input_state=np.array([1.0, 1.0]) / np.sqrt(2.0))


# (offset, gap) pairs with offset/gap from 1e5 to 1e6.
OFFSET_GAPS = [(100.0, 0.001), (1000.0, 0.001), (1e4, 0.01), (3.0, 3e-6), (1e6, 1.0)]


class TestOffsetGenerator:
    """A generator ``c I + h`` moves the state only through ``h``.

    ``4<dpsi|dpsi> - 4|<dpsi|psi>|^2`` cancels two terms of size ~c^2 and
    loses ~(c/gap)^2 eps; the projected tangent keeps ~(c/gap) eps.
    """

    @pytest.mark.parametrize("offset, gap", OFFSET_GAPS)
    def test_qfi_keeps_the_precision_of_the_gap(self, offset, gap):
        family = offset_qubit_family(offset, gap)
        squared_gap = float((family.generator[1, 1] - family.generator[0, 0]).real) ** 2
        for lam in np.linspace(-3.0, 3.0, 13):
            relative = abs(qfi(derivative(family, lam)) / squared_gap - 1.0)
            assert relative <= 1e-15 * offset / gap

    @pytest.mark.parametrize("offset, gap", OFFSET_GAPS)
    def test_sld_tangent_is_orthogonal_and_sets_the_qfi(self, offset, gap):
        sd = derivative(offset_qubit_family(offset, gap), 0.7)
        sldd = sld(sd)
        assert abs(np.vdot(sd.state, sldd.tangent)) <= 1e-15
        assert qfi(sd) == pytest.approx(4.0 / sldd.normalization**2, rel=1e-15)


class TestSld:
    def test_qubit_normalization_and_eigenvalues(self):
        sldd = sld(derivative(paper_qubit_family(), 0.0))
        assert sldd.normalization == pytest.approx(2.0, abs=1e-12)
        assert sldd.eigenvalue_plus == pytest.approx(1.0, abs=1e-12)
        assert sldd.eigenvalue_minus == pytest.approx(-1.0, abs=1e-12)

    def test_qubit_eigenpairs_against_dense_solver(self):
        sd = derivative(paper_qubit_family(), 0.0)
        sldd = sld(sd)
        assembled = 2.0 * np.outer(sd.state, sd.dstate.conj()) + 2.0 * np.outer(
            sd.dstate, sd.state.conj()
        )
        assert_allclose(sldd.sld, assembled, atol=1e-14)
        dec = hermitian_eig(assembled)
        assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-10)
        for vec, val in ((sldd.minus_state, -1.0), (sldd.plus_state, 1.0)):
            assert np.linalg.norm(assembled @ vec - val * vec) <= 1e-10

    def test_stationary_state_raises(self):
        family = StateFamily(generator=np.zeros((2, 2)), input_state=np.array([1.0, 0.0]))
        with pytest.raises(StationaryStateError):
            sld(derivative(family, 0.0))

    def test_second_moment_identity(self, rng):
        # <psi| L^2 |psi> equals the QFI
        for dim in (2, 4, 7):
            sd = derivative(random_family(dim, rng), 0.5)
            sldd = sld(sd)
            second = np.vdot(sd.state, sldd.sld @ (sldd.sld @ sd.state)).real
            assert second == pytest.approx(qfi(sd), abs=1e-9)

    def test_invariants_on_random_families(self, rng):
        for dim in (2, 3, 8):
            sd = derivative(random_family(dim, rng), -0.4)
            sldd = sld(sd)
            assert abs(np.vdot(sd.state, sldd.tangent)) <= 1e-9
            assert abs(np.linalg.norm(sldd.tangent) - 1.0) <= 1e-9
            assert abs(np.vdot(sd.state, sldd.sld @ sd.state)) <= 1e-9
            for vec, val in ((sldd.plus_state, sldd.eigenvalue_plus),
                             (sldd.minus_state, sldd.eigenvalue_minus)):
                assert np.linalg.norm(sldd.sld @ vec - val * vec) <= 1e-8

    def test_rank_two_support(self, rng):
        for dim in (3, 5, 8):
            sd = derivative(random_family(dim, rng), 0.1)
            sldd = sld(sd)
            eigenvalues = np.sort(np.linalg.eigvalsh(sldd.sld))
            top = 2.0 / sldd.normalization
            assert eigenvalues[0] == pytest.approx(-top, abs=1e-8)
            assert eigenvalues[-1] == pytest.approx(top, abs=1e-8)
            assert np.max(np.abs(eigenvalues[1:-1])) <= 1e-8

    def test_qfi_equals_four_over_n_squared(self, rng):
        for dim in (2, 3, 6, 8):
            sd = derivative(random_family(dim, rng), 0.9)
            sldd = sld(sd)
            assert qfi(sd) == pytest.approx(4.0 / sldd.normalization**2, abs=1e-9)

    def test_state_overlaps_with_eigenstates_are_half(self, rng):
        for dim in (2, 4):
            sd = derivative(random_family(dim, rng), 1.3)
            sldd = sld(sd)
            assert abs(np.vdot(sd.state, sldd.plus_state)) ** 2 == pytest.approx(0.5, abs=1e-9)
            assert abs(np.vdot(sd.state, sldd.minus_state)) ** 2 == pytest.approx(0.5, abs=1e-9)


class TestSeminormBound:
    def test_half_sigma_z(self):
        assert seminorm_bound(paper_qubit_family()) == pytest.approx(1.0, abs=1e-12)

    def test_identity_generator(self):
        family = StateFamily(generator=np.eye(2), input_state=np.array([1.0, 0.0]))
        assert seminorm_bound(family) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_generator(self):
        family = StateFamily(
            generator=np.diag([3.0, 1.0, 0.0]),
            input_state=np.array([1.0, 0.0, 0.0]),
        )
        assert seminorm_bound(family) == pytest.approx(9.0, abs=1e-12)

    def test_bounds_qfi_over_random_inputs(self, rng):
        for dim in (2, 4, 8):
            family = random_family(dim, rng)
            bound = seminorm_bound(family)
            for _ in range(200):
                trial = StateFamily(
                    generator=family.generator, input_state=random_state(dim, rng)
                )
                assert qfi(derivative(trial, 0.0)) <= bound + 1e-9


class TestOptimalInputState:
    def test_qubit_equal_superposition(self):
        best = optimal_input(paper_qubit_family().generator)
        assert_allclose(np.abs(best), np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)
        family = StateFamily(generator=np.diag([0.5, -0.5]), input_state=best)
        assert qfi(derivative(family, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_generator_attains_bound(self):
        gen = np.diag([3.0, 1.0, 0.0])
        best = optimal_input(gen)
        expected = (np.array([1.0, 0.0, 0.0]) + np.array([0.0, 0.0, 1.0])) / np.sqrt(2.0)
        assert_allclose(np.abs(best), np.abs(expected), atol=1e-12)
        tuned = StateFamily(generator=gen, input_state=best)
        assert qfi(derivative(tuned, 0.4)) == pytest.approx(9.0, abs=1e-9)
        assert qfi(derivative(tuned, 0.4)) == pytest.approx(variance_qfi(tuned, 0.4), abs=1e-9)

    def test_attains_bound_on_random_generators(self, rng):
        for dim in (2, 5):
            family = random_family(dim, rng)
            best = optimal_input(family.generator)
            tuned = StateFamily(generator=family.generator, input_state=best)
            assert qfi(derivative(tuned, 0.0)) == pytest.approx(
                seminorm_bound(family), abs=1e-9
            )


class TestQfiReport:
    def test_paper_family_ratio_is_one(self):
        family = paper_qubit_family()
        report = qfi_report(family, derivative(family, 0.7))
        assert report.qfi == pytest.approx(1.0, abs=1e-12)
        assert report.seminorm_sq == pytest.approx(1.0, abs=1e-12)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratio_in_unit_interval(self, rng):
        for dim in (2, 3, 6):
            family = random_family(dim, rng)
            report = qfi_report(family, derivative(family, 0.2))
            assert -1e-12 <= report.ratio <= 1.0 + 1e-9
            assert report.qfi <= report.seminorm_sq + 1e-9

    def test_degenerate_generator_raises(self):
        family = StateFamily(generator=np.eye(3), input_state=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateGeneratorError, match=r"constant \(\|\|h\|\|\^2 = 0\)"):
            qfi_report(family, derivative(family, 0.0))
