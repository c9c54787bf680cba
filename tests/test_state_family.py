import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import SIGMA_X, central_difference, paper_qubit_family, random_family
from fisherlab import (
    StateAndDerivative,
    StateFamily,
    audit,
    crb_experiment,
    derivative,
    evaluate,
    q_family_measurement,
    rotated_qubit_measurement,
    sample_outcomes,
    sld,
    sweep_phi,
    sweep_q,
)
from fisherlab.errors import DimMismatchError, NonHermitianError
from fisherlab.state_family import _grid, _real, _shown
from test_numerics import taylor_expm


class TestConstruction:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            StateFamily(generator=np.eye(2), input_state=np.array([1.0, 1.0]))

    def test_unnormalized_state_shows_its_norm_as_a_python_float(self):
        psi = np.array([1.0007, 0.0])
        with pytest.raises(ValueError) as caught:
            StateFamily(generator=np.eye(2), input_state=psi)
        norm = float(np.linalg.norm(psi.astype(complex)))
        assert str(caught.value) == f"input state is not normalized: ||psi|| = {norm!r}"

    @pytest.mark.parametrize("offset, accepted", [(0.9e-10, True), (1.1e-10, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_norm_band_edge(self, offset, accepted, sign):
        # ||psi|| = 1 + sign * offset to within an ulp, against the band _NORM_TOL = 1e-10.
        psi = np.array([1.0 + sign * offset, 0.0])
        if accepted:
            StateFamily(generator=SIGMA_X, input_state=psi)
            StateAndDerivative(state=psi, dstate=np.array([0.0, 1j]))
        else:
            with pytest.raises(ValueError, match="input state is not normalized"):
                StateFamily(generator=SIGMA_X, input_state=psi)
            with pytest.raises(ValueError, match="^state is not normalized"):
                StateAndDerivative(state=psi, dstate=np.array([0.0, 1j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_input_state(self, bad):
        with pytest.raises(ValueError):
            StateFamily(generator=np.eye(2), input_state=np.array([bad, 0.0]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            StateFamily(generator=np.eye(3), input_state=np.array([1.0, 0.0]))

    @staticmethod
    def construction_calls(generator, monkeypatch, rng) -> list:
        """Hermiticity checks and ``eigh`` calls, in order, of one family's construction."""
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
        StateFamily(generator=generator, input_state=state)
        return calls

    def test_checks_and_decomposes_the_generator_once(self, monkeypatch, rng):
        generator = np.diag([0.0, 1.0, 2.0, 3.0]) + 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
        assert self.construction_calls(generator, monkeypatch, rng) == ["check", "eigh"]

    def test_sorts_a_diagonal_generator_after_one_check(self, monkeypatch, rng):
        generator = np.diag([0.0, 1.0, 2.0, 3.0])
        assert self.construction_calls(generator, monkeypatch, rng) == ["check"]

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
        fd = central_difference(family, 1.1, 1e-6)
        assert np.linalg.norm(derivative(family, 1.1).dstate - fd) <= 1e-9
        for dim in (2, 3, 8):
            fam = random_family(dim, rng)
            fd = central_difference(fam, 0.4, 1e-6)
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


# Values that the rule for a real parameter refuses, with the error and message it gives.
BAD_REALS = [
    (True, TypeError, "must be a real number, got True"),
    (np.True_, TypeError, "must be a real number, got np.True_"),
    ("0.7", TypeError, "must be a real number, got '0.7'"),
    (math.nan, ValueError, "must be finite, got nan"),
    (math.inf, ValueError, "must be finite, got inf"),
    (-math.inf, ValueError, "must be finite, got -inf"),
    (10**400, ValueError, "must be finite, got an integer of 401 digits"),
    # str() of an integer past 4,300 digits raises a ValueError of its own.
    (-(10**5000), ValueError, "must be finite, got a negative integer of 5001 digits"),
    # NumPy floats show as the Python floats they hold, not as np.float64(nan).
    (np.float64(math.nan), ValueError, "must be finite, got nan"),
    (np.float32(math.inf), ValueError, "must be finite, got inf"),
    # Long values show in short: the full repr is 100,002 characters.
    ("7" * 10**5, TypeError, "must be a real number, got '777777777777...7777777777777'"),
]
BAD_REAL_IDS = [
    "true",
    "np-true",
    "string",
    "nan",
    "inf",
    "minus-inf",
    "int-past-double",
    "int-past-digit-limit",
    "np-float64-nan",
    "np-float32-inf",
    "long-string",
]


class TestParameterValue:
    """A parameter value is a finite real number at every entry point that takes one."""

    CALLS = {
        "derivative": ("lam", lambda family, povm, lam: derivative(family, lam)),
        "audit": ("lam", lambda family, povm, lam: audit(family, lam, povm)),
        "sweep_q": ("lam", lambda family, povm, lam: sweep_q(family, lam, [0.3])),
        "sweep_phi": ("lam", lambda family, povm, lam: sweep_phi(family, lam, [0.3])),
        "sample_outcomes": (
            "true_lambda",
            lambda family, povm, lam: sample_outcomes(povm, family, lam, 100, 0),
        ),
        "crb_experiment": (
            "true_lambda",
            lambda family, povm, lam: crb_experiment(family, povm, lam, 100, 2, 0),
        ),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "value, error, message",
        BAD_REALS,
        ids=BAD_REAL_IDS,
    )
    def test_bad_value_is_named(self, call, value, error, message):
        name, run = self.CALLS[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=re.escape(f"{name} {message}")) as caught:
                run(paper_qubit_family(), rotated_qubit_measurement(0.7), value)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("call", CALLS)
    def test_a_long_list_is_shown_in_short(self, call):
        # Its full repr is 50,002 characters.
        name, run = self.CALLS[call]
        with pytest.raises(TypeError) as caught:
            run(paper_qubit_family(), rotated_qubit_measurement(0.7), [0.1] * 10**4)
        shown = "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1, ...]"
        assert str(caught.value) == f"{name} must be a real number, got {shown}"

    @pytest.mark.parametrize("call", CALLS)
    def test_int_and_numpy_float_run(self, call):
        _, run = self.CALLS[call]
        family, povm = paper_qubit_family(), rotated_qubit_measurement(0.7)
        for value in (1, np.float64(0.7)):
            run(family, povm, value)


class TestMeasurementAndGridValues:
    """The constructors' angle and q, and each sweep grid entry, follow the rule for ``lam``."""

    CALLS = {
        "rotated": ("phi", lambda family, value: rotated_qubit_measurement(value)),
        "q_family": (
            "q",
            lambda family, value: q_family_measurement(sld(derivative(family, 0.7)), value),
        ),
        "sweep_q": ("q_grid[1]", lambda family, value: sweep_q(family, 0.7, [0.3, value])),
        "sweep_phi": ("phi_grid[1]", lambda family, value: sweep_phi(family, 0.7, [0.3, value])),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "value, error, message",
        BAD_REALS,
        ids=BAD_REAL_IDS,
    )
    def test_bad_value_is_named(self, call, value, error, message):
        name, run = self.CALLS[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=re.escape(f"{name} {message}")) as caught:
                run(paper_qubit_family(), value)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("sweep", [sweep_q, sweep_phi])
    def test_grid_rule(self, sweep):
        family, name = paper_qubit_family(), f"{sweep.__name__[6:]}_grid"
        with pytest.raises(ValueError, match=re.escape(f"{name} must be 1-D, got shape (2, 1)")):
            sweep(family, 0.7, [[0.3], [0.4]])
        with pytest.raises(ValueError, match=re.escape(f"{name} must be 1-D, got shape ()")):
            sweep(family, 0.7, 0.3)
        with pytest.raises(ValueError, match=re.escape(f"{name} must be 1-D, got [[0.3], 0.4]")):
            sweep(family, 0.7, [[0.3], 0.4])
        with pytest.raises(ValueError) as caught:  # a full repr of 25,012 characters
            sweep(family, 0.7, [0.1] * 5000 + [[0.2]])
        assert str(caught.value) == f"{name} must be 1-D, got [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, ...]"
        bad = np.linspace(0.0, 1.0, 11)
        bad[[4, 7]] = [np.inf, np.nan]
        with pytest.raises(ValueError, match=re.escape(f"{name}[4] must be finite, got inf")):
            sweep(family, 0.7, bad)
        with pytest.raises(TypeError, match=re.escape(f"{name}[0] must be a real number")):
            sweep(family, 0.7, np.array([True, False]))
        # An empty grid is a grid: it gives a 0-row result, as a config's
        # sweep cannot (a config grid must be non-empty).
        assert len(sweep(family, 0.7, [])) == 0
        ints = sweep(family, 0.7, np.array([0, 1]))
        assert ints.entropy.tolist() == sweep(family, 0.7, [0.0, 1.0]).entropy.tolist()

    def test_a_float_array_is_checked_without_a_python_loop(self, monkeypatch):
        module, seen = sys.modules["fisherlab.state_family"], []
        real = module._real
        monkeypatch.setattr(module, "_real", lambda *args: seen.append(args) or real(*args))
        grid = np.linspace(0.0, 1.0, 2001)
        assert _grid("q_grid", grid) is grid
        assert len(sweep_q(paper_qubit_family(), 0.7, grid)) == 2001
        assert [name for name, _ in seen] == ["lam"]


class TestRationalPastTheDoubleRange:
    """A rational past the double range is shown by the digits of its integer part.

    Its ``repr`` would print the numerator in full: 438 characters for
    ``Fraction(10**400)``, and Python's 4,300-digit limit raises past that.
    """

    @pytest.mark.parametrize(
        "value, shown",
        [
            (Fraction(10**5000), "a rational whose integer part has 5001 digits"),
            (Fraction(10**400), "a rational whose integer part has 401 digits"),
            (Fraction(-(10**400), 3), "a negative rational whose integer part has 400 digits"),
        ],
    )
    def test_the_rule_names_the_value_by_its_size(self, value, shown):
        with pytest.raises(ValueError) as caught:
            _real("lam", value)
        assert str(caught.value) == f"lam must be finite, got {shown}"

    @pytest.mark.parametrize(
        "run, name",
        [
            (lambda family, big: audit(family, big, rotated_qubit_measurement(0.7)), "lam"),
            (lambda family, big: sweep_q(family, big, [0.3]), "lam"),
            (lambda family, big: sweep_q(family, 0.7, [0.3, big]), "q_grid[1]"),
        ],
        ids=["audit-lam", "sweep_q-lam", "sweep_q-grid"],
    )
    def test_entry_points_name_the_argument(self, run, name):
        with pytest.raises(ValueError) as caught:
            run(paper_qubit_family(), Fraction(10**400))
        message = str(caught.value)
        assert message == f"{name} must be finite, got a rational whose integer part has 401 digits"
        assert len(message) < 200


class TestHugeNumbersInContainers:
    """A huge number inside a container is shown by its digits, as a bare one is.

    ``reprlib`` renders each entry with ``repr``, which raises past Python's
    4,300-digit limit.
    """

    @pytest.mark.parametrize(
        "value, shown",
        [
            ([10**5000], "[an integer of 5001 digits]"),
            ((0.5, -(10**5000)), "(0.5, a negative integer of 5001 digits)"),
            ({"n": [10**5000]}, "{'n': [an integer of 5001 digits]}"),
            (
                [Fraction(10**5000), np.float64(0.5)],
                "[a rational whose integer part has 5001 digits, 0.5]",
            ),
        ],
        ids=["list", "tuple", "nested-dict", "rational-and-numpy-float"],
    )
    def test_each_entry_is_bounded(self, value, shown):
        assert _shown(value) == shown

    def test_a_ragged_grid_names_its_huge_entry(self):
        with pytest.raises(ValueError) as caught:
            _grid("q_grid", [[1.0], 10**5000])
        assert str(caught.value) == "q_grid must be 1-D, got [[1.0], an integer of 5001 digits]"


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
            StateAndDerivative(state=state, dstate=dstate)
        else:
            with pytest.raises(ValueError, match=r"Re<state\|dstate>"):
                StateAndDerivative(state=state, dstate=dstate)

    def test_state_and_dstate_dims_must_agree(self):
        with pytest.raises(DimMismatchError, match="dims differ"):
            StateAndDerivative(state=np.array([1.0, 0.0]), dstate=np.array([0.0, 1j, 0.0]))

    @pytest.mark.parametrize("dstate", [[math.inf, 1j], [math.nan, 1j], [1.7e308, 1.7e308]])
    def test_non_finite_or_overflowing_dstate_is_rejected(self, dstate):
        # The last overlap overflows to inf, and so does the band it is held to.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"Re<state\|dstate>"):
            StateAndDerivative(state=np.array([0.6, 0.8]), dstate=np.array(dstate))


class TestFiniteDifference:
    def test_zero_generator_gives_exact_zero(self):
        family = StateFamily(generator=np.zeros((2, 2)), input_state=np.array([1.0, 0.0]))
        assert_allclose(central_difference(family, 0.5, 1e-3), 0.0, atol=1e-16)

    def test_quadratic_convergence(self):
        family = paper_qubit_family()
        exact = derivative(family, 0.9).dstate
        err = {
            step: np.linalg.norm(central_difference(family, 0.9, step) - exact)
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
