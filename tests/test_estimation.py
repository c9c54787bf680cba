import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIGMA_X,
    assert_overwrites_in_place,
    haar_basis,
    paper_qubit_family,
    random_family,
)
from fisherlab import (
    Povm,
    SampleRecord,
    StateFamily,
    classical_fisher,
    crb_experiment,
    derivative,
    evaluate,
    mle_estimate,
    outcome_distribution,
    rotated_qubit_measurement,
    sample_outcomes,
    sld,
    sld_measurement,
)
from fisherlab import cli, estimation, seminorm_bound
from fisherlab.errors import DimMismatchError, FlatLikelihoodError
from fisherlab.metrology import EPS_QFI

TRUE_LAMBDA = 0.7
QUBIT_INTERVAL = (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)

# The scalar grid + golden-section search that the batched MLE replaced,
# kept as the reference. Golden section compares likelihood values, so it
# stops on the float-noise plateau at the peak, a few 1e-8 wide;
# ORACLE_TOL bounds that plateau, not the batched search's own error
# (TestClosedForm pins that to CLOSED_FORM_TOL).
ORACLE_TOL = 1e-7
CLOSED_FORM_TOL = 1e-12
_LOG_FLOOR = 1e-300
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _log_likelihood(family, povm, counts, lam):
    amps = (povm.rows @ evaluate(family, lam)).view(float)
    return float(counts @ np.log(np.maximum((amps * amps).sum(1), _LOG_FLOOR)))


def scalar_mle_estimate(family, povm, record, search_interval):
    lo, hi = float(search_interval[0]), float(search_interval[1])
    grid = np.linspace(lo, hi, 256)
    values = np.array([_log_likelihood(family, povm, record.counts, x) for x in grid])
    if values.max() - values.min() < 1e-14 * max(1.0, float(record.n)):
        raise FlatLikelihoodError("likelihood is flat over the search grid")

    best = np.flatnonzero(values == values.max())
    midpoint = 0.5 * (lo + hi)
    pick = int(best[np.argmin(np.abs(grid[best] - midpoint))])
    a = grid[max(pick - 1, 0)]
    b = grid[min(pick + 1, 256 - 1)]

    tol = (hi - lo) * 1e-10
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = _log_likelihood(family, povm, record.counts, c)
    fd = _log_likelihood(family, povm, record.counts, d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = _log_likelihood(family, povm, record.counts, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = _log_likelihood(family, povm, record.counts, d)
    return 0.5 * (a + b)


def scalar_trial_estimates(family, povm, n, trials, seed, search_interval):
    counts = stream_counts(n, sampling_probs(family, povm), seed, trials)
    estimates = np.empty(trials)
    for i in range(trials):
        record = SampleRecord(counts=counts[i], seed=seed)
        estimates[i] = scalar_mle_estimate(family, povm, record, search_interval)
    return estimates


def batched_run(family, povm, n, trials, seed, interval):
    """Report and per-trial estimates of one crb_experiment."""
    report = crb_experiment(
        family, povm, TRUE_LAMBDA, n=n, trials=trials, seed=seed, search_interval=interval
    )
    return report, np.array(report.estimates)


def d8_sld_case():
    family = random_family(8, np.random.default_rng(8))
    povm = sld_measurement(sld(derivative(family, TRUE_LAMBDA)))
    return family, povm, (TRUE_LAMBDA - 0.3, TRUE_LAMBDA + 0.3)


def qubit_case(phi):
    family = paper_qubit_family()
    if phi is None:
        povm = sld_measurement(sld(derivative(family, TRUE_LAMBDA)))
    else:
        povm = rotated_qubit_measurement(phi)
    return family, povm, QUBIT_INTERVAL


ORACLE_CASES = {
    "sld": lambda: qubit_case(None),
    "rotated-0.3": lambda: qubit_case(0.3),
    "rotated-lambda": lambda: qubit_case(TRUE_LAMBDA),
    "rotated-1.2": lambda: qubit_case(1.2),
    "d8-sld": d8_sld_case,
}


def row_loop_trials_csv(path, estimates, report, true_lambda, n, seed, interval) -> None:
    """The per-row writer that the one-write trials CSV replaced, as an oracle."""
    with open(path, "w", newline="") as handle:
        handle.write(
            f"# true_lambda={true_lambda:.17g} n={n} trials={report.trials} seed={seed} "
            f"interval=({interval[0]:.17g},{interval[1]:.17g})\n"
        )
        handle.write("trial,estimate\n")
        for i, value in enumerate(estimates):
            handle.write(f"{i},{value:.17g}\n")
        handle.write(f"summary,{report.empirical_std:.17g}\n")


def sigma_x_effects() -> Povm:
    """Effects ``(I +- sigma_x/2)/2``: on the paper qubit ``F = s / (3 + s)``, ``s = sin^2 lam``."""
    effects = tuple((np.eye(2) + sign * SIGMA_X / 2.0) / 2.0 for sign in (1.0, -1.0))
    return Povm.from_effects(effects)


def balanced_measurement() -> Povm:
    """Equatorial measurement a quarter turn from the true angle: p = (1/2, 1/2)."""
    return rotated_qubit_measurement(TRUE_LAMBDA + np.pi / 2.0)


class TestSampleOutcomes:
    def test_identity_povm_is_deterministic(self):
        record = sample_outcomes(
            Povm.from_effects((np.eye(2),)), paper_qubit_family(), TRUE_LAMBDA, 100, seed=5
        )
        assert record.counts.tolist() == [100]
        assert record.n == 100

    def test_balanced_outcome_concentration(self):
        n = 10**6
        record = sample_outcomes(balanced_measurement(), paper_qubit_family(), TRUE_LAMBDA, n, seed=42)
        # binomial 3 sigma band around p = 1/2
        assert abs(record.counts[0] / n - 0.5) <= 3.0 * 0.5 / math.sqrt(n)

    def test_seed_determinism(self):
        a = sample_outcomes(balanced_measurement(), paper_qubit_family(), TRUE_LAMBDA, 1000, seed=9)
        b = sample_outcomes(balanced_measurement(), paper_qubit_family(), TRUE_LAMBDA, 1000, seed=9)
        assert a.counts.tolist() == b.counts.tolist()
        assert (a.n, a.seed) == (b.n, b.seed)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_outcomes(balanced_measurement(), paper_qubit_family(), TRUE_LAMBDA, 0, seed=1)

    @pytest.mark.parametrize("n", [100.5, 100.0, np.float64(100.0)])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(TypeError):
            sample_outcomes(balanced_measurement(), paper_qubit_family(), TRUE_LAMBDA, n, seed=1)

    def test_accepts_numpy_integer_n(self):
        args = (balanced_measurement(), paper_qubit_family(), TRUE_LAMBDA)
        record = sample_outcomes(*args, np.int64(1000), seed=9)
        assert record.counts.tolist() == sample_outcomes(*args, 1000, seed=9).counts.tolist()
        assert type(record.n) is int

    def test_record_validates_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            SampleRecord(counts=np.array([-3, 4]), seed=0)
        # Unsigned counts are read as int64 before the checks, so 2**64 - 1 reads
        # as -1 and is rejected; its uint64 sum would wrap to 0.
        with pytest.raises(ValueError, match="non-negative"):
            SampleRecord(counts=np.array([2**64 - 1, 1], dtype=np.uint64), seed=0)
        # Counts must be integers: 1.7 is not truncated to 1, nor 1.0 read as 1.
        for counts in ([1.7, 0.3], [1.0, 0.0]):
            with pytest.raises(TypeError, match="integers"):
                SampleRecord(counts=counts, seed=0)
        # n is the exact sum of the counts and meets the sampler's shot checks:
        # no shots at all, or more than an int64 holds (this int64 sum wraps).
        for counts in ([0, 0], [2**62] * 3):
            with pytest.raises(ValueError, match="n must be in"):
                SampleRecord(counts=counts, seed=0)
        # The seed meets the sampler's check too.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SampleRecord(counts=[1, 0], seed=-3)
        with pytest.raises(TypeError):
            SampleRecord(counts=[1, 0], seed=1.0)
        record = SampleRecord(counts=[2**62, 2**62 - 1], seed=np.int64(7))
        assert record.n == 2**63 - 1 and type(record.n) is int
        assert record.seed == 7 and type(record.seed) is int

    @pytest.mark.parametrize("counts", [np.array([], dtype=int), [], [[1, 2]], np.int64(3)])
    def test_record_counts_must_be_a_non_empty_vector(self, counts):
        # An empty vector once raised NumPy's zero-size reduction error and
        # [[1, 2]] a bare TypeError from summing its rows.
        message = f"non-empty vector, got shape {re.escape(str(np.shape(counts)))}"
        with pytest.raises(DimMismatchError, match=message):
            SampleRecord(counts=counts, seed=0)

    @pytest.mark.parametrize("entry", ["sample_outcomes", "crb_experiment"])
    def test_shot_cap_is_the_largest_int64(self, entry):
        # NumPy's multinomial takes n as a C long; one past it is a ValueError,
        # not an OverflowError from inside the draw.
        family, povm, _ = qubit_case(None)
        runs = {
            "sample_outcomes": lambda n: sample_outcomes(povm, family, TRUE_LAMBDA, n, seed=1),
            "crb_experiment": lambda n: crb_experiment(family, povm, TRUE_LAMBDA, n, 2, seed=1),
        }
        assert estimation._MAX_SHOTS == 2**63 - 1
        runs[entry](2**63 - 1)
        with pytest.raises(ValueError, match="n must be in"):
            runs[entry](2**63)

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, m: crb_experiment(f, m, TRUE_LAMBDA, n=True, trials=2, seed=0),
            lambda f, m: crb_experiment(f, m, TRUE_LAMBDA, n=100, trials=True, seed=0),
            lambda f, m: crb_experiment(f, m, TRUE_LAMBDA, n=100, trials=2, seed=False),
            lambda f, m: sample_outcomes(m, f, TRUE_LAMBDA, n=True, seed=0),
            lambda f, m: sample_outcomes(m, f, TRUE_LAMBDA, n=100, seed=True),
            lambda f, m: SampleRecord(counts=[1, 0], seed=True),
            lambda f, m: crb_experiment(f, m, TRUE_LAMBDA, 100, 2, 0, search_interval=("0", "1.5")),
            lambda f, m: crb_experiment(f, m, TRUE_LAMBDA, 100, 2, 0, search_interval=(False, True)),
        ],
        ids=[
            "crb-n-true",
            "crb-trials-true",
            "crb-seed-false",
            "sample-n-true",
            "sample-seed-true",
            "record-seed-true",
            "interval-strings",
            "interval-bools",
        ],
    )
    def test_library_refuses_what_a_config_refuses(self, call):
        # JSON true/false and strings are not numbers in a config; nor here.
        family, povm, _ = qubit_case(None)
        with pytest.raises(TypeError):
            call(family, povm)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("n", 0, "n must be in [1, 9223372036854775807], got 0"),
            ("n", 2**63, "n must be in [1, 9223372036854775807], got 9223372036854775808"),
            ("trials", 1, "trials must be >= 2, got 1"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", 1.0, "seed must be an integer, got 1.0"),
            ("trials", np.bool_(True), "trials must be an integer, got np.True_"),
            ("seed", np.float64(1.5), "seed must be an integer, got 1.5"),
            ("n", [1] * 10**4, "n must be an integer, got [1, 1, 1, 1, 1, 1, ...]"),
            # Its denominator's repr passes the 4,300-digit limit, and reprlib
            # would show it by its object address.
            (
                "n",
                Fraction(1, 10**5000),
                "n must be an integer, got a rational whose denominator has 5001 digits",
            ),
        ],
    )
    def test_setting_messages(self, name, value, message):
        error = ValueError if isinstance(value, int) else TypeError
        with pytest.raises(error, match=re.escape(message)) as caught:
            estimation._setting(name, value)
        assert " at 0x" not in str(caught.value) and len(str(caught.value)) < 200
        assert estimation._setting(name, np.int64(7)) == 7

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: estimation._setting("n", 10**5000),
                "n must be in [1, 9223372036854775807], got an integer of 5001 digits",
            ),
            (
                lambda: SampleRecord(counts=[1], seed=-(10**5000)),
                "seed must be >= 0, got a negative integer of 5001 digits",
            ),
        ],
        ids=["n", "record-seed"],
    )
    def test_settings_past_the_digit_limit_are_named(self, call, message):
        # str() of an integer past 4,300 digits raises a ValueError of its own.
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            call()
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=repr)
    def test_bool_true_lambda_is_refused(self, flag):
        # A config's JSON true is not a lambda; the library does not read it as 1 either.
        family, povm, _ = qubit_case(None)
        with pytest.raises(TypeError, match="true_lambda must be a real number"):
            crb_experiment(family, povm, flag, n=100, trials=2, seed=0)

    @pytest.mark.parametrize(
        "interval, message",
        [
            ((0.0, 1.5, 99), "search interval must have two ends, got 3"),
            ([0.0], "search interval must have two ends, got 1"),
            ((), "search interval must have two ends, got 0"),
            ((0, 10**400), "search_interval[1] must be finite, got an integer of 401 digits"),
            ((-(10**400), 1.5), "search_interval[0] must be finite, got a negative integer of 401"),
        ],
        ids=["three-ends", "one-end", "no-ends", "int-past-double", "negative-int-past-double"],
    )
    def test_interval_has_two_ends_in_the_double_range(self, interval, message):
        family, povm, _ = qubit_case(None)
        record = sample_outcomes(povm, family, TRUE_LAMBDA, 100, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            crb_experiment(family, povm, TRUE_LAMBDA, 100, 2, 0, search_interval=interval)
        assert len(str(caught.value)) < 200
        with pytest.raises(ValueError, match=re.escape(message)):
            mle_estimate(family, povm, record, interval)


def stream_counts(n, probs, seed, trials):
    """Counts of ``trials`` single multinomial draws in turn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.multinomial(n, probs) for _ in range(trials)])


def sampling_probs(family, povm):
    """Outcome probabilities at ``TRUE_LAMBDA``, normalised as the sampler draws them."""
    probs = outcome_distribution(povm, derivative(family, TRUE_LAMBDA)).probs
    return probs / probs.sum()


def qubit_probs():
    family, povm, _ = qubit_case(None)
    return sampling_probs(family, povm)


def haar8_probs():
    rng = np.random.default_rng(88)
    family = random_family(8, rng)
    povm = Povm.from_effects(tuple(np.outer(col, col.conj()) for col in haar_basis(rng, 8).T))
    assert len(povm) == 8
    return sampling_probs(family, povm)


STREAM_PROBS = {"qubit-K2": qubit_probs, "haar-d8-K8": haar8_probs}


class TestTrialStreams:
    """Trial ``i`` is the ``i``-th draw in turn from the one ``default_rng(seed)`` stream.

    The seeds cross the 1 -> 2, 2 -> 3 and 4 -> 5 word boundaries of
    SeedSequence's 32-bit entropy words, and 2**200 goes past its 4-word
    pool.
    """

    @pytest.mark.parametrize("n", [1, 10**4, 2**62], ids=["n1", "n1e4", "n2pow62"])
    @pytest.mark.parametrize("case", sorted(STREAM_PROBS))
    @pytest.mark.parametrize(
        "seed",
        [0, 2**32 - 50, 2**64 - 50, 2**128 - 50, 2**200],
        ids=["0", "2pow32-50", "2pow64-50", "2pow128-50", "2pow200"],
    )
    def test_window_matches_default_rng(self, seed, case, n):
        probs = STREAM_PROBS[case]()
        counts = estimation._trial_counts(n, probs, seed, 100)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, stream_counts(n, probs, seed, 100))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**160), trials=st.integers(1, 6))
    def test_any_seed_matches_default_rng(self, seed, trials):
        probs = np.array([0.25, 0.5, 0.25])
        np.testing.assert_array_equal(
            estimation._trial_counts(1000, probs, seed, trials),
            stream_counts(1000, probs, seed, trials),
        )

    def test_sample_outcomes_draws_the_seed_stream(self):
        family, povm, _ = qubit_case(None)
        record = sample_outcomes(povm, family, TRUE_LAMBDA, 10**4, seed=2**64 + 3)
        np.testing.assert_array_equal(
            record.counts, stream_counts(10**4, qubit_probs(), 2**64 + 3, 1)[0]
        )

    @pytest.mark.parametrize("case", sorted(STREAM_PROBS))
    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_adjacent_seeds_give_independent_runs(self, seed, case):
        # Trial i of seed s + 1 must not be trial i + 1 of seed s.
        probs = STREAM_PROBS[case]()
        n, trials = 10**4, 100
        later = estimation._trial_counts(n, probs, seed + 1, trials)
        earlier = estimation._trial_counts(n, probs, seed, trials)
        assert not np.array_equal(later[:-1], earlier[1:])

    def test_rejects_negative_seed(self):
        family, povm, _ = qubit_case(None)
        with pytest.raises(ValueError, match="seed"):
            sample_outcomes(povm, family, TRUE_LAMBDA, 100, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            crb_experiment(family, povm, TRUE_LAMBDA, n=100, trials=2, seed=-1)


class TestMleEstimate:
    def test_exact_expected_counts_recover_truth(self):
        # Counts proportional to the model probabilities peak the likelihood
        # at the true parameter (Gibbs' inequality).
        family = paper_qubit_family()
        povm = balanced_measurement()
        record = SampleRecord(counts=np.array([5000, 5000]), seed=0)
        interval = (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)
        estimate = mle_estimate(family, povm, record, interval)
        # accuracy is limited by the float-noise plateau of the likelihood
        # near its peak (width ~ sqrt(eps/n)), far below the statistical error
        assert estimate == pytest.approx(TRUE_LAMBDA, abs=1e-6)

    def test_skewed_counts_move_the_estimate(self):
        family = paper_qubit_family()
        povm = balanced_measurement()
        record = SampleRecord(counts=np.array([6000, 4000]), seed=0)
        interval = (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)
        estimate = mle_estimate(family, povm, record, interval)
        # p_+ (lam) = (1 + sin(lam - TRUE_LAMBDA))/2 = 0.6 at the argmax
        expected = TRUE_LAMBDA + math.asin(0.2)
        assert estimate == pytest.approx(expected, abs=1e-7)

    def test_flat_likelihood_raises(self):
        family = paper_qubit_family()
        record = SampleRecord(counts=np.array([100]), seed=0)
        with pytest.raises(FlatLikelihoodError):
            mle_estimate(family, Povm.from_effects((np.eye(2),)), record, (0.0, 1.0))

    def test_rejects_empty_interval(self):
        family = paper_qubit_family()
        record = SampleRecord(counts=np.array([50, 50]), seed=0)
        with pytest.raises(ValueError):
            mle_estimate(family, balanced_measurement(), record, (1.0, 1.0))

    @pytest.mark.parametrize("outcomes", [2, 4])
    def test_count_vector_must_match_the_povm(self, outcomes):
        family = random_family(3, np.random.default_rng(3))
        povm = sld_measurement(sld(derivative(family, TRUE_LAMBDA)))
        assert len(povm) == 3
        record = SampleRecord(counts=np.full(outcomes, 5), seed=0)
        with pytest.raises(DimMismatchError, match=f"{outcomes} counts for a 3-outcome POVM"):
            mle_estimate(family, povm, record, (TRUE_LAMBDA - 0.3, TRUE_LAMBDA + 0.3))

    def test_povm_dim_must_match_the_family(self):
        povm = sld_measurement(sld(derivative(random_family(3, np.random.default_rng(3)), 0.5)))
        record = SampleRecord(counts=np.array([5, 5, 0]), seed=0)
        with pytest.raises(DimMismatchError, match="POVM dim 3 does not match state dim 2"):
            mle_estimate(paper_qubit_family(), povm, record, QUBIT_INTERVAL)

    @pytest.mark.parametrize(
        "interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_rejects_non_finite_interval(self, interval):
        family = paper_qubit_family()
        record = SampleRecord(counts=np.array([50, 50]), seed=0)
        with pytest.raises(ValueError, match="finite"):
            mle_estimate(family, balanced_measurement(), record, interval)

    def test_interval_far_from_origin_terminates(self):
        # (hi - lo) * 1e-10 is below the float spacing near 1e8; the bracket
        # stop must still be reachable there.
        truth = 1e8 + 1.5
        family = paper_qubit_family()
        povm = rotated_qubit_measurement(truth + np.pi / 2.0)
        record = SampleRecord(counts=np.array([5000, 5000]), seed=0)
        estimate = mle_estimate(family, povm, record, (1e8, 1e8 + 3.0))
        assert estimate == pytest.approx(truth, abs=1e-6)


class TestCrbExperiment:
    def test_balanced_measurement_saturates_bound(self):
        report = crb_experiment(
            paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, n=10**4, trials=150, seed=11
        )
        assert report.crb == pytest.approx(1.0 / math.sqrt(10**4), abs=1e-12)
        assert 0.85 <= report.ratio <= 1.25

    def test_sld_measurement_saturates_bound(self):
        family = paper_qubit_family()
        povm = sld_measurement(sld(derivative(family, TRUE_LAMBDA)))
        report = crb_experiment(family, povm, TRUE_LAMBDA, n=10**4, trials=150, seed=3)
        assert 0.85 <= report.ratio <= 1.25

    def test_deterministic_outcome_angle_pins_every_estimate(self):
        # At phi = true lambda the outcome is certain, every draw repeats, and
        # the likelihood peaks exactly at the truth: the empirical spread
        # collapses to zero even though F = 1. The bound-saturation ratio is
        # meaningless at this singular point; what must hold is that the
        # estimator output equals the truth.
        family = paper_qubit_family()
        povm = rotated_qubit_measurement(TRUE_LAMBDA)
        assert classical_fisher(povm, derivative(family, TRUE_LAMBDA)) == pytest.approx(
            1.0, abs=1e-9
        )
        report = crb_experiment(family, povm, TRUE_LAMBDA, n=10**4, trials=20, seed=17)
        assert report.empirical_std <= 1e-6
        record = sample_outcomes(povm, family, TRUE_LAMBDA, 10**4, seed=17)
        estimate = mle_estimate(
            family, povm, record, (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)
        )
        assert estimate == pytest.approx(TRUE_LAMBDA, abs=1e-6)

    def test_report_is_deterministic(self):
        settings = dict(true_lambda=TRUE_LAMBDA, n=500, trials=12, seed=99)
        a = crb_experiment(paper_qubit_family(), balanced_measurement(), **settings)
        b = crb_experiment(paper_qubit_family(), balanced_measurement(), **settings)
        assert a == b
        # Equality compares every estimate, not only the summary.
        moved = a.estimates[:-1] + (np.nextafter(a.estimates[-1], np.inf),)
        assert a != dataclasses.replace(a, estimates=moved)

    def test_error_shrinks_like_inverse_sqrt_n(self):
        stds = []
        sizes = [100, 1000, 10000]
        for n in sizes:
            report = crb_experiment(
                paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, n=n, trials=120, seed=7
            )
            stds.append(report.empirical_std)
        slope = (math.log(stds[-1]) - math.log(stds[0])) / (
            math.log(sizes[-1]) - math.log(sizes[0])
        )
        assert -0.6 <= slope <= -0.4

    def test_degenerate_but_legal_settings(self):
        report = crb_experiment(
            paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, n=1, trials=2, seed=1
        )
        assert report.trials == 2
        assert math.isfinite(report.empirical_std)

    def test_identity_povm_raises_flat_likelihood(self):
        with pytest.raises(FlatLikelihoodError):
            crb_experiment(
                paper_qubit_family(),
                Povm.from_effects((np.eye(2),)),
                TRUE_LAMBDA,
                n=100,
                trials=4,
                seed=1,
            )

    def test_zero_fisher_information_raises_before_any_draw(self, monkeypatch):
        # (I +- sigma_x/2)/2 at lambda = 0: <sigma_x> = cos(lambda) is stationary, so
        # F = 0 and the bound 1/sqrt(n F) does not exist, yet the likelihood is not flat.
        povm = sigma_x_effects()
        assert classical_fisher(povm, derivative(paper_qubit_family(), 0.0)) == 0.0
        record = SampleRecord(counts=np.array([700, 300]), seed=1)
        assert math.isfinite(mle_estimate(paper_qubit_family(), povm, record, (-1.5, 1.5)))

        def no_draws(*args):
            raise AssertionError("counts were drawn")

        monkeypatch.setattr(estimation, "_trial_counts", no_draws)
        with pytest.raises(FlatLikelihoodError, match="Fisher information is zero"):
            crb_experiment(paper_qubit_family(), povm, 0.0, n=1000, trials=5, seed=1)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_fisher_floor_band_edge(self, side, monkeypatch):
        # F = EPS_QFI * ||h||^2 * (1 -+ 1e-3): at lam ~ 1.7e-6, F ~ lam^2 / 3
        # carries ~1e-10 relative rounding, far inside the 1e-3 step.
        family = paper_qubit_family()
        target = EPS_QFI * seminorm_bound(family) * (1.0 + side * 1e-3)
        lam = math.asin(math.sqrt(3.0 * target / (1.0 - target)))
        povm = sigma_x_effects()
        fisher = classical_fisher(povm, derivative(family, lam))
        assert fisher == pytest.approx(target, rel=1e-8)
        if side < 0:

            def no_draws(*args):
                raise AssertionError("counts were drawn")

            monkeypatch.setattr(estimation, "_trial_counts", no_draws)
            with pytest.raises(FlatLikelihoodError, match="Fisher information is zero"):
                crb_experiment(family, povm, lam, n=100, trials=2, seed=1)
        else:
            report = crb_experiment(family, povm, lam, n=100, trials=2, seed=1)
            assert report.crb == 1.0 / math.sqrt(100 * fisher)

    def test_rounding_level_fisher_information_raises(self):
        # At lam = pi, sin(pi) ~ 1.2e-16 leaves F ~ 5e-33 instead of 0.
        fisher = classical_fisher(sigma_x_effects(), derivative(paper_qubit_family(), math.pi))
        assert 0.0 < fisher < 1e-30
        with pytest.raises(FlatLikelihoodError, match="Fisher information is zero"):
            crb_experiment(
                paper_qubit_family(), sigma_x_effects(), math.pi, n=100, trials=2, seed=1
            )

    @pytest.mark.parametrize(
        "settings",
        [
            dict(true_lambda=math.nan),
            dict(true_lambda=math.inf),
            dict(true_lambda=TRUE_LAMBDA, search_interval=(0.0, math.inf)),
            dict(true_lambda=TRUE_LAMBDA, search_interval=(-1e308, 1e308)),
        ],
        ids=["lambda-nan", "lambda-inf", "interval-inf", "interval-length-overflows"],
    )
    def test_rejects_non_finite_settings(self, settings):
        with pytest.raises(ValueError, match="finite"):
            crb_experiment(
                paper_qubit_family(), balanced_measurement(), n=10, trials=2, seed=1, **settings
            )

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            crb_experiment(
                paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, n=10, trials=1, seed=1
            )

    @pytest.mark.parametrize("settings", [dict(n=100.5, trials=3), dict(n=100, trials=3.0)])
    def test_rejects_non_integer_counts(self, settings):
        with pytest.raises(TypeError):
            crb_experiment(
                paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, seed=1, **settings
            )

    def test_accepts_numpy_integer_counts(self):
        args = (paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA)
        report = crb_experiment(*args, n=np.int64(100), trials=np.int64(3), seed=1)
        assert report == crb_experiment(*args, n=100, trials=3, seed=1)
        assert type(report.trials) is int

    # The CSV tests write each report with the simulate command's writer.
    def test_csv_emission(self, tmp_path):
        path = tmp_path / "trials.csv"
        report = crb_experiment(
            paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, n=200, trials=8, seed=21
        )
        assert report.interval == QUBIT_INTERVAL
        cli._write_trials_csv(path, report, TRUE_LAMBDA, 200, 21)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "seed=21" in lines[0] and "trials=8" in lines[0]
        assert f"interval=({QUBIT_INTERVAL[0]:.17g},{QUBIT_INTERVAL[1]:.17g})" in lines[0]
        assert lines[1] == "trial,estimate"
        assert len(lines) == 2 + 8 + 1
        assert [float(line.split(",")[1]) for line in lines[2:-1]] == list(report.estimates)
        assert lines[-1] == f"summary,{report.empirical_std:.17g}"

    def test_csv_bytes_reproducible(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            report = crb_experiment(
                paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, n=200, trials=8, seed=21
            )
            cli._write_trials_csv(path, report, TRUE_LAMBDA, 200, 21)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_bytes_match_the_row_loop_oracle(self, tmp_path):
        path = tmp_path / "trials.csv"
        settings = dict(n=200, trials=50, seed=21, search_interval=QUBIT_INTERVAL)
        report = crb_experiment(
            paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, **settings
        )
        cli._write_trials_csv(path, report, TRUE_LAMBDA, 200, 21)
        oracle = tmp_path / "oracle.csv"
        args = (report.estimates, report, TRUE_LAMBDA, 200, 21, QUBIT_INTERVAL)
        row_loop_trials_csv(oracle, *args)
        assert path.read_bytes() == oracle.read_bytes()
        # Signed zeros, subnormals, infinities and odd settings, written both ways.
        odd = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e300, -math.inf]
        odd_report = dataclasses.replace(report, estimates=tuple(odd), interval=(-math.pi, 5e-324))
        # The std derived from these estimates is nan (inf - inf in the deviations).
        with np.errstate(invalid="ignore"):
            cli._write_trials_csv(tmp_path / "odd.csv", odd_report, -0.0, 7, 2**64)
            odd_args = (odd, odd_report, -0.0, 7, 2**64, odd_report.interval)
            row_loop_trials_csv(tmp_path / "odd-oracle.csv", *odd_args)
        assert (tmp_path / "odd.csv").read_bytes() == (tmp_path / "odd-oracle.csv").read_bytes()
        assert (tmp_path / "odd.csv").read_text().endswith("\nsummary,nan\n")

    def test_csv_overwrites_an_existing_file_in_place(self, tmp_path):
        family, povm = paper_qubit_family(), balanced_measurement()
        report = crb_experiment(family, povm, TRUE_LAMBDA, n=200, trials=8, seed=21)
        report = dataclasses.replace(report, estimates=tuple(np.linspace(0.6, 0.8, 8).tolist()))
        args = (report.estimates, report, TRUE_LAMBDA, 200, 21, QUBIT_INTERVAL)
        row_loop_trials_csv(tmp_path / "oracle.csv", *args)
        expected = (tmp_path / "oracle.csv").read_bytes()
        write = lambda path: cli._write_trials_csv(path, report, TRUE_LAMBDA, 200, 21)  # noqa: E731
        assert_overwrites_in_place(tmp_path / "trials.csv", write, expected)


class TestScalarOracle:
    @pytest.mark.parametrize("n", [1, 100, 10**4, 10**6])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_batched_estimates_match_scalar_loop(self, case, n):
        family, povm, interval = ORACLE_CASES[case]()
        trials, seed = 12, 31
        report, estimates = batched_run(family, povm, n, trials, seed, interval)
        reference = scalar_trial_estimates(family, povm, n, trials, seed, interval)
        assert np.max(np.abs(estimates - reference)) <= ORACLE_TOL
        crb = 1.0 / math.sqrt(n * classical_fisher(povm, derivative(family, TRUE_LAMBDA)))
        # Shifting each estimate by at most ORACLE_TOL moves the sample std
        # by at most ORACLE_TOL * sqrt(T / (T - 1)); at n = 10**6 (crb = 1e-3)
        # that allowance, not the 1e-6 relative one, is the binding bound.
        shift = ORACLE_TOL * math.sqrt(trials / (trials - 1)) / crb
        want = float(np.std(reference, ddof=1)) / crb
        assert report.ratio == pytest.approx(want, rel=1e-6, abs=shift)


class TestBatchInvariance:
    # 35 trials fill the grid scan's 16-row product buffer twice and then
    # in part, on 2 outcomes (sld) and 3 (d8-sld).
    @pytest.mark.parametrize(
        "case, trials",
        [("sld", 10), ("rotated-1.2", 10), ("d8-sld", 10), ("sld", 35), ("d8-sld", 35)],
        ids=["sld", "rotated-1.2", "d8-sld", "sld-35", "d8-sld-35"],
    )
    def test_each_trial_equals_its_single_trial_estimate(self, case, trials):
        family, povm, interval = ORACLE_CASES[case]()
        n, seed = 10**4, 404
        _, estimates = batched_run(family, povm, n, trials, seed, interval)
        counts = stream_counts(n, sampling_probs(family, povm), seed, trials)
        for i, value in enumerate(estimates):
            record = SampleRecord(counts=counts[i], seed=seed)
            assert value == mle_estimate(family, povm, record, interval)

    def test_longer_run_extends_a_shorter_one(self):
        family, povm, interval = ORACLE_CASES["rotated-1.2"]()
        runs = [batched_run(family, povm, 500, trials, 77, interval)[0] for trials in (8, 12)]
        assert runs[1].estimates[:8] == runs[0].estimates

    def test_batched_counts_equal_sample_outcomes(self, monkeypatch):
        family, povm, _ = ORACLE_CASES["d8-sld"]()
        seen = []
        real_mle = estimation._mle

        def recording_mle(family, povm, counts, *rest):
            seen.append(np.array(counts))
            return real_mle(family, povm, counts, *rest)

        monkeypatch.setattr(estimation, "_mle", recording_mle)
        n, trials, seed = 1000, 9, 5
        crb_experiment(family, povm, TRUE_LAMBDA, n=n, trials=trials, seed=seed)
        (counts,) = seen
        assert counts.shape == (trials, len(povm))
        reference = stream_counts(n, sampling_probs(family, povm), seed, trials)
        assert counts.tolist() == reference.tolist()
        want = sample_outcomes(povm, family, TRUE_LAMBDA, n, seed).counts
        assert counts[0].tolist() == want.tolist()


def closed_form_estimates(povm, counts):
    """``TRUE_LAMBDA + asin((c_+ - c_-)/n)``, the exact MLE for ``p_+- = (1 +- sin(lam - TRUE_LAMBDA))/2``.

    On the paper qubit this is the outcome law of the SLD and of the
    balanced measurement; ``c_+`` counts the outcome whose probability
    rises with lambda.
    """
    dist = outcome_distribution(povm, derivative(paper_qubit_family(), TRUE_LAMBDA))
    assert np.allclose(dist.probs, 0.5, atol=1e-12)
    assert np.allclose(np.abs(dist.dprobs), 0.5, atol=1e-12)
    plus = int(np.argmax(dist.dprobs))
    counts = np.asarray(counts)
    n = counts.sum(-1)
    return TRUE_LAMBDA + np.arcsin((counts[..., plus] - counts[..., 1 - plus]) / n)


CLOSED_FORM_CASES = {"sld": lambda: qubit_case(None)[1], "balanced": balanced_measurement}


class TestClosedForm:
    @pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_batched_estimates_equal_closed_form(self, case, n):
        family, povm = paper_qubit_family(), CLOSED_FORM_CASES[case]()
        trials = 20
        for seed in (3, 1001, 52_117):
            _, estimates = batched_run(family, povm, n, trials, seed, QUBIT_INTERVAL)
            counts = stream_counts(n, sampling_probs(family, povm), seed, trials)
            want = closed_form_estimates(povm, counts)
            assert np.max(np.abs(estimates - want)) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("n", [1, 10**2, 10**4, 10**6])
    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_single_estimates_equal_closed_form(self, case, n):
        family, povm = paper_qubit_family(), CLOSED_FORM_CASES[case]()
        for seed in range(40):
            record = sample_outcomes(povm, family, TRUE_LAMBDA, n, seed)
            estimate = mle_estimate(family, povm, record, QUBIT_INTERVAL)
            assert abs(estimate - closed_form_estimates(povm, record.counts)) <= CLOSED_FORM_TOL


class TestGeneratorOffset:
    @pytest.mark.parametrize("offset", [1e2, 1e4, 1e6, 1e8])
    def test_estimates_ignore_an_offset_bit_for_bit(self, offset):
        # h + cI multiplies the state by a global phase, so the likelihood
        # of fixed counts, and with it every estimate, must not move.
        family = paper_qubit_family()
        povm = sld_measurement(sld(derivative(family, TRUE_LAMBDA)))
        n, trials, seed = 10**4, 100, 11
        counts = estimation._trial_counts(n, sampling_probs(family, povm), seed, trials)
        shifted = StateFamily(
            generator=np.diag([offset + 0.5, offset - 0.5]).astype(complex),
            input_state=family.input_state,
        )
        want = estimation._mle(family, povm, counts, n, *QUBIT_INTERVAL)
        got = estimation._mle(shifted, povm, counts, n, *QUBIT_INTERVAL)
        assert got.tolist() == want.tolist()


def count_score_calls(monkeypatch) -> list:
    """Record each call of the per-step score helper of the Newton iteration."""
    calls = []
    real_score = estimation._score

    def counted(*args):
        calls.append(args)
        return real_score(*args)

    monkeypatch.setattr(estimation, "_score", counted)
    return calls


class TestNewtonIteration:
    @pytest.mark.parametrize(
        "scale, truth, interval",
        [(1.0, TRUE_LAMBDA, QUBIT_INTERVAL), (1e6, 0.0, (0.0, 1e-6))],
        ids=["paper-qubit", "fast-qubit-from-peak"],
    )
    def test_deterministic_outcome_raises_no_warning(self, monkeypatch, scale, truth, interval):
        # At phi = lambda one outcome has p = 0 at the peak and is never
        # observed: its zero count must not meet an infinite ratio. The fast
        # qubit's search starts on the peak, where that p is 0 to the last
        # bit and its curvature term alone would overflow.
        qubit = paper_qubit_family()
        family = StateFamily(generator=scale * qubit.generator, input_state=qubit.input_state)
        povm = rotated_qubit_measurement(truth)
        probs = outcome_distribution(povm, derivative(family, truth)).probs
        counts = np.zeros(2, dtype=int)
        counts[int(np.argmax(probs))] = 10**4
        record = SampleRecord(counts=counts, seed=0)
        calls = count_score_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = mle_estimate(family, povm, record, interval)
            report = crb_experiment(
                family, povm, truth, n=10**4, trials=20, seed=17, search_interval=interval
            )
        assert calls
        assert abs(estimate - truth) <= CLOSED_FORM_TOL / scale
        assert report.empirical_std <= CLOSED_FORM_TOL / scale

    @pytest.mark.parametrize("interval, end", [((0.0, 0.5), 1), ((1.0, 2.0), 0)])
    def test_maximum_beyond_the_interval_returns_its_endpoint(self, interval, end):
        # The likelihood peaks at TRUE_LAMBDA = 0.7, outside both intervals:
        # the grid pick is an interval end and the slope points out of it.
        record = SampleRecord(counts=np.array([5000, 5000]), seed=0)
        estimate = mle_estimate(paper_qubit_family(), balanced_measurement(), record, interval)
        assert estimate == interval[end]

    @pytest.mark.parametrize("counts, end", [([1, 0], 1), ([0, 1], 0)])
    def test_single_shot_maximum_sits_on_the_interval_edge(self, counts, end):
        family, povm = paper_qubit_family(), balanced_measurement()
        record = SampleRecord(counts=np.array(counts), seed=0)
        assert mle_estimate(family, povm, record, QUBIT_INTERVAL) == QUBIT_INTERVAL[end]
        _, estimates = batched_run(family, povm, 1, 20, 3, QUBIT_INTERVAL)
        assert sorted(set(estimates.tolist())) == list(QUBIT_INTERVAL)

    def test_interval_far_from_origin_stops_within_float_spacings(self, monkeypatch):
        truth = 1e8 + 1.5
        povm = rotated_qubit_measurement(truth + np.pi / 2.0)
        record = SampleRecord(counts=np.array([5000, 5000]), seed=0)
        calls = count_score_calls(monkeypatch)
        estimate = mle_estimate(paper_qubit_family(), povm, record, (1e8, 1e8 + 3.0))
        assert abs(estimate - truth) <= 4.0 * np.spacing(truth)
        assert len(calls) <= 8

    @pytest.mark.parametrize("seed", [5, 1_000_005, 987_654_321])
    def test_bench_settings_take_few_steps(self, monkeypatch, seed):
        # Paper qubit, SLD, n = 10**4, 100 trials: started at the vertex of
        # the grid parabola, Newton converges in two lockstep steps (three
        # from the grid point); bisection alone would take ~27.
        family, povm, _ = qubit_case(None)
        calls = count_score_calls(monkeypatch)
        crb_experiment(family, povm, TRUE_LAMBDA, n=10**4, trials=100, seed=seed)
        assert 1 <= len(calls) <= 2


def tie_case():
    """Paper qubit, ``rotated(0)``, ``(-pi/2, pi/2)``: ``p_0 = cos^2(lam/2)`` is even in lambda."""
    return paper_qubit_family(), rotated_qubit_measurement(0.0), (-np.pi / 2.0, np.pi / 2.0)


class TestGridTies:
    # The grid mirrors about the midpoint, so these counts give a grid
    # maximum that ties bit for bit between two points; the tie goes to
    # the point nearest the midpoint. Rounding puts point 249 nearer than
    # point 6, so (5350, 4650) is the case where that is not the first.
    TIES = {(9999, 1): [126, 129], (6000, 4000): [16, 239], (5350, 4650): [6, 249]}

    @pytest.mark.parametrize("counts", sorted(TIES))
    def test_tied_grid_matches_scalar_oracle(self, counts):
        family, povm, interval = tie_case()
        grid = np.linspace(*interval, 256)
        values = np.array([_log_likelihood(family, povm, np.array(counts), x) for x in grid])
        assert np.flatnonzero(values == values.max()).tolist() == self.TIES[counts]
        record = SampleRecord(counts=np.array(counts), seed=0)
        estimate = mle_estimate(family, povm, record, interval)
        assert abs(estimate - scalar_mle_estimate(family, povm, record, interval)) <= ORACLE_TOL

    def test_tied_and_untied_trials_batch_bit_for_bit(self):
        family, povm, interval = tie_case()
        counts = [(9999, 1), (9900, 100), (6000, 4000), (9000, 1000), (5350, 4650), (7000, 3000)]
        counts = np.array(counts)
        estimates = estimation._mle(family, povm, counts, 10**4, *interval)
        for row, value in zip(counts, estimates):
            record = SampleRecord(counts=row, seed=0)
            assert value == mle_estimate(family, povm, record, interval)


def reduced_amplitudes(weights, eigvals, lams):
    """``_amplitudes`` with its eigen-index sum as a NumPy reduction, as it was written before."""
    phases = np.exp(-1j * lams[:, None] * eigvals)
    flat = weights.reshape(-1, weights.shape[-1])
    amps = (flat * phases[:, None, :]).sum(-1).reshape(len(lams), *weights.shape[:-1])
    return amps.view(float)


def reduced_score_terms(terms, observed):
    """Per-outcome slope and bend of ``_score`` from amplitude terms, summed by reductions."""
    amps, damps, ddamps = terms[:, 0], terms[:, 1], terms[:, 2]
    probs = (amps * amps).sum(-1)
    probs = np.where(observed, np.maximum(probs, _LOG_FLOOR), 1.0)
    slope = 2.0 * (amps * damps).sum(-1) / probs
    bend = 2.0 * (damps * damps + amps * ddamps).sum(-1) / probs - slope * slope
    return slope, bend


def outcome_sum(counts, terms):
    """The outcome sum of ``_score`` as it was written before: one outcome at a time."""
    total = counts[..., 0] * terms[..., 0]
    for a in range(1, counts.shape[-1]):
        total += counts[..., a] * terms[..., a]
    return total


def short_sum_case(dim, rank, outcomes, seed):
    """Random amplitude weights stacked with their derivatives, as ``_mle`` builds them."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((outcomes, rank, dim)) + 1j * rng.standard_normal(
        (outcomes, rank, dim)
    )
    eigvals = np.sort(rng.standard_normal(dim))
    derivs = np.stack([weights, -1j * eigvals * weights, -(eigvals**2) * weights])
    counts = rng.integers(0, 1000, (64, outcomes)).astype(float)
    counts[::7, 0] = 0.0
    return derivs, eigvals, counts, rng.uniform(-3.0, 3.0, 64)


class TestShortAxisSums:
    """The short-axis sums of the MLE against the NumPy reductions they replaced.

    ``_short_sum`` adds elementwise only where NumPy's reduction adds one
    entry at a time too (below 8 float64s, or 4 complex128s), and runs
    the reduction from there on, so every amplitude and score sum agrees
    bit for bit at every ``d`` (a row of -0.0 alone would differ in the
    sign of its zero; these random values hold none): eigen sums of
    d >= 4 (complex) and re/im x rank sums of 2r >= 8 take the
    reduction's own bits. The bounds of the
    second test (2 eps of ``sum_j |w_j|`` per amplitude, 1e-12 of the
    per-outcome magnitudes per score) date from when those longer sums
    were elementwise and moved by up to 1.3 eps and ~4e2 eps.
    """

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16, 32])
    def test_short_axes_sum_bit_for_bit(self, dim, rank):
        for outcomes in (2, 3):
            derivs, eigvals, counts, lams = short_sum_case(dim, rank, outcomes, 100 * dim + rank)
            terms = estimation._amplitudes(derivs, eigvals, lams)
            assert terms.tobytes() == reduced_amplitudes(derivs, eigvals, lams).tobytes()
            slope, bend = reduced_score_terms(terms, counts > 0)
            got = estimation._score(derivs, eigvals, counts, counts > 0, lams)
            want = outcome_sum(counts, slope), outcome_sum(counts, bend)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("dim", [4, 5, 8, 16, 32])
    def test_long_eigen_sums_stay_within_the_stated_bound(self, dim):
        eps = np.finfo(float).eps
        for rank, seed in [(1, dim), (2, dim + 1000)]:
            derivs, eigvals, counts, lams = short_sum_case(dim, rank, 3, seed)
            terms = estimation._amplitudes(derivs, eigvals, lams)
            reduced = reduced_amplitudes(derivs, eigvals, lams)
            scale = np.repeat(np.abs(derivs).sum(-1), 2, axis=-1)
            assert np.all(np.abs(terms - reduced) <= 2.0 * eps * scale)
            # Given the same amplitudes, the score's own sums are unchanged.
            slope, bend = reduced_score_terms(terms, counts > 0)
            got = estimation._score(derivs, eigvals, counts, counts > 0, lams)
            want = outcome_sum(counts, slope), outcome_sum(counts, bend)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            # From the reduced amplitudes, each per-outcome term moves with
            # the amplitude's relative error.
            slope, bend = reduced_score_terms(reduced, counts > 0)
            for value, term in zip(got, (slope, bend)):
                bound = 1e-12 * outcome_sum(counts, np.abs(term))
                assert np.all(np.abs(value - outcome_sum(counts, term)) <= bound)


class TestScanMemory:
    def test_one_mle_call_holds_one_grid_sized_array(self):
        # The grid scan's (T, 256) values plus a fixed product buffer; a
        # second full-size temporary would put the peak near twice this.
        family, povm, interval = qubit_case(None)
        trials = 2000
        counts = stream_counts(10**4, sampling_probs(family, povm), 3, trials)
        estimation._mle(family, povm, counts, 10**4, *interval)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimation._mle(family, povm, counts, 10**4, *interval)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * trials * 256 * 8

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 18: _score's (T, 3 K r, d) products over the rank-padded "
        "(3, 8, 8) SLD rows peak at ~5.2x one (T, 256) array",
    )
    def test_rank_padded_rows_stay_within_the_same_bound(self):
        # random_family(8)'s SLD measurement pads its two plane outcomes to the
        # complement's rank 8, and _score multiplies every padded row.
        family, povm, interval = d8_sld_case()
        trials = 2000
        counts = stream_counts(10**4, sampling_probs(family, povm), 3, trials)
        estimation._mle(family, povm, counts, 10**4, *interval)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimation._mle(family, povm, counts, 10**4, *interval)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * trials * 256 * 8


class TestPaperQubitDigest:
    # sha256 of the little-endian float64 estimates of the paper qubit's SLD
    # measurement, n = 10**4 and 100 trials, as computed before the grid
    # scan and the short-axis sums were rewritten.
    DIGESTS = {
        11: "9da5bad8e0ad93f75f7e8f9cf62b8e91d3ecd322b2c0e4066258eb6fd928e671",
        2101: "60f418b693475e8d9aa7fde130bcd07021b20672dfe254b98a111ecbb9e79b2b",
        7919: "a674219fccbf577cf0b95387856d73ca93e76f824e3752f131de93a509d24f39",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_sld_estimates_keep_their_bits(self, seed):
        family, povm, _ = qubit_case(None)
        report = crb_experiment(family, povm, TRUE_LAMBDA, n=10**4, trials=100, seed=seed)
        estimates = np.array(report.estimates, dtype="<f8")
        assert hashlib.sha256(estimates.tobytes()).hexdigest() == self.DIGESTS[seed]
