import math
import warnings

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
from fisherlab import estimation, seminorm_bound
from fisherlab.errors import FlatLikelihoodError
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


def scalar_trial_estimates(family, povm, true_lambda, n, trials, seed, search_interval):
    estimates = np.empty(trials)
    for i in range(trials):
        record = sample_outcomes(povm, family, true_lambda, n, seed + i)
        estimates[i] = scalar_mle_estimate(family, povm, record, search_interval)
    return estimates


def batched_run(tmp_path, family, povm, n, trials, seed, interval):
    """Report and per-trial estimates of one crb_experiment, read back from its CSV."""
    path = tmp_path / f"trials-{n}-{trials}-{seed}.csv"
    report = crb_experiment(
        family,
        povm,
        TRUE_LAMBDA,
        n=n,
        trials=trials,
        seed=seed,
        search_interval=interval,
        csv_path=path,
    )
    rows = path.read_text().splitlines()[2:-1]
    return report, np.array([float(row.split(",")[1]) for row in rows])


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
        with pytest.raises(ValueError):
            SampleRecord(counts=np.array([3, 4]), n=10, seed=0)


def reference_counts(n, probs, seed, trials):
    """Counts from one freshly seeded ``default_rng(seed + i)`` per trial."""
    return np.stack([np.random.default_rng(seed + i).multinomial(n, probs) for i in range(trials)])


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
    """Trial ``i`` draws exactly the ``default_rng(seed + i)`` stream.

    The windows cross the seeds' 1 -> 2, 2 -> 3 and 4 -> 5 word
    boundaries of SeedSequence's 32-bit entropy words, and 2**200 runs
    its loop over words past the 4-word pool.
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
        np.testing.assert_array_equal(counts, reference_counts(n, probs, seed, 100))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**160), trials=st.integers(1, 6))
    def test_any_seed_matches_default_rng(self, seed, trials):
        probs = np.array([0.25, 0.5, 0.25])
        np.testing.assert_array_equal(
            estimation._trial_counts(1000, probs, seed, trials),
            reference_counts(1000, probs, seed, trials),
        )

    def test_sample_outcomes_draws_the_seed_stream(self):
        family, povm, _ = qubit_case(None)
        record = sample_outcomes(povm, family, TRUE_LAMBDA, 10**4, seed=2**64 + 3)
        np.testing.assert_array_equal(
            record.counts, reference_counts(10**4, qubit_probs(), 2**64 + 3, 1)[0]
        )

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
        record = SampleRecord(counts=np.array([5000, 5000]), n=10000, seed=0)
        interval = (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)
        estimate = mle_estimate(family, povm, record, interval)
        # accuracy is limited by the float-noise plateau of the likelihood
        # near its peak (width ~ sqrt(eps/n)), far below the statistical error
        assert estimate == pytest.approx(TRUE_LAMBDA, abs=1e-6)

    def test_skewed_counts_move_the_estimate(self):
        family = paper_qubit_family()
        povm = balanced_measurement()
        record = SampleRecord(counts=np.array([6000, 4000]), n=10000, seed=0)
        interval = (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)
        estimate = mle_estimate(family, povm, record, interval)
        # p_+ (lam) = (1 + sin(lam - TRUE_LAMBDA))/2 = 0.6 at the argmax
        expected = TRUE_LAMBDA + math.asin(0.2)
        assert estimate == pytest.approx(expected, abs=1e-7)

    def test_flat_likelihood_raises(self):
        family = paper_qubit_family()
        record = SampleRecord(counts=np.array([100]), n=100, seed=0)
        with pytest.raises(FlatLikelihoodError):
            mle_estimate(family, Povm.from_effects((np.eye(2),)), record, (0.0, 1.0))

    def test_rejects_empty_interval(self):
        family = paper_qubit_family()
        record = SampleRecord(counts=np.array([50, 50]), n=100, seed=0)
        with pytest.raises(ValueError):
            mle_estimate(family, balanced_measurement(), record, (1.0, 1.0))

    @pytest.mark.parametrize(
        "interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_rejects_non_finite_interval(self, interval):
        family = paper_qubit_family()
        record = SampleRecord(counts=np.array([50, 50]), n=100, seed=0)
        with pytest.raises(ValueError, match="finite"):
            mle_estimate(family, balanced_measurement(), record, interval)

    def test_interval_far_from_origin_terminates(self):
        # (hi - lo) * 1e-10 is below the float spacing near 1e8; the bracket
        # stop must still be reachable there.
        truth = 1e8 + 1.5
        family = paper_qubit_family()
        povm = rotated_qubit_measurement(truth + np.pi / 2.0)
        record = SampleRecord(counts=np.array([5000, 5000]), n=10000, seed=0)
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
        record = SampleRecord(counts=np.array([700, 300]), n=1000, seed=1)
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

    def test_csv_emission(self, tmp_path):
        path = tmp_path / "trials.csv"
        report = crb_experiment(
            paper_qubit_family(),
            balanced_measurement(),
            TRUE_LAMBDA,
            n=200,
            trials=8,
            seed=21,
            csv_path=path,
        )
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "seed=21" in lines[0] and "trials=8" in lines[0]
        assert lines[1] == "trial,estimate"
        assert len(lines) == 2 + 8 + 1
        assert lines[-1] == f"summary,{report.empirical_std:.17g}"

    def test_csv_bytes_reproducible(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            crb_experiment(
                paper_qubit_family(),
                balanced_measurement(),
                TRUE_LAMBDA,
                n=200,
                trials=8,
                seed=21,
                csv_path=path,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


    def test_csv_bytes_match_the_row_loop_oracle(self, tmp_path):
        path = tmp_path / "trials.csv"
        settings = dict(n=200, trials=50, seed=21, search_interval=QUBIT_INTERVAL, csv_path=path)
        report = crb_experiment(
            paper_qubit_family(), balanced_measurement(), TRUE_LAMBDA, **settings
        )
        rows = path.read_text().splitlines()[2:-1]
        estimates = np.array([float(row.split(",")[1]) for row in rows])
        oracle = tmp_path / "oracle.csv"
        row_loop_trials_csv(oracle, estimates, report, TRUE_LAMBDA, 200, 21, QUBIT_INTERVAL)
        assert path.read_bytes() == oracle.read_bytes()
        # Signed zeros, subnormals, infinities and odd settings, written both ways.
        odd = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e300, -math.inf]
        args = (np.array(odd), report, -0.0, 7, 2**64, (-math.pi, 5e-324))
        estimation._write_trials_csv(tmp_path / "odd.csv", *args)
        row_loop_trials_csv(tmp_path / "odd-oracle.csv", *args)
        assert (tmp_path / "odd.csv").read_bytes() == (tmp_path / "odd-oracle.csv").read_bytes()

    def test_csv_overwrites_an_existing_file_in_place(self, tmp_path):
        family, povm = paper_qubit_family(), balanced_measurement()
        report = crb_experiment(family, povm, TRUE_LAMBDA, n=200, trials=8, seed=21)
        args = (np.linspace(0.6, 0.8, 8), report, TRUE_LAMBDA, 200, 21, QUBIT_INTERVAL)
        row_loop_trials_csv(tmp_path / "oracle.csv", *args)
        expected = (tmp_path / "oracle.csv").read_bytes()
        write = lambda path: estimation._write_trials_csv(path, *args)  # noqa: E731
        assert_overwrites_in_place(tmp_path / "trials.csv", write, expected)


class TestScalarOracle:
    @pytest.mark.parametrize("n", [1, 100, 10**4, 10**6])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_batched_estimates_match_scalar_loop(self, tmp_path, case, n):
        family, povm, interval = ORACLE_CASES[case]()
        trials, seed = 12, 31
        report, estimates = batched_run(tmp_path, family, povm, n, trials, seed, interval)
        reference = scalar_trial_estimates(family, povm, TRUE_LAMBDA, n, trials, seed, interval)
        assert np.max(np.abs(estimates - reference)) <= ORACLE_TOL
        crb = 1.0 / math.sqrt(n * classical_fisher(povm, derivative(family, TRUE_LAMBDA)))
        # Shifting each estimate by at most ORACLE_TOL moves the sample std
        # by at most ORACLE_TOL * sqrt(T / (T - 1)); at n = 10**6 (crb = 1e-3)
        # that allowance, not the 1e-6 relative one, is the binding bound.
        shift = ORACLE_TOL * math.sqrt(trials / (trials - 1)) / crb
        want = float(np.std(reference, ddof=1)) / crb
        assert report.ratio == pytest.approx(want, rel=1e-6, abs=shift)


class TestBatchInvariance:
    @pytest.mark.parametrize("case", ["sld", "rotated-1.2", "d8-sld"])
    def test_each_trial_equals_its_single_trial_estimate(self, tmp_path, case):
        family, povm, interval = ORACLE_CASES[case]()
        n, trials, seed = 10**4, 10, 404
        _, estimates = batched_run(tmp_path, family, povm, n, trials, seed, interval)
        for i, value in enumerate(estimates):
            record = sample_outcomes(povm, family, TRUE_LAMBDA, n, seed + i)
            assert value == mle_estimate(family, povm, record, interval)

    def test_longer_run_extends_a_shorter_one(self, tmp_path):
        family, povm, interval = ORACLE_CASES["rotated-1.2"]()
        paths = [tmp_path / "eight.csv", tmp_path / "twelve.csv"]
        for path, trials in zip(paths, (8, 12)):
            crb_experiment(
                family,
                povm,
                TRUE_LAMBDA,
                n=500,
                trials=trials,
                seed=77,
                search_interval=interval,
                csv_path=path,
            )
        eight, twelve = (path.read_bytes().splitlines() for path in paths)
        assert twelve[2:10] == eight[2:10]

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
        reference = reference_counts(n, sampling_probs(family, povm), seed, trials)
        for i in range(trials):
            want = sample_outcomes(povm, family, TRUE_LAMBDA, n, seed + i).counts
            assert counts[i].tolist() == want.tolist()
            assert counts[i].tolist() == reference[i].tolist()


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
    def test_batched_estimates_equal_closed_form(self, tmp_path, case, n):
        family, povm = paper_qubit_family(), CLOSED_FORM_CASES[case]()
        trials = 20
        for seed in (3, 1001, 52_117):
            _, estimates = batched_run(tmp_path, family, povm, n, trials, seed, QUBIT_INTERVAL)
            counts = [
                sample_outcomes(povm, family, TRUE_LAMBDA, n, seed + i).counts
                for i in range(trials)
            ]
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
        record = SampleRecord(counts=counts, n=10**4, seed=0)
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
        record = SampleRecord(counts=np.array([5000, 5000]), n=10**4, seed=0)
        estimate = mle_estimate(paper_qubit_family(), balanced_measurement(), record, interval)
        assert estimate == interval[end]

    @pytest.mark.parametrize("counts, end", [([1, 0], 1), ([0, 1], 0)])
    def test_single_shot_maximum_sits_on_the_interval_edge(self, tmp_path, counts, end):
        family, povm = paper_qubit_family(), balanced_measurement()
        record = SampleRecord(counts=np.array(counts), n=1, seed=0)
        assert mle_estimate(family, povm, record, QUBIT_INTERVAL) == QUBIT_INTERVAL[end]
        _, estimates = batched_run(tmp_path, family, povm, 1, 20, 3, QUBIT_INTERVAL)
        assert sorted(set(estimates.tolist())) == list(QUBIT_INTERVAL)

    def test_interval_far_from_origin_stops_within_float_spacings(self, monkeypatch):
        truth = 1e8 + 1.5
        povm = rotated_qubit_measurement(truth + np.pi / 2.0)
        record = SampleRecord(counts=np.array([5000, 5000]), n=10**4, seed=0)
        calls = count_score_calls(monkeypatch)
        estimate = mle_estimate(paper_qubit_family(), povm, record, (1e8, 1e8 + 3.0))
        assert abs(estimate - truth) <= 4.0 * np.spacing(truth)
        assert len(calls) <= 8

    @pytest.mark.parametrize("seed", [5, 1_000_005, 987_654_321])
    def test_bench_settings_take_few_steps(self, monkeypatch, seed):
        # Paper qubit, SLD, n = 10**4, 100 trials: Newton converges in about
        # four lockstep steps; bisection alone would take ~27.
        family, povm, _ = qubit_case(None)
        calls = count_score_calls(monkeypatch)
        crb_experiment(family, povm, TRUE_LAMBDA, n=10**4, trials=100, seed=seed)
        assert 1 <= len(calls) <= 8
