import math

import numpy as np
import pytest

from conftest import paper_qubit_family, random_family
from fisherlab import (
    Povm,
    SampleRecord,
    classical_fisher,
    crb_experiment,
    derivative,
    evaluate,
    mle_estimate,
    rotated_qubit_measurement,
    sample_outcomes,
    sld,
    sld_measurement,
)
from fisherlab import estimation
from fisherlab.errors import FlatLikelihoodError

TRUE_LAMBDA = 0.7
QUBIT_INTERVAL = (TRUE_LAMBDA - np.pi / 2.0, TRUE_LAMBDA + np.pi / 2.0)

# The scalar grid + golden-section search that the batched MLE replaced,
# kept as the reference. Both stop on the float-noise plateau at the
# likelihood peak, where their different rounding of the log-likelihood
# moves the argmax by a few 1e-8; ORACLE_TOL bounds that.
ORACLE_TOL = 1e-7
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

    def test_record_validates_counts(self):
        with pytest.raises(ValueError):
            SampleRecord(counts=np.array([3, 4]), n=10, seed=0)


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

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
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

    @pytest.mark.parametrize(
        "settings",
        [
            dict(true_lambda=math.nan),
            dict(true_lambda=math.inf),
            dict(true_lambda=TRUE_LAMBDA, search_interval=(0.0, math.inf)),
        ],
        ids=["lambda-nan", "lambda-inf", "interval-inf"],
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
        for i in range(trials):
            want = sample_outcomes(povm, family, TRUE_LAMBDA, n, seed + i).counts
            assert counts[i].tolist() == want.tolist()
