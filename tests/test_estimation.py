import math

import numpy as np
import pytest

from conftest import paper_qubit_family
from fisherlab import (
    Povm,
    SampleRecord,
    classical_fisher,
    crb_experiment,
    derivative,
    mle_estimate,
    rotated_qubit_measurement,
    sample_outcomes,
    sld,
    sld_measurement,
)
from fisherlab.errors import FlatLikelihoodError

TRUE_LAMBDA = 0.7


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
