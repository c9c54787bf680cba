"""Monte-Carlo check of the Cramer-Rao bound.

Samples measurement outcomes at a known true parameter, recovers the
parameter by maximum likelihood over many independent trials, and
compares the empirical spread of the estimates with the bound
``1/sqrt(n * F)``. Maximum likelihood is asymptotically efficient, so
for large shot counts the ratio should hover just above 1.

Reproducibility: trial ``i`` draws from ``default_rng(seed + i)``, so a
report is a pure function of (settings, seed). Trials are independent
and could run concurrently; sequential execution is used because the
per-trial seeding already fixes the result either way.

Caveat for periodic families: the likelihood is multimodal over a full
period. The default search interval, ``true_lambda +- pi/2``, stays
inside one mode for qubit phase families; wider intervals are the
caller's responsibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, FlatLikelihoodError
from .measurement import Povm, classical_fisher, outcome_distribution
from .state_family import StateFamily, derivative, evaluate

__all__ = [
    "SampleRecord",
    "CrbReport",
    "sample_outcomes",
    "mle_estimate",
    "crb_experiment",
]

_GRID_POINTS = 256
_FLAT_TOL = 1e-14
# Floor for log-probabilities: keeps the log-likelihood finite at p = 0
# without moving the argmax.
_LOG_FLOOR = 1e-300

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SampleRecord:
    """Outcome counts from one batch of identical measurements."""

    counts: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.min() < 0 or counts.sum() != self.n:
            raise ValueError("counts must be non-negative and sum to n")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class CrbReport:
    """Empirical estimator spread against the Cramer-Rao bound."""

    empirical_std: float
    crb: float
    ratio: float
    trials: int


def sample_outcomes(
    povm: Povm, family: StateFamily, true_lambda: float, n: int, seed: int
) -> SampleRecord:
    """Draw ``n`` outcomes from the POVM at the true parameter value."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dist = outcome_distribution(povm, derivative(family, true_lambda))
    probs = dist.probs / dist.probs.sum()
    counts = np.random.default_rng(seed).multinomial(n, probs)
    return SampleRecord(counts=counts, n=int(n), seed=int(seed))


def _log_likelihood(family: StateFamily, povm: Povm, counts: np.ndarray, lam: float) -> float:
    amps = (povm.rows @ evaluate(family, lam)).view(float)
    return float(counts @ np.log(np.maximum((amps * amps).sum(1), _LOG_FLOOR)))


def mle_estimate(family: StateFamily, povm: Povm, record: SampleRecord, search_interval) -> float:
    """Maximum-likelihood estimate of the parameter from outcome counts.

    Scans a 256-point grid over the search interval, then refines around
    the best grid point by golden-section search down to a bracket of
    ``|interval| * 1e-10``. Grid ties are broken toward the interval
    midpoint. The interval must contain at most one likelihood mode.

    Raises
    ------
    FlatLikelihoodError
        If the log-likelihood varies by less than 1e-14 per shot over
        the grid (the counts multiply every log term, so the flatness
        threshold scales with n to stay above rounding noise).
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not hi > lo:
        raise ValueError(f"search interval must have positive length, got ({lo}, {hi})")
    if povm.dim != family.dim:
        raise DimMismatchError("POVM dim does not match family dim")

    grid = np.linspace(lo, hi, _GRID_POINTS)
    values = np.array([_log_likelihood(family, povm, record.counts, x) for x in grid])
    if values.max() - values.min() < _FLAT_TOL * max(1.0, float(record.n)):
        raise FlatLikelihoodError("likelihood is flat over the search grid")

    best = np.flatnonzero(values == values.max())
    midpoint = 0.5 * (lo + hi)
    pick = int(best[np.argmin(np.abs(grid[best] - midpoint))])
    a = grid[max(pick - 1, 0)]
    b = grid[min(pick + 1, _GRID_POINTS - 1)]

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


def _trial_estimates(
    family: StateFamily,
    povm: Povm,
    true_lambda: float,
    n: int,
    trials: int,
    seed: int,
    search_interval,
) -> np.ndarray:
    estimates = np.empty(trials)
    for i in range(trials):
        record = sample_outcomes(povm, family, true_lambda, n, seed + i)
        estimates[i] = mle_estimate(family, povm, record, search_interval)
    return estimates


def crb_experiment(
    family: StateFamily,
    povm: Povm,
    true_lambda: float,
    n: int,
    trials: int,
    seed: int,
    search_interval=None,
    csv_path=None,
) -> CrbReport:
    """Run independent sample/estimate rounds and compare spread to the bound.

    Trial ``i`` uses seed ``seed + i``. When ``csv_path`` is given, the
    per-trial estimates are written as CSV with the settings echoed in a
    leading ``#`` comment line and a final summary row holding the
    empirical standard deviation.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if search_interval is None:
        search_interval = (true_lambda - math.pi / 2.0, true_lambda + math.pi / 2.0)

    fisher = classical_fisher(povm, derivative(family, true_lambda))
    crb = 1.0 / math.sqrt(n * fisher)
    estimates = _trial_estimates(family, povm, true_lambda, n, trials, seed, search_interval)
    empirical_std = float(np.std(estimates, ddof=1))
    report = CrbReport(
        empirical_std=empirical_std,
        crb=crb,
        ratio=empirical_std / crb,
        trials=int(trials),
    )
    if csv_path is not None:
        _write_trials_csv(csv_path, estimates, report, true_lambda, n, seed, search_interval)
    return report


def _write_trials_csv(path, estimates, report, true_lambda, n, seed, interval) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(
            f"# true_lambda={true_lambda:.17g} n={n} trials={report.trials} seed={seed} "
            f"interval=({interval[0]:.17g},{interval[1]:.17g})\n"
        )
        handle.write("trial,estimate\n")
        for i, value in enumerate(estimates):
            handle.write(f"{i},{value:.17g}\n")
        handle.write(f"summary,{report.empirical_std:.17g}\n")
