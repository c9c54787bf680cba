"""Monte-Carlo check of the Cramer-Rao bound.

Samples measurement outcomes at a known true parameter, recovers the
parameter by maximum likelihood over many independent trials, and
compares the empirical spread of the estimates with the bound
``1/sqrt(n * F)``. Maximum likelihood is asymptotically efficient, so
for large shot counts the ratio should hover just above 1.

All trials run as one batch. The outcome distribution at the true
parameter is computed once; trial ``i`` draws its counts from
``default_rng(seed + i)``. The likelihood is evaluated from amplitude
weights in the generator eigenbasis, precomputed once per experiment;
the 256-point grid scan is shared by every trial and the golden-section
refinement runs in lockstep across trials. Every reduction is per trial,
so trial ``i``'s estimate depends only on (settings, seed + i): it is
the same bit for bit whether it runs alone or in a batch of any size,
and a report is a pure function of (settings, seed).

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
from .state_family import StateAndDerivative, StateFamily, derivative

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


def _sampling_probs(povm: Povm, sd: StateAndDerivative) -> np.ndarray:
    dist = outcome_distribution(povm, sd)
    return dist.probs / dist.probs.sum()


def sample_outcomes(
    povm: Povm, family: StateFamily, true_lambda: float, n: int, seed: int
) -> SampleRecord:
    """Draw ``n`` outcomes from the POVM at the true parameter value."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    probs = _sampling_probs(povm, derivative(family, true_lambda))
    counts = np.random.default_rng(seed).multinomial(n, probs)
    return SampleRecord(counts=counts, n=int(n), seed=int(seed))


def _finite_interval(search_interval) -> tuple:
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(
            f"search interval must be finite with positive length, got ({lo}, {hi})"
        )
    return lo, hi


def _log_probs(weights: np.ndarray, eigvals: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Floored log-probabilities ``log p_a(lam)``, shape ``(len(lams), K)``.

    The amplitudes are ``A(lam) = sum_j W[a, r, j] e^{-i lam e_j}`` and
    ``p_a = sum_r |A|^2``. Every sum runs over the last, contiguous axis,
    so row ``i`` depends on ``lams[i]`` alone and not on how many points
    share the call.
    """
    phases = np.exp(-1j * lams[:, None] * eigvals)
    amps = (weights * phases[:, None, None, :]).sum(-1)
    probs = (amps.real**2 + amps.imag**2).sum(-1)
    return np.log(np.maximum(probs, _LOG_FLOOR))


def _mle(
    family: StateFamily, povm: Povm, counts: np.ndarray, n: int, lo: float, hi: float
) -> np.ndarray:
    """Maximum-likelihood estimates for every row of ``counts`` (shape ``(T, K)``).

    One grid scan shared by all trials, then golden-section refinement
    run in lockstep, each trial frozen once its bracket has converged.
    Estimate ``t`` depends only on ``counts[t]``.
    """
    if povm.dim != family.dim:
        raise DimMismatchError("POVM dim does not match family dim")
    vecs = family._eigvecs
    # Amplitude weights in the generator eigenbasis, computed once.
    weights = (povm.rows @ vecs) * (vecs.conj().T @ family.input_state)
    counts = np.asarray(counts, dtype=float)

    def log_likelihood(trials: np.ndarray, lams: np.ndarray) -> np.ndarray:
        return (counts[trials] * _log_probs(weights, family._eigvals, lams)).sum(-1)

    grid = np.linspace(lo, hi, _GRID_POINTS)
    values = (counts[:, None, :] * _log_probs(weights, family._eigvals, grid)).sum(-1)
    top = values.max(1)
    if np.any(top - values.min(1) < _FLAT_TOL * max(1.0, float(n))):
        raise FlatLikelihoodError("likelihood is flat over the search grid")

    # Grid ties go to the point nearest the interval midpoint.
    distance = np.where(values == top[:, None], np.abs(grid - 0.5 * (lo + hi)), np.inf)
    pick = np.argmin(distance, axis=1)
    a = grid[np.maximum(pick - 1, 0)]
    b = grid[np.minimum(pick + 1, _GRID_POINTS - 1)]

    # The floor of a few float spacings keeps the bracket test reachable
    # for intervals far from the origin.
    tol = max((hi - lo) * 1e-10, 4.0 * float(np.spacing(max(abs(lo), abs(hi)))))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    everyone = np.arange(len(counts))
    fc = log_likelihood(everyone, c)
    fd = log_likelihood(everyone, d)
    while (live := np.flatnonzero(b - a > tol)).size:
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        width = b[live] - a[live]
        probe = np.where(left, b[live] - _INV_PHI * width, a[live] + _INV_PHI * width)
        value = log_likelihood(live, probe)
        c[lt], fc[lt] = probe[left], value[left]
        d[rt], fd[rt] = probe[~left], value[~left]
    return 0.5 * (a + b)


def mle_estimate(family: StateFamily, povm: Povm, record: SampleRecord, search_interval) -> float:
    """Maximum-likelihood estimate of the parameter from outcome counts.

    Scans a 256-point grid over the search interval, then refines around
    the best grid point by golden-section search down to a bracket of
    ``|interval| * 1e-10`` (at least four float spacings). Grid ties are broken toward the interval
    midpoint. The interval must be finite and contain at most one
    likelihood mode. This is the one-trial case of the batched search
    :func:`crb_experiment` runs, and gives the same estimate bit for bit.

    Raises
    ------
    FlatLikelihoodError
        If the log-likelihood varies by less than 1e-14 per shot over
        the grid (the counts multiply every log term, so the flatness
        threshold scales with n to stay above rounding noise).
    """
    lo, hi = _finite_interval(search_interval)
    return float(_mle(family, povm, record.counts[None, :], record.n, lo, hi)[0])


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

    Trial ``i`` draws its counts from ``default_rng(seed + i)``, exactly
    as :func:`sample_outcomes` would, and its estimate equals
    :func:`mle_estimate` on those counts. When ``csv_path`` is given, the
    per-trial estimates are written as CSV with the settings echoed in a
    leading ``#`` comment line and a final summary row holding the
    empirical standard deviation.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(true_lambda):
        raise ValueError(f"true_lambda must be finite, got {true_lambda!r}")
    if search_interval is None:
        search_interval = (true_lambda - math.pi / 2.0, true_lambda + math.pi / 2.0)
    lo, hi = _finite_interval(search_interval)

    sd = derivative(family, true_lambda)
    fisher = classical_fisher(povm, sd)
    probs = _sampling_probs(povm, sd)
    counts = np.stack(
        [np.random.default_rng(seed + i).multinomial(n, probs) for i in range(trials)]
    )
    estimates = _mle(family, povm, counts, n, lo, hi)
    crb = 1.0 / math.sqrt(n * fisher)
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
