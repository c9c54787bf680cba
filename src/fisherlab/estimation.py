"""Monte-Carlo check of the Cramer-Rao bound.

Samples measurement outcomes at a known true parameter, recovers the
parameter by maximum likelihood over many independent trials, and
compares the empirical spread of the estimates with the bound
``1/sqrt(n * F)``. Maximum likelihood is asymptotically efficient, so
for large shot counts the ratio should hover just above 1.

All trials run as one batch. The outcome distribution at the true
parameter is computed once, and every trial's counts come from one
multinomial draw on the one ``default_rng(seed)`` stream: row ``i`` of
that draw is trial ``i``. A longer run extends a shorter one, and
adjacent seeds give independent runs.

The likelihood and its first two derivatives are evaluated from
amplitude weights in the generator eigenbasis, precomputed once per
experiment; the 256-point grid scan is shared by every trial, and a
safeguarded Newton iteration on the score refines every trial in
lockstep from the vertex of its grid parabola. Each trial converges to
the likelihood's maximum to rounding (1e-12 of the closed-form estimate
on the paper qubit), in two steps on the paper qubit's SLD at n = 1e4.
Every reduction is per trial, so trial ``i``'s estimate depends only on
(settings, seed, i): it is the same bit for bit whether it runs alone or
in a batch of any size, and a report is a pure function of (settings, seed).

Caveat: the search interval must hold one likelihood mode. The default,
``true_lambda +- pi/2``, does only where every outcome probability is
monotonic over it, as for the paper qubit's SLD measurement. Where one
has an extremum inside it, each frequency has a mirrored second root: on
the paper qubit (n = 1e4), the q family at q = 0.1, 0.01 and 0.001 puts
45-49% of estimates over 10 CRB from the truth (ROADMAP.md, item 1).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, FlatLikelihoodError
from .measurement import Povm, _short_sum, classical_fisher, outcome_distribution
from .metrology import EPS_QFI, seminorm_bound
from .state_family import StateAndDerivative, StateFamily, _real, _shown, derivative

__all__ = [
    "SampleRecord",
    "CrbReport",
    "sample_outcomes",
    "mle_estimate",
    "crb_experiment",
]

# The multinomial draw takes the shot count as a 64-bit signed integer.
_MAX_SHOTS = 2**63 - 1
_BOUNDS = {"n": (1, _MAX_SHOTS), "trials": (2, math.inf), "seed": (0, math.inf)}
_GRID_POINTS = 256
# Trials per slab of the grid scan's product buffer.
_SCAN_ROWS = 16
_FLAT_TOL = 1e-14
# Floor for probabilities: keeps the log-likelihood and the score finite
# at p = 0 without moving the argmax.
_LOG_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """Outcome counts from one batch of identical measurements; ``n`` is their sum.

    ``n`` and ``seed`` meet the sampler's rules: a ``bool`` seed raises ``TypeError``.
    """

    counts: np.ndarray
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or not counts.size:
            raise DimMismatchError(f"counts must be a non-empty vector, got shape {counts.shape}")
        if counts.dtype.kind not in "iu":
            raise TypeError("counts must be integers")
        counts = counts.astype(np.int64, copy=False)
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "seed", _setting("seed", self.seed))
        _setting("n", self.n)

    @property
    def n(self) -> int:
        return sum(self.counts.tolist())


@dataclass(frozen=True)
class CrbReport:
    """Estimator spread against the Cramer-Rao bound; trial ``i``'s estimate is ``estimates[i]``."""

    crb: float
    estimates: tuple
    interval: tuple

    @functools.cached_property
    def empirical_std(self) -> float:
        """Sample standard deviation (``ddof=1``) of the estimates, computed on first read."""
        return float(np.std(self.estimates, ddof=1))

    @property
    def ratio(self) -> float:
        return self.empirical_std / self.crb

    @property
    def trials(self) -> int:
        return len(self.estimates)


def _sampling_probs(povm: Povm, sd: StateAndDerivative) -> np.ndarray:
    dist = outcome_distribution(povm, sd)
    return dist.probs / dist.probs.sum()


def _setting(name: str, value) -> int:
    """Setting ``name`` as an ``int`` in its bounds; a ``bool`` or non-integer raises TypeError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {_shown(value)}")
    value = operator.index(value)
    low, high = _BOUNDS[name]
    if not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {_shown(value)}")
    return value


def _trial_counts(n: int, probs: np.ndarray, seed: int, trials: int) -> np.ndarray:
    """Multinomial counts of ``trials`` trials, shape ``(trials, len(probs))``.

    One draw from one stream: ``default_rng(seed).multinomial(n, probs,
    size=trials)``, whose row ``i`` is trial ``i``. Rows are drawn in
    order, so a longer run extends a shorter one and row 0 is the
    ``trials = 1`` draw that :func:`sample_outcomes` makes. Adjacent seeds
    give unrelated streams, so runs over seeds 1, 2, 3 ... are
    independent.

    NumPy's multinomial draws each count as a binomial, and for ``p > 1/2``
    it draws the failures, so moving ``p`` by one ulp across 1/2 mirrors
    every count about ``n/2``. The SLD measurement samples at exactly
    ``p = (1/2, 1/2)``, so a rounding-level change of the state (such as
    a global phase) can reflect every estimate about the truth.
    """
    return np.random.default_rng(_setting("seed", seed)).multinomial(n, probs, size=trials)


def sample_outcomes(
    povm: Povm, family: StateFamily, true_lambda: float, n: int, seed: int
) -> SampleRecord:
    """Draw ``n`` (an integer) outcomes from the POVM at the true parameter value.

    The counts are ``default_rng(seed).multinomial(n, probs)`` bit for
    bit: the one-trial case of the draw :func:`crb_experiment` makes, so
    they equal that experiment's trial 0 at the same seed. A ``bool``
    ``true_lambda``, ``n`` or ``seed`` raises ``TypeError``.
    """
    n = _setting("n", n)
    _real("true_lambda", true_lambda)
    probs = _sampling_probs(povm, derivative(family, true_lambda))
    counts = _trial_counts(n, probs, seed, 1)[0]
    return SampleRecord(counts=counts, seed=seed)


def _finite_interval(search_interval) -> tuple:
    ends = tuple(search_interval)
    if len(ends) != 2:
        raise ValueError(f"search interval must have two ends, got {len(ends)}")
    for i, end in enumerate(ends):
        _real(f"search_interval[{i}]", end)
    lo, hi = map(float, ends)
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError(f"search interval must have a positive finite length, got ({lo}, {hi})")
    return lo, hi


def _amplitudes(weights: np.ndarray, eigvals: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """``sum_j weights[..., j] e^{-i lam e_j}`` for every ``lam``, as real ``[re, im]`` pairs.

    Shape ``(len(lams), *weights.shape[:-2], 2 * weights.shape[-2])``: the
    rank axis and the real and imaginary parts share the last axis, so
    ``Re(conj(A) B)`` is a product summed over it. The sum over the
    eigen index ``j`` is :func:`~fisherlab.measurement._short_sum`, with
    the reduction's bits at every ``d``, so row ``i`` depends on ``lams[i]``
    alone and not on how many points share the call.
    """
    phases = np.exp(-1j * lams[:, None] * eigvals)
    flat = weights.reshape(-1, weights.shape[-1])
    amps = _short_sum(flat * phases[:, None, :]).reshape(len(lams), *weights.shape[:-1])
    return amps.view(float)


def _score(derivs, eigvals, counts, observed, lams):
    """Log-likelihood slope ``L'`` and curvature ``L''`` of each row of ``counts`` at ``lams``.

    ``derivs`` stacks the weights of ``A``, ``dA`` and ``d2A``. With
    ``p = sum_r |A|^2``, ``p' = 2 Re sum_r conj(A) dA`` and
    ``p'' = 2 Re sum_r (|dA|^2 + conj(A) d2A)``, ``L' = sum_a c_a p'/p``
    and ``L'' = sum_a c_a (p''/p - (p'/p)^2)``. Outcomes never observed
    (``observed`` false) divide by 1 instead of their probability, so
    a zero count never meets an infinite ratio.
    """
    terms = _amplitudes(derivs, eigvals, lams)
    amps, damps, ddamps = terms[:, 0], terms[:, 1], terms[:, 2]
    probs = _short_sum(amps * amps)
    probs = np.where(observed, np.maximum(probs, _LOG_FLOOR), 1.0)
    slope = 2.0 * _short_sum(amps * damps) / probs
    bend = 2.0 * _short_sum(damps * damps + amps * ddamps) / probs - slope * slope
    return _short_sum(counts * slope), _short_sum(counts * bend)


def _mle(
    family: StateFamily, povm: Povm, counts: np.ndarray, n: int, lo: float, hi: float
) -> np.ndarray:
    """Maximum-likelihood estimates for every row of ``counts`` (shape ``(T, K)``).

    One grid scan shared by all trials, then the safeguarded Newton
    iteration :func:`mle_estimate` describes (``rtsafe``, Numerical
    Recipes 9.4), run in lockstep inside each trial's grid bracket
    ``[grid[pick - 1], grid[pick + 1]]``, each trial dropped once it has
    converged. Estimate ``t`` depends only on ``counts[t]``.

    Every sum over a last axis is :func:`~fisherlab.measurement._short_sum`,
    elementwise adds with the reduction's bits. The grid scan adds each
    outcome's ``counts * log p`` product into the ``(T, 256)`` grid
    values through a fixed ``(16, 256)`` buffer, 16 rows at a time, so
    the scan holds one full-size array. The 32 KB buffer sits below the
    mmap threshold, so it comes from the heap and is never trimmed; the
    adds are those of a full-size product, bit for bit.
    """
    if povm.dim != family.dim:
        raise DimMismatchError(f"POVM dim {povm.dim} does not match state dim {family.dim}")
    vecs, eigvals = family._eigvecs, family._eigvals
    # From the spectrum's midpoint: an offset h + cI is a global phase.
    eigvals = eigvals - 0.5 * (eigvals[0] + eigvals[-1])
    # Amplitude weights in the generator eigenbasis and their first two
    # lambda-derivatives, computed once.
    weights = (povm.rows @ vecs) * (vecs.conj().T @ family.input_state)
    derivs = np.stack([weights, -1j * eigvals * weights, -(eigvals**2) * weights])
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1] != len(povm):
        raise DimMismatchError(f"{counts.shape[-1]} counts for a {len(povm)}-outcome POVM")

    grid = np.linspace(lo, hi, _GRID_POINTS)
    amps = _amplitudes(weights, eigvals, grid)
    log_probs = np.log(np.maximum(_short_sum(amps * amps), _LOG_FLOOR))
    values = np.multiply(counts[:, 0, None], log_probs[:, 0])
    product = np.empty((_SCAN_ROWS, _GRID_POINTS))
    for r in range(0, len(counts), _SCAN_ROWS):
        slab, part = values[r : r + _SCAN_ROWS], product[: len(counts) - r]
        for k in range(1, counts.shape[-1]):
            slab += np.multiply(counts[r : r + _SCAN_ROWS, k, None], log_probs[:, k], out=part)
    rows, pick = np.arange(len(counts)), values.argmax(1)
    top = values[rows, pick]
    if np.any(top - values.min(1) < _FLAT_TOL * max(1.0, float(n))):
        raise FlatLikelihoodError("likelihood is flat over the search grid")

    # Each trial's first grid maximum; where another point reaches it too
    # (a tie), the tied point nearest the interval midpoint.
    values[rows, pick] = -np.inf
    tied = np.flatnonzero(values.max(1) == top)
    values[rows, pick] = top
    if tied.size:
        near = np.where(values[tied] == top[tied, None], np.abs(grid - 0.5 * (lo + hi)), np.inf)
        pick[tied] = near.argmin(1)
    left, right = np.maximum(pick - 1, 0), np.minimum(pick + 1, _GRID_POINTS - 1)
    below, above = values[rows, left] - top, values[rows, right] - top
    del values, product, slab, part
    a, b, curve = grid[left], grid[right], below + above
    # below, above <= 0 put the vertex within half a grid step of the pick;
    # on an interval end the clip to the bracket keeps the start on the pick.
    vertex = 0.5 * (grid[1] - grid[0]) * (below - above) / np.where(curve < 0.0, curve, -np.inf)
    x = np.minimum(np.maximum(grid[pick] + vertex, a), b)

    # The floor of a few float spacings keeps the stop reachable for
    # intervals far from the origin.
    tol = max((hi - lo) * 1e-10, 4.0 * float(np.spacing(max(abs(lo), abs(hi)))))
    # The first Newton step may cover at most half the bracket; each
    # later one must at least halve the step before it, else bisect.
    step = b - a
    out, observed = np.empty(len(counts)), counts > 0
    while True:
        slope, bend = _score(derivs, eigvals, counts, observed, x)
        # The maximum lies uphill; a zero slope collapses the bracket.
        a = np.where(slope >= 0.0, x, a)
        b = np.where(slope <= 0.0, x, b)
        newton = x - slope / np.where(bend < 0.0, bend, -np.inf)
        take = (bend < 0.0) & (np.abs(newton - x) <= 0.5 * step)
        take &= (a <= newton) & (newton <= b)
        here, x = x, np.where(take, newton, 0.5 * (a + b))
        step = np.abs(x - here)
        out[rows] = x
        live = (step > 0.5 * tol) & (b - a > tol)
        if live.all():
            continue
        if not live.any():
            return out
        rows, x, a, b, step = rows[live], x[live], a[live], b[live], step[live]
        counts, observed = counts[live], observed[live]


def mle_estimate(family: StateFamily, povm: Povm, record: SampleRecord, search_interval) -> float:
    """Maximum-likelihood estimate of the parameter from outcome counts.

    Scans a 256-point grid over the search interval, then refines
    between the best grid point's neighbours by a safeguarded Newton
    iteration on the score, from the vertex of the parabola through the
    three (Brent 1973, ch. 5) or, on an interval end or where they do
    not curve downward, from the point (4.4e-16 from a start there).
    Each step is a Newton step when the curvature is negative, the step
    stays in the bracket and it at most halves the previous one, a
    bisection otherwise. With ``tol = |interval| * 1e-10`` (at least four
    float spacings), it stops once a step is at most ``tol / 2``, the
    bracket at most ``tol`` or the slope exactly 0; a maximum on the
    interval's edge returns the edge. Grid ties go to the point nearest
    the interval midpoint. The interval's two ends and its length must be finite
    and hold at most one likelihood mode. This is the one-trial case of
    the batched search :func:`crb_experiment` runs, bit for bit.

    The estimate is the likelihood's maximum to rounding: on the paper
    qubit it equals the closed form ``lambda_0 + asin((c_+ - c_-)/n)``
    to 1e-12. A golden-section search compares likelihood values, so it
    stops on the float-noise plateau around the peak, a few 1e-8 wide;
    the two agree to 1e-7.

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
) -> CrbReport:
    """Run ``trials`` sample/estimate rounds of ``n`` shots (both integers); compare to the bound.

    Trial ``i``'s counts are row ``i`` of one
    ``default_rng(seed).multinomial(n, probs, size=trials)`` draw (trial 0
    is :func:`sample_outcomes` at ``seed``), and its estimate equals
    :func:`mle_estimate` on those counts; the report holds every estimate
    and the searched interval, ``true_lambda +- pi/2`` by default. A
    Fisher information at ``true_lambda`` of at most ``EPS_QFI * ||h||^2``
    (the SLD's stationarity threshold relative to the ceiling in
    ``F <= F_Q <= ||h||^2``) is zero to rounding and has no bound: it
    raises :class:`FlatLikelihoodError` before any draw. A ``bool``
    ``true_lambda``, ``n``, ``trials`` or ``seed`` raises ``TypeError``.
    """
    trials, n = _setting("trials", trials), _setting("n", n)
    _real("true_lambda", true_lambda)
    if search_interval is None:
        search_interval = (true_lambda - math.pi / 2.0, true_lambda + math.pi / 2.0)
    lo, hi = _finite_interval(search_interval)

    sd = derivative(family, true_lambda)
    fisher = classical_fisher(povm, sd)
    if not fisher > EPS_QFI * seminorm_bound(family):
        message = f"classical Fisher information is zero at true_lambda: F = {fisher:.3e}"
        raise FlatLikelihoodError(message)
    probs = _sampling_probs(povm, sd)
    counts = _trial_counts(n, probs, seed, trials)
    estimates = _mle(family, povm, counts, n, lo, hi)
    crb = 1.0 / math.sqrt(n * fisher)
    return CrbReport(crb=crb, estimates=tuple(estimates.tolist()), interval=(lo, hi))
