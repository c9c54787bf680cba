"""Monte-Carlo check of the Cramer-Rao bound.

Samples measurement outcomes at a known true parameter, recovers the
parameter by maximum likelihood over many independent trials, and
compares the empirical spread of the estimates with the bound
``1/sqrt(n * F)``. Maximum likelihood is asymptotically efficient, so
for large shot counts the ratio should hover just above 1.

All trials run as one batch. The outcome distribution at the true
parameter is computed once; trial ``i`` draws its counts from exactly
the ``default_rng(seed + i)`` stream. Those streams are derived for all
trials in one pass: NumPy's ``SeedSequence`` hash (NEP 19) runs over
every trial's seed words at once in uint32 array arithmetic, PCG64's
``setseq_128`` seeding step turns each result into a starting state,
and one reused generator draws from each state in turn. Tests pin the
counts against NumPy's own ``default_rng``.

The likelihood and its first two derivatives are evaluated from
amplitude weights in the generator eigenbasis, precomputed once per
experiment; the 256-point grid scan is shared by every trial, and a
safeguarded Newton iteration on the score refines every trial in
lockstep. Each trial converges to the likelihood's
maximum to rounding (1e-12 of the closed-form estimate on the paper
qubit), in about four steps. Every reduction is per trial, so trial
``i``'s estimate depends only on (settings, seed + i): it is the same
bit for bit whether it runs alone or in a batch of any size, and a
report is a pure function of (settings, seed).

Caveat for periodic families: the likelihood is multimodal over a full
period. The default search interval, ``true_lambda +- pi/2``, stays
inside one mode for qubit phase families; wider intervals are the
caller's responsibility.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .audit import _write_text
from .errors import DimMismatchError, FlatLikelihoodError
from .measurement import Povm, classical_fisher, outcome_distribution
from .metrology import EPS_QFI, seminorm_bound
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
# Floor for probabilities: keeps the log-likelihood and the score finite
# at p = 0 without moving the argmax.
_LOG_FLOOR = 1e-300


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


# NumPy's SeedSequence hash (NEP 19): pool size, hash and mix constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# The 128-bit LCG multiplier of PCG64 (O'Neill's setseq_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k = 0..count``, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` under ``len(consts) - 1`` successive hash constants.

    Call ``k`` xors with ``consts[k]`` and multiplies by ``consts[k + 1]``;
    ``values`` broadcasts against the calls along the first axis.
    """
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ mixed >> _XSHIFT


def _pcg64_states(seed: int, trials: int) -> list:
    """PCG64 ``(state, inc)`` pairs that ``default_rng(seed + i)`` starts from, ``i < trials``.

    Runs SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)``
    for every trial at once in uint32 array arithmetic, one column per
    trial, then PCG64's seeding step ``pcg_setseq_128_srandom_r``.
    """
    width = max(_POOL_SIZE, -(-(seed + trials - 1).bit_length() // 32))
    raw = b"".join((seed + i).to_bytes(4 * width, "little") for i in range(trials))
    words = np.frombuffer(raw, dtype="<u4").reshape(trials, width).T.astype(np.uint32)
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * width)
    # SeedSequence hashes a 0 into each pool slot past a seed's last word,
    # so zero padding to the pool size is exact.
    pool = _hashmix(words[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [slot for slot in range(_POOL_SIZE) if slot != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[used : used + len(dst) + 1]))
        used += len(dst)
    for k in range(_POOL_SIZE, width):
        # A word past the pool mixes into every slot, for the seeds that have it.
        mixed = _mix(pool, _hashmix(words[k], consts[used : used + _POOL_SIZE + 1]))
        pool = np.where(words[k:].any(0), mixed, pool)
        used += _POOL_SIZE
    out = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    # uint64 word j is out[2j] | out[2j + 1] << 32, whatever the byte order.
    out = out.astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = (out[0::2] | out[1::2] << 32).tolist()
    states = []
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _trial_counts(n: int, probs: np.ndarray, seed: int, trials: int) -> np.ndarray:
    """Multinomial counts of ``trials`` trials, shape ``(trials, len(probs))``.

    Row ``i`` is ``default_rng(seed + i).multinomial(n, probs)`` bit for
    bit: the starting states of all those streams are derived in one
    pass and set in turn on a single reused generator.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    generator = np.random.Generator(np.random.PCG64(0))
    rows = []
    for state, inc in _pcg64_states(seed, trials):
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rows.append(generator.multinomial(n, probs))
    return np.array(rows)


def sample_outcomes(
    povm: Povm, family: StateFamily, true_lambda: float, n: int, seed: int
) -> SampleRecord:
    """Draw ``n`` (an integer) outcomes from the POVM at the true parameter value.

    The counts are ``default_rng(seed).multinomial(n, probs)`` bit for
    bit: this is the one-trial case of the draws :func:`crb_experiment`
    makes, which derive every trial's stream in one pass. Tests pin it
    against NumPy's ``default_rng``.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    probs = _sampling_probs(povm, derivative(family, true_lambda))
    counts = _trial_counts(n, probs, seed, 1)[0]
    return SampleRecord(counts=counts, n=n, seed=int(seed))


def _finite_interval(search_interval) -> tuple:
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo and math.isfinite(hi - lo)):
        raise ValueError(
            f"search interval must be finite with positive finite length, got ({lo}, {hi})"
        )
    return lo, hi


def _amplitudes(weights: np.ndarray, eigvals: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """``sum_j weights[..., j] e^{-i lam e_j}`` for every ``lam``, as real ``[re, im]`` pairs.

    Shape ``(len(lams), *weights.shape[:-2], 2 * weights.shape[-2])``: the
    rank axis and the real and imaginary parts share the last axis, so
    ``Re(conj(A) B)`` is a product summed over it. Every sum runs over
    the last, contiguous axis, so row ``i`` depends on ``lams[i]`` alone
    and not on how many points share the call.
    """
    phases = np.exp(-1j * lams[:, None] * eigvals)
    flat = weights.reshape(-1, weights.shape[-1])
    amps = (flat * phases[:, None, :]).sum(-1).reshape(len(lams), *weights.shape[:-1])
    return amps.view(float)


def _outcome_sum(counts: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``sum_a counts[..., a] * terms[..., a]``, accumulated one outcome at a time.

    Elementwise accumulation over the short outcome axis is an order of
    magnitude faster than a reduction over it; for two outcomes the sum
    is the same bit for bit.
    """
    total = counts[..., 0] * terms[..., 0]
    for a in range(1, counts.shape[-1]):
        total += counts[..., a] * terms[..., a]
    return total


def _score(derivs: np.ndarray, eigvals: np.ndarray, counts: np.ndarray, lams: np.ndarray):
    """Log-likelihood slope ``L'`` and curvature ``L''`` of each row of ``counts`` at ``lams``.

    ``derivs`` stacks the weights of ``A``, ``dA`` and ``d2A``. With
    ``p = sum_r |A|^2``, ``p' = 2 Re sum_r conj(A) dA`` and
    ``p'' = 2 Re sum_r (|dA|^2 + conj(A) d2A)``, ``L' = sum_a c_a p'/p``
    and ``L'' = sum_a c_a (p''/p - (p'/p)^2)``. Outcomes never observed
    divide by 1 instead of their probability, so a zero count never
    meets an infinite ratio.
    """
    amps, damps, ddamps = np.moveaxis(_amplitudes(derivs, eigvals, lams), 1, 0)
    probs = (amps * amps).sum(-1)
    probs = np.where(counts > 0, np.maximum(probs, _LOG_FLOOR), 1.0)
    slope = 2.0 * (amps * damps).sum(-1) / probs
    bend = 2.0 * (damps * damps + amps * ddamps).sum(-1) / probs - slope * slope
    return _outcome_sum(counts, slope), _outcome_sum(counts, bend)


def _mle(
    family: StateFamily, povm: Povm, counts: np.ndarray, n: int, lo: float, hi: float
) -> np.ndarray:
    """Maximum-likelihood estimates for every row of ``counts`` (shape ``(T, K)``).

    One grid scan shared by all trials, then the safeguarded Newton
    iteration :func:`mle_estimate` describes (``rtsafe``, Numerical
    Recipes 9.4), run in lockstep inside each trial's grid bracket
    ``[grid[pick - 1], grid[pick + 1]]``, each trial frozen once it has
    converged. Estimate ``t`` depends only on ``counts[t]``.
    """
    if povm.dim != family.dim:
        raise DimMismatchError("POVM dim does not match family dim")
    vecs, eigvals = family._eigvecs, family._eigvals
    # Amplitude weights in the generator eigenbasis and their first two
    # lambda-derivatives, computed once.
    weights = (povm.rows @ vecs) * (vecs.conj().T @ family.input_state)
    derivs = np.stack([weights, -1j * eigvals * weights, -(eigvals**2) * weights])
    counts = np.asarray(counts, dtype=float)

    grid = np.linspace(lo, hi, _GRID_POINTS)
    amps = _amplitudes(weights, eigvals, grid)
    log_probs = np.log(np.maximum((amps * amps).sum(-1), _LOG_FLOOR))
    values = _outcome_sum(counts[:, None, :], log_probs)
    top = values.max(1)
    if np.any(top - values.min(1) < _FLAT_TOL * max(1.0, float(n))):
        raise FlatLikelihoodError("likelihood is flat over the search grid")

    # Grid ties go to the point nearest the interval midpoint.
    distance = np.where(values == top[:, None], np.abs(grid - 0.5 * (lo + hi)), np.inf)
    pick = np.argmin(distance, axis=1)
    x = grid[pick]
    a = grid[np.maximum(pick - 1, 0)]
    b = grid[np.minimum(pick + 1, _GRID_POINTS - 1)]

    # The floor of a few float spacings keeps the stop reachable for
    # intervals far from the origin.
    tol = max((hi - lo) * 1e-10, 4.0 * float(np.spacing(max(abs(lo), abs(hi)))))
    # The first Newton step may cover at most half the bracket; each
    # later one must at least halve the step before it, else bisect.
    step = b - a
    live = np.arange(len(counts))
    while live.size:
        here = x[live]
        slope, bend = _score(derivs, eigvals, counts[live], here)
        # The maximum lies uphill; a zero slope collapses the bracket.
        a[live] = lo_end = np.where(slope >= 0.0, here, a[live])
        b[live] = hi_end = np.where(slope <= 0.0, here, b[live])
        newton = here - slope / np.where(bend < 0.0, bend, -np.inf)
        take = (bend < 0.0) & (np.abs(newton - here) <= 0.5 * step[live])
        take &= (lo_end <= newton) & (newton <= hi_end)
        x[live] = np.where(take, newton, 0.5 * (lo_end + hi_end))
        step[live] = np.abs(x[live] - here)
        live = live[(step[live] > 0.5 * tol) & (hi_end - lo_end > tol)]
    return x


def mle_estimate(family: StateFamily, povm: Povm, record: SampleRecord, search_interval) -> float:
    """Maximum-likelihood estimate of the parameter from outcome counts.

    Scans a 256-point grid over the search interval, then refines
    between the best grid point's neighbours by a safeguarded Newton
    iteration on the score: a Newton step when the curvature is negative,
    the step stays in the bracket and it at most halves the previous
    one, a bisection otherwise. With ``tol = |interval| * 1e-10`` (at
    least four float spacings), it stops once a step is at most
    ``tol / 2``, the bracket at most ``tol`` or the slope exactly 0; a
    maximum on the interval's edge returns the edge. Grid ties are broken
    toward the interval midpoint. The interval and its length must be
    finite, and it must contain at most one likelihood mode. This is the
    one-trial case of the batched
    search :func:`crb_experiment` runs, and gives the same estimate bit
    for bit.

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
    csv_path=None,
) -> CrbReport:
    """Run ``trials`` sample/estimate rounds of ``n`` shots (both integers); compare to the bound.

    Trial ``i`` draws its counts from exactly the ``default_rng(seed + i)``
    stream, as :func:`sample_outcomes` would, and its estimate equals
    :func:`mle_estimate` on those counts. The streams of all trials are
    derived in one pass (see the module docstring); tests pin them
    against NumPy's ``default_rng``. When ``csv_path`` is given, the
    per-trial estimates are written as CSV with the settings echoed in a
    leading ``#`` comment line and a final summary row holding the
    empirical standard deviation; an existing file is overwritten in
    place and trimmed to the new length. A Fisher information at
    ``true_lambda`` of at most ``EPS_QFI * ||h||^2`` (the SLD's
    stationarity threshold relative to the ceiling in
    ``F <= F_Q <= ||h||^2``) is zero to rounding and has no bound: it
    raises :class:`FlatLikelihoodError` before any draw.
    """
    n, trials = operator.index(n), operator.index(trials)
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
    if not fisher > EPS_QFI * seminorm_bound(family):
        message = f"classical Fisher information is zero at true_lambda: F = {fisher:.3e}"
        raise FlatLikelihoodError(message)
    probs = _sampling_probs(povm, sd)
    counts = _trial_counts(n, probs, seed, trials)
    estimates = _mle(family, povm, counts, n, lo, hi)
    crb = 1.0 / math.sqrt(n * fisher)
    empirical_std = float(np.std(estimates, ddof=1))
    report = CrbReport(
        empirical_std=empirical_std,
        crb=crb,
        ratio=empirical_std / crb,
        trials=trials,
    )
    if csv_path is not None:
        _write_trials_csv(csv_path, estimates, report, true_lambda, n, seed, search_interval)
    return report


def _write_trials_csv(path, estimates, report, true_lambda, n, seed, interval) -> None:
    rows = "".join([f"{i},{value:.17g}\n" for i, value in enumerate(estimates.tolist())])
    _write_text(
        path,
        f"# true_lambda={true_lambda:.17g} n={n} trials={report.trials} seed={seed} "
        f"interval=({interval[0]:.17g},{interval[1]:.17g})\n"
        f"trial,estimate\n{rows}summary,{report.empirical_std:.17g}\n",
    )
