"""POVMs, outcome statistics, classical Fisher information and entropy.

The classical Fisher information sums ``(dp_a)^2 / p_a`` over outcomes.
Outcomes with vanishing probability are a 0/0 limit, not a discardable
term: for an effect that annihilates the state, ``p(lam + d) ~ d^2
<dpsi|E|dpsi>`` and ``dp(lam + d) ~ 2 d <dpsi|E|dpsi>``, so the term
tends to ``4 <dpsi|E|dpsi>``. Dropping such terms would report zero
information for measurements that are in fact optimal; the limit rule
below is what keeps those cases correct.

Every measurement is stored as amplitude rows ``M_a`` with
``E_a = M_a^H M_a``, and statistics come from the amplitudes ``M_a psi``
and ``M_a dpsi``: ``p_a = |M_a psi|^2`` keeps full relative precision
where ``<psi|E_a|psi>`` on a dense effect would lose it to cancellation,
and the limit term is ``4 |M_a dpsi|^2``.

Shannon entropies are in nats throughout (natural log).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidQError
from .metrology import SldData
from .numerics import as_state_vector, require_hermitian
from .state_family import StateAndDerivative

__all__ = [
    "EPS_PROB",
    "Povm",
    "OutcomeDistribution",
    "outcome_distribution",
    "classical_fisher",
    "shannon_entropy",
    "sld_measurement",
    "q_family_measurement",
    "rotated_qubit_measurement",
]

# Probabilities at or below this are treated as the vanishing-outcome
# limit in the Fisher sum.
EPS_PROB = 1e-10

# Both checks are written as ``not value <= tol`` (or ``>=``) so that a
# NaN from non-finite input fails them instead of slipping through.
_PSD_TOL = -1e-10
_COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """A finite positive-operator-valued measure stored as amplitude rows.

    ``rows`` has shape ``(K, r, d)``: outcome ``a`` has the effect
    ``E_a = rows[a]^H rows[a]``, positive semidefinite by construction,
    and all-zero rows pad outcomes of rank below ``r``. The effects must
    sum to the identity to 1e-9 in max-entry deviation. Labels identify
    outcomes and survive every transformation the package applies.
    """

    rows: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=complex)
        if rows.ndim != 3 or rows.shape[0] < 1 or rows.shape[2] < 1:
            raise DimMismatchError(f"POVM rows must have shape (K, r, d), got {rows.shape}")
        flat = rows.reshape(-1, rows.shape[2])
        deviation = np.max(np.abs(flat.conj().T @ flat - np.eye(rows.shape[2])))
        if not deviation <= _COMPLETENESS_TOL:
            raise ValueError(f"effects sum to identity only within {deviation:.3e}")
        labels = tuple(self.labels) if self.labels else tuple(f"E{i}" for i in range(len(rows)))
        if len(labels) != len(rows):
            raise ValueError("label count does not match effect count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_effects(cls, effects, labels=()) -> "Povm":
        """POVM from explicit effect matrices, each factored into amplitude rows.

        Effects must be Hermitian and positive semidefinite to rounding
        (smallest eigenvalue >= -1e-10). One batched ``eigh`` gives both
        the PSD check and the rows ``sqrt(w) v^H``.
        """
        mats = [require_hermitian(e) for e in effects]
        if not mats:
            raise DimMismatchError("a POVM needs at least one effect")
        if len({m.shape for m in mats}) != 1:
            raise DimMismatchError("POVM effects have mixed dimensions")
        weights, vecs = np.linalg.eigh(np.stack(mats))
        lowest = np.min(weights)
        if not lowest >= _PSD_TOL:
            raise ValueError(f"effect has negative eigenvalue {lowest:.3e}")
        rows = np.sqrt(np.maximum(weights, 0.0))[..., None] * vecs.conj().swapaxes(1, 2)
        return cls(rows=rows, labels=labels)

    @property
    def effects(self) -> np.ndarray:
        """Effect matrices ``E_a = rows[a]^H rows[a]``, shape ``(K, d, d)``."""
        return self.rows.conj().swapaxes(1, 2) @ self.rows

    @property
    def dim(self) -> int:
        return self.rows.shape[2]

    def __len__(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome probabilities and their parameter derivatives."""

    probs: np.ndarray
    dprobs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        dprobs = np.asarray(self.dprobs, dtype=float)
        if probs.shape != dprobs.shape or probs.ndim != 1:
            raise DimMismatchError("probs and dprobs must be 1-d arrays of equal length")
        # Negated comparisons, so that NaN entries fail the checks too.
        if not np.min(probs) >= -1e-12:
            raise ValueError(f"negative probability {np.min(probs):.3e}")
        if not abs(probs.sum() - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if not abs(dprobs.sum()) <= 1e-9:
            raise ValueError(f"probability derivatives sum to {dprobs.sum():.3e}, not 0")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "dprobs", dprobs)


def _born_terms(povm: Povm, sd: StateAndDerivative):
    """Per-outcome ``p``, ``dp`` and vanishing-probability limit ``4 |M_a dpsi|^2``.

    With amplitudes ``A = M_a psi`` and ``dA = M_a dpsi``, ``p = |A|^2``
    and ``dp = 2 Re(conj(dA) A)``, each summed over the outcome's rows.
    Working on amplitudes keeps ``p`` accurate to relative rounding even
    when the state is nearly orthogonal to the outcome.
    """
    if povm.dim != sd.dim:
        raise DimMismatchError(f"POVM dim {povm.dim} does not match state dim {sd.dim}")
    # Real views interleave (Re, Im), so row sums of products give
    # sum_r |A|^2, sum_r Re(conj(dA) A) and sum_r |dA|^2.
    amps = (povm.rows @ sd.state).view(float)
    damps = (povm.rows @ sd.dstate).view(float)
    return (amps * amps).sum(1), 2.0 * (damps * amps).sum(1), 4.0 * (damps * damps).sum(1)


def outcome_distribution(povm: Povm, sd: StateAndDerivative) -> OutcomeDistribution:
    """Born-rule probabilities ``<psi|E|psi>`` and derivatives ``2 Re<dpsi|E|psi>``."""
    probs, dprobs, _ = _born_terms(povm, sd)
    return OutcomeDistribution(probs=np.minimum(probs, 1.0), dprobs=dprobs)


def classical_fisher(povm: Povm, sd: StateAndDerivative) -> float:
    """Fisher information of the POVM's outcome distribution.

    Sums ``(dp_a)^2 / p_a``, replacing each vanishing-probability term
    (``p_a <= EPS_PROB``) with its limit ``4 |M_a dpsi|^2``, which equals
    ``4 <dpsi|E_a|dpsi>``.
    """
    probs, dprobs, limits = _born_terms(povm, sd)
    regular = probs > EPS_PROB
    return float(np.where(regular, dprobs**2 / np.maximum(probs, EPS_PROB), limits).sum())


def shannon_entropy(dist) -> float:
    """Shannon entropy ``-sum p ln p`` in nats, with ``0 ln 0 = 0``.

    Accepts an :class:`OutcomeDistribution` or any probability sequence.
    """
    probs = np.asarray(getattr(dist, "probs", dist), dtype=float)
    positive = probs[probs > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def _complete(kets: np.ndarray, labels: tuple) -> Povm:
    """Projective POVM onto orthonormal ``kets``, one bra row per outcome.

    When the kets leave part of the space uncovered (dimension > 2), a
    lumped "rest" outcome is appended whose rows are the complement
    projector itself, since ``P^H P = P``.
    """
    bras = kets.conj()
    count, dim = bras.shape
    if dim <= 2:
        return Povm(rows=bras[:, None, :], labels=labels)
    rows = np.zeros((count + 1, dim, dim), dtype=complex)
    rows[:count, 0] = bras
    rows[count] = np.eye(dim) - kets.T @ bras
    return Povm(rows=rows, labels=labels + ("rest",))


def sld_measurement(sldd: SldData) -> Povm:
    """Projective measurement onto the SLD eigenbasis.

    Effects are the projectors onto the ``+-2/N`` eigenstates plus, for
    dimension > 2, one lumped complement covering the null space. The
    complement annihilates both the state and its derivative, so its
    probability and its Fisher contribution are zero.
    """
    return _complete(np.stack([sldd.plus_state, sldd.minus_state]), ("+", "-"))


def q_family_measurement(sldd: SldData, state, q: float) -> Povm:
    """Optimal projective measurement with tunable outcome bias ``q``.

    Projects onto ``sqrt(q)|psi> + sqrt(1-q)|perp>`` and its orthogonal
    partner ``sqrt(1-q)|psi> - sqrt(q)|perp>``. Every member extracts the
    full quantum Fisher information while the outcome distribution is
    ``(q, 1-q)``, so the entropy sweeps the whole range [0, ln 2].
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidQError(f"q must lie in [0, 1], got {q!r}")
    psi = as_state_vector(state)
    if psi.size != sldd.tangent.size:
        raise DimMismatchError("state dim does not match SLD data dim")
    ket_q = np.sqrt(q) * psi + np.sqrt(1.0 - q) * sldd.tangent
    ket_qbar = np.sqrt(1.0 - q) * psi - np.sqrt(q) * sldd.tangent
    return _complete(np.stack([ket_q, ket_qbar]), ("q", "qbar"))


def rotated_qubit_measurement(phi: float) -> Povm:
    """Qubit measurement along the equatorial axis at angle ``phi``.

    Projects onto ``(|0> +- e^{i phi}|1>)/sqrt(2)``, the eigenstates of
    ``cos(phi) sigma_x + sin(phi) sigma_y``.
    """
    phase = np.exp(1j * phi)
    kets = np.array([[1.0, phase], [1.0, -phase]], dtype=complex) / np.sqrt(2.0)
    return _complete(kets, ("+", "-"))
