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
and ``M_a t`` of the state and its tangent ``t`` (see
:class:`~fisherlab.state_family.StateAndDerivative`): ``p_a = |M_a psi|^2``
keeps full relative precision where ``<psi|E_a|psi>`` on a dense effect
would lose it to cancellation, and the limit term is ``4 |M_a t|^2``.

Shannon entropies are in nats throughout (natural log).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidQError
from .metrology import SldData
from .numerics import require_hermitian
from .state_family import StateAndDerivative, _real

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
# Stacks of up to this many products K r d^2 (a qubit's up to 16 rows) form their Gram
# elementwise, so qubit-only processes never fault in zgemm; the matmul is faster.
_ELEMENTWISE_GRAM = 64
# The rank-1 residual of explicit effects is formed this many effects at a time, so
# its temporaries are a few effects' size, not the stack's.
_RESIDUAL_EFFECTS = 4


def _short_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(-1)`` bit for bit, as elementwise adds over a short last axis.

    Short-axis rule: NumPy's reduction adds fewer than 8 float64s (4
    complex128s) one at a time onto +0.0, and more in pairwise blocks.
    The same adds over all leading axes at once are an order of magnitude
    faster; longer and empty axes run the reduction. Skipping the +0.0
    start, as costly as the adds on small stacks, only turns the sum of a
    row of -0.0 alone into -0.0. Each entry is summed from its own row alone.
    """
    if not 0 < terms.shape[-1] * terms.itemsize < 64:
        return terms.sum(-1)
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total


@dataclass(frozen=True, eq=False)
class Povm:
    """A finite positive-operator-valued measure stored as amplitude rows.

    ``rows`` has shape ``(K, r, d)``: outcome ``a`` has the effect
    ``E_a = rows[a]^H rows[a]``, positive semidefinite by construction,
    and all-zero rows pad outcomes of rank below ``r``. The effects must
    sum to the identity to 1e-9 in max-entry deviation.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=complex)
        if rows.ndim != 3 or rows.shape[0] < 1 or rows.shape[2] < 1:
            raise DimMismatchError(f"POVM rows must have shape (K, r, d), got {rows.shape}")
        _check_complete(rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_effects(cls, effects) -> "Povm":
        """POVM from explicit effect matrices, each factored into amplitude rows.

        Effects must be Hermitian and positive semidefinite to rounding
        (smallest eigenvalue >= -1e-10). A rank-1 stack gets one row ``v^H``
        per effect, ``v = E[:, j] / sqrt(E[j, j])`` at the largest diagonal
        entry, if every such pivot is > 0 and ``max|E - v v^H| <= b``, where
        ``b = 8 d eps`` times the largest pivot and ``d b <= 1e-11``. The
        triangle ``eigh`` reads is then within ``b`` of ``v v^H`` (PSD) per entry,
        so its eigenvalues are >= -d b and its PSD check would pass. Any other
        stack takes one batched ``eigh``: the PSD check and the rows ``sqrt(w) v^H``.
        A complex ``(K, d, d)`` array is that stack as it is, with no copy; other
        inputs are stacked once. The residual is formed ``_RESIDUAL_EFFECTS``
        effects at a time, and a NaN or overflow in it fails the bound.
        """
        mats = [require_hermitian(e) for e in effects]
        if not mats:
            raise DimMismatchError("a POVM needs at least one effect")
        if len({m.shape for m in mats}) != 1:
            raise DimMismatchError("POVM effects have mixed dimensions")
        # A complex array is its own stack: its checked matrices are views into it.
        own = isinstance(effects, np.ndarray) and effects.dtype == complex
        stack = effects if own else np.stack(mats)
        index = np.arange(len(stack))
        pivot = stack.diagonal(axis1=1, axis2=2).real.argmax(1)
        heights = stack[index, pivot, pivot].real
        bound = 8 * stack.shape[1] * np.finfo(float).eps * heights.max()
        if heights.min() > 0.0 and stack.shape[1] * bound <= 1e-11:
            # An effect far from rank-1 PSD may overflow here; it then fails the bound.
            with np.errstate(over="ignore", invalid="ignore"):
                kets = stack[index, :, pivot] / np.sqrt(heights)[:, None]
                for low in range(0, len(stack), _RESIDUAL_EFFECTS):
                    part = kets[low : low + _RESIDUAL_EFFECTS]
                    residual = part[:, :, None] * part[:, None, :].conj()
                    residual -= stack[low : low + _RESIDUAL_EFFECTS]
                    if not np.abs(residual).max() <= bound:  # NaN fails too
                        break
                else:
                    return cls(rows=kets.conj()[:, None, :])
        weights, vecs = np.linalg.eigh(stack)
        lowest = np.min(weights)
        if not lowest >= _PSD_TOL:
            raise ValueError(f"effect has negative eigenvalue {lowest:.3e}")
        rows = np.sqrt(np.maximum(weights, 0.0))[..., None] * vecs.conj().swapaxes(1, 2)
        return cls(rows=rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[2]

    def __len__(self) -> int:
        return self.rows.shape[0]


def _check_complete(rows: np.ndarray) -> None:
    """Require the effects ``rows[a]^H rows[a]`` of a ``(K, r, d)`` stack to sum to I to 1e-9.

    The Gram of the ``(K r, d)`` rows is summed from elementwise products up to
    ``_ELEMENTWISE_GRAM`` of them (no zgemm pages), and is the faster matmul above.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    small = flat.size * flat.shape[1] <= _ELEMENTWISE_GRAM
    gram = (flat.conj()[:, :, None] * flat[:, None, :]).sum(0) if small else flat.conj().T @ flat
    deviation = np.max(np.abs(gram - np.eye(flat.shape[1])))
    _require_identity(deviation, _COMPLETENESS_TOL)


def _require_identity(deviation, tol: float) -> None:
    if not deviation <= tol:
        raise ValueError(f"effects sum to identity only within {deviation:.3e}")


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome probabilities and their parameter derivatives, outcomes on the last axis."""

    probs: np.ndarray
    dprobs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        dprobs = np.asarray(self.dprobs, dtype=float)
        if probs.shape != dprobs.shape or probs.ndim < 1:
            raise DimMismatchError("probs and dprobs must be arrays of equal shape")
        # Negated comparisons, so that NaN entries fail the checks too; an
        # empty (0, K) stack passes them.
        lowest = probs.min(initial=0.0)
        if not lowest >= -1e-12:
            raise ValueError(f"negative probability {lowest:.3e}")
        deviation = abs(_short_sum(probs) - 1.0).max(initial=0.0)
        if not deviation <= 1e-9:
            raise ValueError(f"probabilities sum to 1 only within {deviation:.3e}")
        drift = abs(_short_sum(dprobs)).max(initial=0.0)
        if not drift <= 1e-9:
            raise ValueError(f"probability derivatives sum to 0 only within {drift:.3e}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "dprobs", dprobs)


def _born_terms(rows: np.ndarray, state: np.ndarray, tangent: np.ndarray):
    """Per-outcome ``p``, ``dp`` and vanishing-probability limit ``4 |M_a t|^2``.

    ``rows`` has shape ``(..., K, r, d)``; the results have shape
    ``(..., K)``. With amplitudes ``A = M_a psi`` and ``dA = M_a t``,
    ``p = |A|^2`` and ``dp = 2 Re(conj(dA) A)``, each summed over the
    outcome's rows. Working on amplitudes keeps ``p`` accurate to
    relative rounding even when the state is nearly orthogonal to the
    outcome.
    """
    if rows.shape[-1] != state.size:
        raise DimMismatchError(f"POVM dim {rows.shape[-1]} does not match state dim {state.size}")
    # Real views interleave (Re, Im), so row sums of products give
    # sum_r |A|^2, sum_r Re(conj(dA) A) and sum_r |dA|^2.
    amps = (rows @ state).view(float)
    damps = (rows @ tangent).view(float)
    return _short_sum(amps * amps), 2.0 * _short_sum(damps * amps), 4.0 * _short_sum(damps * damps)


def _fisher_sum(probs, dprobs, limits):
    """The Fisher sum of :func:`classical_fisher` over the last axis of the Born terms."""
    regular = probs > EPS_PROB
    return _short_sum(np.where(regular, dprobs**2 / np.maximum(probs, EPS_PROB), limits))


def outcome_distribution(povm: Povm, sd: StateAndDerivative) -> OutcomeDistribution:
    """Born-rule probabilities ``<psi|E|psi>`` and derivatives ``2 Re<t|E|psi>``."""
    probs, dprobs, _ = _born_terms(povm.rows, sd.state, sd.tangent)
    return OutcomeDistribution(probs=np.minimum(probs, 1.0), dprobs=dprobs)


def classical_fisher(povm: Povm, sd: StateAndDerivative) -> float:
    """Fisher information of the POVM's outcome distribution.

    Sums ``(dp_a)^2 / p_a``, replacing each vanishing-probability term
    (``p_a <= EPS_PROB``) with its limit ``4 |M_a t|^2 = 4 <t|E_a|t>``.
    """
    return float(_fisher_sum(*_born_terms(povm.rows, sd.state, sd.tangent)))


def shannon_entropy(dist):
    """Shannon entropy ``-sum p ln p`` in nats, with ``0 ln 0 = 0``.

    Accepts an :class:`OutcomeDistribution` or any probability array and
    sums over its last axis: a float for one distribution, an array for
    a stack of them.
    """
    probs = np.asarray(getattr(dist, "probs", dist), dtype=float)
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    entropy = -_short_sum(probs * logs)
    return float(entropy) if entropy.ndim == 0 else entropy


def _complement(bras: np.ndarray) -> np.ndarray:
    """The projector ``I - bras^H bras`` onto the complement of span(``bras^H``).

    A projector is its own amplitude row set, since ``P^H P = P``.
    """
    return np.eye(bras.shape[-1]) - bras.conj().T @ bras


def _gram_deviation(x, y):
    """Largest entry of ``[x y]^H [x y] - I``, each inner product summed over the last axis.

    The (0, 1) entry is conjugated, which complex columns need; NaN gives NaN.
    """
    norms = [abs(_short_sum((v.conj() * v).real) - 1.0) for v in (x, y)]
    return np.maximum(abs(_short_sum(x.conj() * y)), np.maximum(*norms)).max(initial=0.0)


def _plane_terms(sd: StateAndDerivative, coeffs: np.ndarray, basis: np.ndarray):
    """Born terms ``(G, K)`` of the projective measurements with bras ``coeffs[g] @ basis``.

    ``basis`` (``V``, ``(2, d)``) has orthonormal rows; ``coeffs`` is ``(G, 2, 2)``. The
    state and tangent are projected once, and each outcome's amplitudes
    ``C[:, a, 0] psi_0 + C[:, a, 1] psi_1`` are taken elementwise on ``(G,)`` columns.
    When ``d > 2`` every point shares one more outcome, ``P = I - V^H V``, whose
    amplitudes ``psi - V^H V psi`` are taken once.
    Point g's effect sum minus I is ``V^H (C^H C - I + V V^H - I) V`` (``C = coeffs[g]``),
    or ``V^H (C^H C - I) V - P`` at ``d = 2``, where ``P`` has the spectrum of ``I - V V^H``.
    With ``eps`` and ``delta`` bounding the entries of ``C^H C - I`` and ``V V^H - I``,
    entry (i, j) of ``V^H M V`` is at most ``max|M| (|V_0i| + |V_1i|)(|V_0j| + |V_1j|)
    <= 2 max|M| ||V||^2``, ``||V||^2 <= 1 + 2 delta``, and ``P``'s are at most ``2 delta``.
    Checks at 1e-9/4 apiece keep each point within ``2 (eps + delta)(1 + 2 delta)``,
    which is 1e-9 plus 5e-19, less than the rounding of any check.
    """
    tol = _COMPLETENESS_TOL / 4.0
    _require_identity(_gram_deviation(*basis), tol)
    _require_identity(_gram_deviation(coeffs[:, :, 0], coeffs[:, :, 1]), tol)
    psi, tan = basis @ sd.state, basis @ sd.tangent
    terms = np.empty((3, len(coeffs), 2 + (basis.shape[1] > 2)))
    probs, dprobs, limits = terms
    for a, (first, second) in enumerate(coeffs.transpose(1, 2, 0)):  # columns C[:, a, j]
        amp = first * psi[0] + second * psi[1]
        damp = first * tan[0] + second * tan[1]
        probs[:, a] = amp.real * amp.real + amp.imag * amp.imag
        dprobs[:, a] = 2.0 * (damp.real * amp.real + damp.imag * amp.imag)
        limits[:, a] = 4.0 * (damp.real * damp.real + damp.imag * damp.imag)
    if basis.shape[1] > 2:
        rest, drest = sd.state - psi @ basis.conj(), sd.tangent - tan @ basis.conj()
        probs[:, 2], limits[:, 2] = np.vdot(rest, rest).real, 4.0 * np.vdot(drest, drest).real
        dprobs[:, 2] = 2.0 * np.vdot(drest, rest).real
    return probs, dprobs, limits


def _complete(bras: np.ndarray) -> Povm:
    """Projective POVM with one orthonormal bra row per outcome.

    When the bras leave part of the space uncovered, a lumped "rest"
    outcome with the :func:`_complement` rows is appended.
    """
    count, dim = bras.shape
    if dim <= 2:  # two orthonormal bras span the space
        return Povm(rows=bras[:, None, :])
    rows = np.zeros((count + 1, dim, dim), dtype=complex)
    rows[:count, 0] = bras
    rows[count] = _complement(bras)
    return Povm(rows=rows)


def sld_measurement(sldd: SldData) -> Povm:
    """Projective measurement onto the SLD eigenbasis.

    Effects are the projectors onto the ``+-2/N`` eigenstates plus, for
    dimension > 2, one lumped complement covering the null space. The
    complement annihilates both the state and its derivative, so its
    probability and its Fisher contribution are zero.
    """
    return _complete(np.stack([sldd.plus_state, sldd.minus_state]).conj())


def _q_coeffs(q_values) -> np.ndarray:
    """Bras ``(G, 2, 2)`` of :func:`q_family_measurement` on :func:`_q_basis`; NaN is invalid."""
    q = np.asarray(q_values, dtype=float)
    outside = ~((q >= 0.0) & (q <= 1.0))
    if outside.any():
        raise InvalidQError(f"q must lie in [0, 1], got {float(q[outside][0])!r}")
    root_q, root_qbar = np.sqrt(q), np.sqrt(1.0 - q)
    return np.stack([root_q, root_qbar, root_qbar, -root_q], axis=-1).reshape(q.shape + (2, 2))


def _q_basis(sldd: SldData) -> np.ndarray:
    """Orthonormal bras ``[<psi|; <perp|]`` (``(2, d)``) of the q family's plane."""
    return np.stack([sldd.state, sldd.tangent]).conj()


def q_family_measurement(sldd: SldData, q: float) -> Povm:
    """Optimal projective measurement with tunable outcome bias ``q``.

    Projects onto ``sqrt(q)|psi> + sqrt(1-q)|perp>`` and its orthogonal
    partner ``sqrt(1-q)|psi> - sqrt(q)|perp>``. Every member extracts the
    full quantum Fisher information while the outcome distribution is
    ``(q, 1-q)``, so the entropy sweeps the whole range [0, ln 2].
    ``q`` must be a finite real number.
    """
    _real("q", q)
    return _complete(_q_coeffs([q])[0] @ _q_basis(sldd))


def _rotated_bras(phi_values) -> np.ndarray:
    """Bras ``(G, 2, 2)`` of :func:`rotated_qubit_measurement` at every angle."""
    phase = np.exp(1j * np.asarray(phi_values, dtype=float)).conj()
    ones = np.ones_like(phase)
    bras = np.stack([ones, phase, ones, -phase], axis=-1).reshape(phase.shape + (2, 2))
    return bras / np.sqrt(2.0)


def rotated_qubit_measurement(phi: float) -> Povm:
    """Qubit measurement along the equatorial axis at angle ``phi``.

    Projects onto ``(|0> +- e^{i phi}|1>)/sqrt(2)``, the eigenstates of
    ``cos(phi) sigma_x + sin(phi) sigma_y``. ``phi`` must be a finite real number.
    """
    _real("phi", phi)
    return _complete(_rotated_bras([phi])[0])
