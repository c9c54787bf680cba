"""Quantum Fisher information and the symmetric logarithmic derivative.

For a pure state ``|psi>`` with derivative ``|dpsi>`` the SLD is

    L = 2 |psi><dpsi| + 2 |dpsi><psi|,

a rank-2 Hermitian operator supported on span{|psi>, |perp>}, where
``|perp>`` is the normalized component of ``|dpsi>`` orthogonal to
``|psi>``. Its nonzero eigenvalues are ``+-2/N`` with eigenstates
``(|psi> +- |perp>)/sqrt(2)``, and the QFI satisfies ``F_Q = 4/N**2``
for the normalization ``N = 1/||(1 - |psi><psi|) |dpsi>||``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeneratorError, StationaryStateError
from .numerics import hermitian_eig
from .state_family import StateAndDerivative, StateFamily, derivative

__all__ = [
    "EPS_QFI",
    "SldData",
    "QfiReport",
    "qfi",
    "sld",
    "seminorm_bound",
    "optimal_input_state",
    "qfi_report",
]

# Below this QFI the tangent direction is numerically meaningless; the SLD
# constructor errors out instead of returning garbage.
EPS_QFI = 1e-12


@dataclass(frozen=True)
class SldData:
    """SLD operator together with its analytic eigenstructure.

    ``tangent`` is the unit state orthogonal to ``|psi>`` along which the
    family moves; ``normalization`` is the constant N with
    ``F_Q = 4/N**2``; ``plus_state``/``minus_state`` are the eigenstates
    with eigenvalues ``+-2/N``.
    """

    sld: np.ndarray
    tangent: np.ndarray
    normalization: float
    plus_state: np.ndarray
    minus_state: np.ndarray
    eigenvalue_plus: float
    eigenvalue_minus: float


@dataclass(frozen=True)
class QfiReport:
    """QFI next to its generator ceiling for one family."""

    qfi: float
    seminorm_sq: float
    ratio: float


def qfi(sd: StateAndDerivative) -> float:
    """Quantum Fisher information ``4<dpsi|dpsi> - 4|<dpsi|psi>|^2``.

    Clamped at zero: rounding can push the exact value below zero by
    ~1e-16 for stationary states.
    """
    quad = np.vdot(sd.dstate, sd.dstate).real
    overlap = np.vdot(sd.dstate, sd.state)
    value = 4.0 * quad - 4.0 * (abs(overlap) ** 2)
    return max(float(value), 0.0)


def sld(sd: StateAndDerivative) -> SldData:
    """Build the SLD, tangent state and eigenpairs for a moving pure state.

    Raises
    ------
    StationaryStateError
        If the QFI is at or below ``EPS_QFI``; the tangent direction is
        undefined for a stationary state.
    """
    fisher_q = qfi(sd)
    if fisher_q <= EPS_QFI:
        raise StationaryStateError(
            f"QFI = {fisher_q:.3e} <= {EPS_QFI:g}; SLD eigenbasis is undefined"
        )
    psi, dpsi = sd.state, sd.dstate
    # Component of |dpsi> orthogonal to |psi>; its norm is 1/N. The
    # tangent keeps this component's phase with no extra rotation, which
    # pins down |+> and |-> completely.
    raw_tangent = dpsi - np.vdot(psi, dpsi) * psi
    inv_n = np.linalg.norm(raw_tangent)
    normalization = 1.0 / inv_n
    tangent = raw_tangent * normalization

    sld_matrix = 2.0 * np.outer(psi, dpsi.conj()) + 2.0 * np.outer(dpsi, psi.conj())
    plus_state = (psi + tangent) / np.sqrt(2.0)
    minus_state = (psi - tangent) / np.sqrt(2.0)
    eigenvalue = 2.0 / normalization
    return SldData(
        sld=sld_matrix,
        tangent=tangent,
        normalization=float(normalization),
        plus_state=plus_state,
        minus_state=minus_state,
        eigenvalue_plus=float(eigenvalue),
        eigenvalue_minus=float(-eigenvalue),
    )


def seminorm_bound(family: StateFamily) -> float:
    """Squared seminorm of the family generator.

    This is the largest QFI attainable over input states for the given
    unitary encoding, so it upper-bounds ``qfi`` for every input. Reads
    the generator spectrum the family cached at construction.
    """
    return float(family._eigvals[-1] - family._eigvals[0]) ** 2


def optimal_input_state(family: StateFamily) -> np.ndarray:
    """Equal superposition of extreme generator eigenvectors.

    The resulting family attains ``qfi == seminorm_bound`` at every
    parameter value. Degenerate extreme eigenvalues are resolved by
    taking the lowest-index eigenvector in each extreme eigenspace.

    Raises
    ------
    DegenerateGeneratorError
        If the generator spectrum is constant (zero seminorm).
    """
    dec = hermitian_eig(family.generator)
    spread = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
    top_tol = 1e-10 * max(1.0, spread)
    top_index = int(np.flatnonzero(dec.eigenvalues >= dec.eigenvalues[-1] - top_tol)[0])
    if spread <= 0.0 or top_index == 0:
        # top_index 0 means the whole spectrum sits within the degeneracy
        # tolerance of the maximum, i.e. it is constant for our purposes
        raise DegenerateGeneratorError("generator spectrum is constant; no optimal input")
    v_min = dec.eigenvectors[:, 0]
    v_max = dec.eigenvectors[:, top_index]
    return (v_min + v_max) / np.sqrt(2.0)


def qfi_report(family: StateFamily, lam: float) -> QfiReport:
    """QFI of the family at ``lam`` next to its generator ceiling."""
    return _qfi_report(family, derivative(family, lam))


def _qfi_report(family: StateFamily, sd: StateAndDerivative) -> QfiReport:
    """:func:`qfi_report` for a state and derivative already computed."""
    bound = seminorm_bound(family)
    if bound <= 0.0:
        raise DegenerateGeneratorError("generator spectrum is constant; ratio undefined")
    value = qfi(sd)
    return QfiReport(qfi=value, seminorm_sq=bound, ratio=value / bound)
