"""Quantum Fisher information and the symmetric logarithmic derivative.

For a pure state ``|psi>`` with derivative ``|dpsi>`` the SLD is

    L = 2 |psi><dpsi| + 2 |dpsi><psi| = 2 |psi><t| + 2 |t><psi|,

with the tangent ``t = dpsi - <psi|dpsi> psi`` (``<psi|dpsi>`` is
imaginary): a rank-2 Hermitian operator supported on span{|psi>, |perp>},
where ``|perp> = t/||t||``. Its nonzero eigenvalues are ``+-2/N`` with
eigenstates ``(|psi> +- |perp>)/sqrt(2)``, and the QFI satisfies
``F_Q = 4/N**2`` for the normalization ``N = 1/||t||``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeneratorError, StationaryStateError
from .state_family import StateAndDerivative, StateFamily

__all__ = [
    "EPS_QFI",
    "SldData",
    "QfiReport",
    "qfi",
    "sld",
    "seminorm_bound",
    "qfi_report",
]

# Below this QFI the tangent direction is numerically meaningless; the SLD
# constructor errors out instead of returning garbage.
EPS_QFI = 1e-12


@dataclass(frozen=True, eq=False)
class SldData:
    """A moving pure state's SLD, stored as its analytic eigenstructure.

    ``state`` is ``|psi>``; ``tangent`` is the unit state orthogonal to
    it along which the family moves; ``normalization`` is the constant N
    with ``F_Q = 4/N**2``. The SLD matrix and its eigenpairs, the
    eigenstates ``plus_state``/``minus_state`` with eigenvalues ``+-2/N``,
    are derived from these three on each read.
    """

    state: np.ndarray
    tangent: np.ndarray
    normalization: float

    @property
    def sld(self) -> np.ndarray:
        psi, unit = self.state, self.tangent
        return self.eigenvalue_plus * (np.outer(psi, unit.conj()) + np.outer(unit, psi.conj()))

    @property
    def plus_state(self) -> np.ndarray:
        return (self.state + self.tangent) / np.sqrt(2.0)

    @property
    def minus_state(self) -> np.ndarray:
        return (self.state - self.tangent) / np.sqrt(2.0)

    @property
    def eigenvalue_plus(self) -> float:
        return 2.0 / self.normalization

    @property
    def eigenvalue_minus(self) -> float:
        return -self.eigenvalue_plus


@dataclass(frozen=True)
class QfiReport:
    """QFI next to its generator ceiling for one family; ``ratio`` is their quotient."""

    qfi: float
    seminorm_sq: float

    @property
    def ratio(self) -> float:
        return self.qfi / self.seminorm_sq


def qfi(sd: StateAndDerivative) -> float:
    """Quantum Fisher information ``4 ||t||^2`` of the tangent ``t = sd.tangent``.

    It equals ``4<dpsi|dpsi> - 4|<dpsi|psi>|^2`` without that form's
    ~(c/gap)^2 eps cancellation for a generator ``c I + h``.
    """
    return 4.0 * float(np.linalg.norm(sd.tangent)) ** 2


def sld(sd: StateAndDerivative) -> SldData:
    """The state, unit tangent and normalization that fix a moving pure state's SLD.

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
    # ||t||, the norm qfi measures, is 1/N. The unit tangent keeps the phase
    # of t with no extra rotation, which pins down |+> and |-> completely.
    normalization = 1.0 / float(np.linalg.norm(sd.tangent))
    return SldData(state=sd.state, tangent=sd.tangent * normalization, normalization=normalization)


def seminorm_bound(family: StateFamily) -> float:
    """Squared seminorm of the family generator.

    This is the largest QFI attainable over input states for the given
    unitary encoding, so it upper-bounds ``qfi`` for every input. Reads
    the generator spectrum the family cached at construction.
    """
    return float(family._eigvals[-1] - family._eigvals[0]) ** 2


def qfi_report(family: StateFamily, sd: StateAndDerivative) -> QfiReport:
    """QFI of ``sd``, a state and derivative of ``family``, next to the generator ceiling.

    Raises ``DegenerateGeneratorError`` for a constant generator spectrum, on
    which the ratio and every seminorm-normalised quantity are undefined.
    """
    bound = seminorm_bound(family)
    if bound <= 0.0:
        raise DegenerateGeneratorError("generator spectrum is constant (||h||^2 = 0)")
    return QfiReport(qfi=qfi(sd), seminorm_sq=bound)
