"""Differentiable pure-state families ``lam -> exp(-i*lam*H) |psi>``.

A family is a Hermitian generator plus a normalized input state. Only
exponential families (generator independent of the parameter) are
supported: they cover every construction this package audits and make
the local generator ``h = i U^dag dU/dlam`` exactly equal to the
generator itself.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError
from .numerics import as_state_vector, hermitian_eig

__all__ = [
    "StateFamily",
    "StateAndDerivative",
    "evaluate",
    "derivative",
]

_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateFamily:
    """Unitary phase-encoding family ``|psi_lam> = exp(-i*lam*generator) |psi>``."""

    generator: np.ndarray
    input_state: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eigvals, eigvecs = hermitian_eig(self.generator)
        gen = np.asarray(self.generator, dtype=complex)
        psi = as_state_vector(self.input_state)
        if gen.shape[0] != psi.size:
            raise DimMismatchError(
                f"generator dim {gen.shape[0]} does not match state dim {psi.size}"
            )
        norm = np.linalg.norm(psi)
        # Negated comparisons here and below, so that NaN and Inf entries fail.
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"input state is not normalized: ||psi|| = {float(norm)!r}")
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "input_state", psi)
        object.__setattr__(self, "_eigvals", eigvals)
        object.__setattr__(self, "_eigvecs", eigvecs)

    @property
    def dim(self) -> int:
        return self.input_state.size


@dataclass(frozen=True, eq=False)
class StateAndDerivative:
    """A state ``|psi_lam>`` bundled with its parameter derivative.

    The information functionals read ``tangent``, the component
    ``t = dpsi - <psi|dpsi> psi`` of the derivative orthogonal to the
    state, and never ``dstate``: a generator ``h + cI`` adds ``-ic psi``
    to ``dpsi``, a global phase that ``t`` drops. ``dstate`` stays the raw
    derivative, which acceptance criterion 7 checks against finite
    differences.
    """

    state: np.ndarray
    dstate: np.ndarray
    tangent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        state = as_state_vector(self.state)
        dstate = as_state_vector(self.dstate)
        if state.size != dstate.size:
            raise DimMismatchError("state and dstate dims differ")
        if not abs(np.linalg.norm(state) - 1.0) <= _NORM_TOL:
            raise ValueError("state is not normalized")
        # Norm preservation makes <state|dstate> purely imaginary; rounding grows with
        # ||dstate||. Negated and capped, so that NaN and Inf entries fail.
        overlap, band = np.vdot(state, dstate), 1e-9 * max(1.0, np.linalg.norm(dstate))
        if not abs(overlap.real) <= band < math.inf:
            raise ValueError(f"Re<state|dstate> = {overlap.real:.3e}, expected 0")
        # One projection leaves a component of ~eps c along the state for a
        # generator h + cI; a second removes it ("twice is enough", Parlett,
        # The Symmetric Eigenvalue Problem).
        once = dstate - overlap * state
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "dstate", dstate)
        object.__setattr__(self, "tangent", once - np.vdot(state, once) * state)


class _Shown(reprlib.Repr):
    """Bounded ``repr``: a NumPy float as its float, a huge rational by its digits, at any depth."""

    def repr1(self, value, level):
        if isinstance(value, np.floating):
            value = value.item()  # np.longdouble has no Python twin and stays as it is
        rational = isinstance(value, numbers.Rational)
        if not rational or max(abs(value.numerator), value.denominator) < 2**1024:
            return super().repr1(value, level)  # a longer term's repr can pass the digit limit
        # A small rational with a huge denominator has no integer part to count.
        size, part = max((int(abs(value)), "integer part"), (value.denominator, "denominator"))
        k = round(math.log10(size))  # off by under 0.5, so the comparison makes the count exact
        digits = k + (size >= 10**k)
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
        return f"{'a negative' if value < 0 else 'a'} rational whose {part} has {digits} digits"


_shown = _Shown().repr  # bounded ``repr(value)``


def _real(name: str, value) -> None:
    """TypeError unless ``value`` is a real number other than a bool; ValueError unless finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # a number beyond the double range, such as 10**400
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {_shown(value)}")


def _grid(name: str, values) -> np.ndarray:
    """``values`` as a 1-D float array whose entries each pass :func:`_real`; it may be empty.

    Entries are read one by one from a sequence, as ``np.asarray`` reads ``True`` as 1.0.
    """
    try:
        grid = np.asarray(values)
    except ValueError:  # NumPy's message for a ragged nesting names neither the grid nor a value
        raise ValueError(f"{name} must be 1-D, got {_shown(values)}") from None
    if grid.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {grid.shape}")
    numeric = isinstance(values, np.ndarray) and grid.dtype.kind in "fiu"
    if not numeric or not np.isfinite(grid).all():
        for i, value in enumerate(grid.tolist() if numeric else values):
            _real(f"{name}[{i}]", value)
    return grid.astype(float, copy=False)


def evaluate(family: StateFamily, lam: float) -> np.ndarray:
    """Return ``exp(-i*lam*generator) @ input_state``."""
    vecs = family._eigvecs
    phases = np.exp(-1j * lam * family._eigvals)
    return vecs @ (phases * (vecs.conj().T @ family.input_state))


def derivative(family: StateFamily, lam: float) -> StateAndDerivative:
    """State and its analytic derivative at ``lam``.

    The generator commutes with the evolution, so the derivative is
    ``-i * generator @ state`` exactly. ``lam`` must be a finite real number.
    """
    _real("lam", lam)
    state = evaluate(family, lam)
    dstate = -1j * (family.generator @ state)
    return StateAndDerivative(state=state, dstate=dstate)

