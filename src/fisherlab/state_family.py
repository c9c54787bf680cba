"""Differentiable pure-state families ``lam -> exp(-i*lam*H) |psi>``.

A family is a Hermitian generator plus a normalized input state. Only
exponential families (generator independent of the parameter) are
supported: they cover every construction this package audits and make
the local generator ``h = i U^dag dU/dlam`` exactly equal to the
generator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError, InvalidStepError
from .numerics import as_state_vector, hermitian_eig

__all__ = [
    "DEFAULT_FD_STEP",
    "StateFamily",
    "StateAndDerivative",
    "evaluate",
    "derivative",
    "finite_difference_derivative",
]

# Central-difference default: balances O(step^2) truncation against
# rounding at double precision.
DEFAULT_FD_STEP = 1e-5

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateFamily:
    """Unitary phase-encoding family ``|psi_lam> = exp(-i*lam*generator) |psi>``."""

    generator: np.ndarray
    input_state: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dec = hermitian_eig(self.generator)
        gen = np.asarray(self.generator, dtype=complex)
        psi = as_state_vector(self.input_state)
        if gen.shape[0] != psi.size:
            raise DimMismatchError(
                f"generator dim {gen.shape[0]} does not match state dim {psi.size}"
            )
        norm = np.linalg.norm(psi)
        # Negated comparisons here and below, so that NaN and Inf entries fail.
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"input state is not normalized: ||psi|| = {norm!r}")
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "input_state", psi)
        object.__setattr__(self, "_eigvals", dec.eigenvalues)
        object.__setattr__(self, "_eigvecs", dec.eigenvectors)

    @property
    def dim(self) -> int:
        return self.input_state.size


@dataclass(frozen=True)
class StateAndDerivative:
    """A state ``|psi_lam>`` bundled with its parameter derivative.

    Keeping the pair together prevents mismatched (state, dstate) bugs in
    the information functionals, which always consume both.
    """

    state: np.ndarray
    dstate: np.ndarray
    lam: float

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
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "dstate", dstate)

    @property
    def dim(self) -> int:
        return self.state.size


def evaluate(family: StateFamily, lam: float) -> np.ndarray:
    """Return ``exp(-i*lam*generator) @ input_state``."""
    vecs = family._eigvecs
    phases = np.exp(-1j * lam * family._eigvals)
    return vecs @ (phases * (vecs.conj().T @ family.input_state))


def derivative(family: StateFamily, lam: float) -> StateAndDerivative:
    """State and its analytic derivative at ``lam``.

    The generator commutes with the evolution, so the derivative is
    ``-i * generator @ state`` exactly.
    """
    state = evaluate(family, lam)
    dstate = -1j * (family.generator @ state)
    return StateAndDerivative(state=state, dstate=dstate, lam=float(lam))


def finite_difference_derivative(
    family: StateFamily, lam: float, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference derivative ``(|psi_{lam+d}> - |psi_{lam-d}>)/(2d)``.

    Independent of the analytic route in :func:`derivative`; the two are
    cross-checked against each other in the test suite. Truncation error
    is O(step^2).
    """
    # Negated, so that a NaN step fails it too.
    if not (step >= 1e-12 and math.isfinite(step)):
        raise InvalidStepError(f"step must be positive and >= 1e-12, got {step!r}")
    fwd = evaluate(family, lam + step)
    bwd = evaluate(family, lam - step)
    return (fwd - bwd) / (2.0 * step)
