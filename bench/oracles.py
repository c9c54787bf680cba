"""Reference values for fisherlab outputs, computed without fisherlab.

Everything here is closed form or a few lines of NumPy on the amplitude
picture of a pure state, so a defect in fisherlab cannot hide in its own
oracle. The verdict tolerances are the specification's values, not
imported from the package under test.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
TOL_AUDIT = 1e-9
OPTIMALITY_TOL = 1e-8
# Outcomes with |amplitude|^2 at or below this take the 0/0 limit
# 4|dA|^2 in the Fisher sum, as the specification prescribes.
EPS_PROB = 1e-10


def binary_entropy(q: float) -> float:
    """``-q ln q - (1-q) ln(1-q)`` in nats, with ``0 ln 0 = 0``."""
    return -sum(p * math.log(p) for p in (q, 1.0 - q) if p > 0.0)


def entropy(probs) -> float:
    """Shannon entropy in nats of a probability vector."""
    probs = np.asarray(probs, dtype=float)
    positive = probs[probs > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def seminorm_sq(generator) -> float:
    """``(e_max - e_min)^2`` of a Hermitian generator."""
    spectrum = np.linalg.eigvalsh(np.asarray(generator, dtype=complex))
    return float((spectrum[-1] - spectrum[0]) ** 2)


def optimal_input(generator) -> np.ndarray:
    """Equal superposition of the extreme eigenvectors; its QFI is ``seminorm_sq``."""
    _, vectors = np.linalg.eigh(np.asarray(generator, dtype=complex))
    return (vectors[:, 0] + vectors[:, -1]) / math.sqrt(2.0)


def evolve(generator, state, lam: float):
    """``exp(-i lam H)|psi>`` and its derivative ``-i H exp(-i lam H)|psi>``."""
    values, vectors = np.linalg.eigh(np.asarray(generator, dtype=complex))
    coeffs = np.exp(-1j * lam * values) * (vectors.conj().T @ np.asarray(state, dtype=complex))
    return vectors @ coeffs, vectors @ (-1j * values * coeffs)


def qfi(generator, state) -> float:
    """``4 Var(H)`` in ``state``; the family's QFI at every parameter value."""
    gen = np.asarray(generator, dtype=complex)
    psi = np.asarray(state, dtype=complex)
    h_psi = gen @ psi
    mean = np.vdot(psi, h_psi).real
    return float(4.0 * (np.vdot(h_psi, h_psi).real - mean * mean))


def amplitude_fisher(kets, state, dstate):
    """Outcome probabilities and classical Fisher information of a rank-1 basis.

    ``kets`` holds one outcome ket per row. With amplitudes ``A = <k|psi>``
    and ``dA = <k|dpsi>``, ``p = |A|^2`` and ``F = sum (2 Re(conj(dA) A))^2 / |A|^2``;
    an outcome with ``p <= EPS_PROB`` contributes its limit ``4|dA|^2``.
    Returns ``(probs, fisher)``.
    """
    kets = np.asarray(kets, dtype=complex)
    amps = kets.conj() @ np.asarray(state, dtype=complex)
    damps = kets.conj() @ np.asarray(dstate, dtype=complex)
    probs = np.abs(amps) ** 2
    live = probs > EPS_PROB
    dprobs = 2.0 * (damps.conj() * amps).real
    terms = np.where(live, dprobs**2 / np.where(live, probs, 1.0), 4.0 * np.abs(damps) ** 2)
    return probs, float(np.sum(terms))


def rhs(fisher_q: float, seminorm: float) -> float:
    """Right-hand side ``ln 2 * F_Q / ||h||^2`` of the audited inequality."""
    return LN2 * fisher_q / seminorm


def verdicts(entropy_nats: float, fisher: float, fisher_q: float, seminorm: float):
    """``(violated, measurement_optimal)`` by the specification's rule."""
    return (
        entropy_nats < rhs(fisher_q, seminorm) - TOL_AUDIT,
        abs(fisher - fisher_q) <= OPTIMALITY_TOL,
    )


def crb(n: int, fisher: float) -> float:
    """Cramer-Rao bound ``1/sqrt(n F)`` on the standard deviation of an estimate."""
    return 1.0 / math.sqrt(n * fisher)
