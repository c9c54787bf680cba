"""Dense complex linear algebra for small Hilbert spaces.

Everything here assumes Hermitian operators on spaces of dimension up to
a few dozen, stored as dense ``numpy`` arrays. The eigensolver is the
single primitive; the state families' evolution and the seminorm are
derived from it, so unitarity and spectrum ordering hold by construction.
It sorts a diagonal operator into LAPACK ``eigh``'s own result, so a process
that builds only diagonal generators never faults in ``zheevd``'s pages.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._linalg import EighResult

from .errors import DimMismatchError, NonHermitianError

__all__ = [
    "HERMITICITY_RTOL",
    "as_state_vector",
    "require_hermitian",
    "hermitian_eig",
    "seminorm",
]

# Relative tolerance for the Hermiticity check. Matrices entered by hand or
# read from config may carry rounding in their symmetric entries; only
# genuine asymmetry is rejected.
HERMITICITY_RTOL = 1e-12


def as_state_vector(entries) -> np.ndarray:
    """Coerce ``entries`` to a complex 1-d array of dimension >= 1."""
    vec = np.asarray(entries, dtype=complex)
    if vec.ndim != 1 or vec.size < 1:
        raise DimMismatchError(
            f"state vector must be one-dimensional and non-empty, got shape {vec.shape}"
        )
    return vec


def require_hermitian(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a dense complex Hermitian array.

    The deviation ``max|M - M^H|`` must not exceed
    ``HERMITICITY_RTOL * max|M|``.

    Raises
    ------
    NonHermitianError
        If the matrix is not square or fails the Hermiticity bound.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise NonHermitianError(f"operator must be a square matrix, got shape {mat.shape}")
    deviation = np.max(np.abs(mat - mat.conj().T))
    # Written so that a NaN deviation (any non-finite entry) fails too.
    if not deviation <= HERMITICITY_RTOL * np.max(np.abs(mat)):
        raise NonHermitianError(
            f"matrix is not Hermitian: max|M - M^H| = {deviation:.3e} exceeds "
            f"{HERMITICITY_RTOL:g} * max|M|"
        )
    return mat


def hermitian_eig(op):
    """``np.linalg.eigh`` of a Hermitian operator: ascending eigenvalues, LAPACK's vector phases.

    A diagonal of distinct real entries is sorted into ``eigh``'s result, bit for bit, with
    only the Hermiticity check's kernels and a Python sort. Ties (0.0 with -0.0 too), d = 1,
    any nonzero off-diagonal entry and a largest entry outside [2^-485, 2^485], where
    ``zheevd`` rescales and so rounds, take ``eigh``.
    """
    mat = require_hermitian(op)
    n = len(mat)
    # mat[0, 1] turns most operators away at no array cost; then the off-diagonal entries
    # are the first n columns of entries 1.. as (n - 1, n + 1) rows.
    if n > 1 and not mat[0, 1] and not np.abs(mat.ravel()[1:].reshape(n - 1, n + 1)[:, :n]).max():
        diag = mat.diagonal().real.tolist()  # LAPACK reads only the real part
        order = sorted(range(n), key=diag.__getitem__)
        values = [diag[i] for i in order]
        distinct = all(low < high for low, high in zip(values, values[1:]))
        if distinct and 2.0**-485 <= max(values[-1], -values[0]) <= 2.0**485:
            vectors = np.zeros((n, n), dtype=complex)
            for column, row in enumerate(order):
                vectors[row, column] = 1.0
            return EighResult(np.array(values), vectors)
    return np.linalg.eigh(mat)


def seminorm(op) -> float:
    """Spread of the spectrum, ``e_max - e_min``, of a Hermitian operator."""
    eigenvalues = hermitian_eig(op).eigenvalues
    return float(eigenvalues[-1] - eigenvalues[0])
