"""Shared builders for randomized metrology tests.

Random generators are scaled to unit spectral radius so finite-difference
truncation constants stay O(1) and tolerances hold uniformly across dims.
"""

import gc
import os

import numpy as np
import pytest

from fisherlab import StateFamily, derivative, evaluate, hermitian_eig, qfi

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def paper_qubit_family() -> StateFamily:
    """Phase family exp(-i lam sigma_z/2) on the equal superposition."""
    return StateFamily(
        generator=SIGMA_Z / 2.0,
        input_state=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    )


def central_difference(family: StateFamily, lam: float, step: float) -> np.ndarray:
    """``(|psi_{lam+step}> - |psi_{lam-step}>) / (2 step)``, the derivative to O(step^2)."""
    return (evaluate(family, lam + step) - evaluate(family, lam - step)) / (2.0 * step)


def optimal_input(generator) -> np.ndarray:
    """Equal superposition of the extreme eigenvectors; its QFI is ``(e_max - e_min)^2``.

    Every test generator has simple extreme eigenvalues, so the extreme
    columns are the extreme eigenspaces and no degeneracy rule is needed.
    """
    vectors = hermitian_eig(generator).eigenvectors
    return (vectors[:, 0] + vectors[:, -1]) / np.sqrt(2.0)


def povm_effects(povm) -> np.ndarray:
    """Effect matrices ``E_a = rows[a]^H rows[a]`` of a POVM, shape ``(K, d, d)``."""
    return povm.rows.conj().swapaxes(1, 2) @ povm.rows


def assert_overwrites_in_place(path, write, expected: bytes) -> None:
    """``write(path)`` over a longer, then a shorter, file leaves exactly ``expected``.

    The file keeps its inode and mode, and a hard link to it sees the new bytes.
    """
    link = path.with_name(path.name + ".link")
    path.write_bytes(b"#")
    os.link(path, link)
    path.chmod(0o640)
    before = os.stat(path)
    for old in (b"#" * (2 * len(expected) + 100), b"#" * (len(expected) // 2)):
        path.write_bytes(old)
        write(path)
        assert path.read_bytes() == expected
        assert link.read_bytes() == expected
        after = os.stat(path)
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)


def random_hermitian(dim: int, rng: np.random.Generator, spectral_radius: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    scale = np.max(np.abs(np.linalg.eigvalsh(herm)))
    return herm * (spectral_radius / scale) if scale > 0 else herm


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_family(dim: int, rng: np.random.Generator, min_qfi: float = 1e-6) -> StateFamily:
    """Random unit-spectral-radius family, resampled until QFI > min_qfi."""
    while True:
        family = StateFamily(
            generator=random_hermitian(dim, rng),
            input_state=random_state(dim, rng),
        )
        if qfi(derivative(family, 0.0)) > min_qfi:
            return family


def haar_basis(rng: np.random.Generator, dim: int = 2, count: int | None = None) -> np.ndarray:
    """Haar-random orthonormal basis of ``C^dim`` as unitary columns.

    With ``count``, a ``(count, dim, dim)`` stack drawn from the same
    stream, in the same order, as ``count`` single calls.
    """
    shape = () if count is None else (count,)
    raw = rng.standard_normal((*shape, 2, dim, dim))
    q, r = np.linalg.qr(raw[..., 0, :, :] + 1j * raw[..., 1, :, :])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that ends with the cyclic garbage collector disabled when it began enabled."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
