"""Auditor for the entropy-vs-information inequality.

Evaluates both sides of

    S  >=  ln(2) * F_Q / ||h||^2

for a chosen measurement: S is the Shannon entropy of the measurement's
outcomes, F_Q the quantum Fisher information of the state, and ||h||^2
the squared seminorm of the family generator. The right-hand side never
exceeds ln 2, yet optimal measurements with outcome entropy below ln 2
exist, so a single qubit suffices to violate the inequality; see
:func:`reproduce_counterexample`.
"""

from __future__ import annotations

import math
import operator
import os
import stat
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError
from .measurement import (
    OutcomeDistribution,
    Povm,
    _born_terms,
    _fisher_sum,
    _plane_terms,
    _q_basis,
    _q_coeffs,
    _rotated_bras,
    rotated_qubit_measurement,
    shannon_entropy,
)
from .metrology import qfi_report, sld
from .state_family import StateAndDerivative, StateFamily, derivative

__all__ = [
    "TOL_AUDIT",
    "OPTIMALITY_TOL",
    "AuditReport",
    "SweepResult",
    "audit",
    "sweep_q",
    "sweep_phi",
    "reproduce_counterexample",
    "write_sweep_csv",
    "SWEEP_CSV_COLUMNS",
]

# Absolute margin on the inequality comparison. Both sides are O(1)
# scalars accurate to ~1e-12; this keeps rounding from being flagged as
# a violation.
TOL_AUDIT = 1e-9

# |fisher - qfi| at or below this marks the measurement as optimal.
OPTIMALITY_TOL = 1e-8

# Sweep CSV rows joined per write; see write_sweep_csv.
_CSV_CHUNK_ROWS = 512

SWEEP_CSV_COLUMNS = (
    "sweep_param",
    "entropy_nats",
    "fisher",
    "qfi",
    "seminorm_sq",
    "rhs",
    "violated",
    "measurement_optimal",
)


class _Inequality:
    """``rhs`` and the verdicts, derived from ``entropy``, ``fisher``, ``qfi`` and ``seminorm_sq``.

    Each works on one report's scalars or, entry by entry, on a sweep's columns.
    """

    @property
    def rhs(self):
        return math.log(2.0) * self.qfi / self.seminorm_sq

    @property
    def violated(self):
        return self.entropy < self.rhs - TOL_AUDIT

    @property
    def measurement_optimal(self):
        return abs(self.fisher - self.qfi) <= OPTIMALITY_TOL


@dataclass(frozen=True)
class AuditReport(_Inequality):
    """The four scalars entering the inequality; ``rhs`` and the verdicts derive from them.

    A report (or a CSV row) is therefore enough to re-derive the verdict
    without recomputing anything.
    """

    entropy: float
    fisher: float
    qfi: float
    seminorm_sq: float


@dataclass(frozen=True, eq=False)
class SweepResult(_Inequality, Sequence):
    """Audits of one ``(family, lam)`` over a grid, kept as columns.

    ``entropy`` and ``fisher`` hold one entry per grid point, in read-only
    copies of the columns passed in; ``qfi``, ``seminorm_sq`` and ``rhs`` are
    shared by every point. Each read of ``violated`` or ``measurement_optimal``
    derives a new column.
    As a sequence, ``result[i]`` is the :class:`AuditReport` of grid point ``i``.
    """

    entropy: np.ndarray
    fisher: np.ndarray
    qfi: float
    seminorm_sq: float

    def __post_init__(self):
        entropy, fisher = np.array(self.entropy, dtype=float), np.array(self.fisher, dtype=float)
        if entropy.ndim != 1 or entropy.shape != fisher.shape:
            raise DimMismatchError("entropy and fisher must be 1-D columns of equal length")
        for name, column in (("entropy", entropy), ("fisher", fisher)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.entropy)

    def __getitem__(self, index) -> AuditReport:
        index = operator.index(index)  # NumPy raises IndexError out of range
        entropy, fisher = float(self.entropy[index]), float(self.fisher[index])
        return AuditReport(entropy, fisher, self.qfi, self.seminorm_sq)


def _audit_grid(family: StateFamily, sd: StateAndDerivative, terms) -> SweepResult:
    """Audit G measurements from their ``(G, K)`` Born terms, ``terms()``, once ``||h||^2 > 0``."""
    report = qfi_report(family, sd)
    probs, dprobs, limits = terms()
    entropy = shannon_entropy(OutcomeDistribution(probs=np.minimum(probs, 1.0), dprobs=dprobs))
    fisher = _fisher_sum(probs, dprobs, limits)
    return SweepResult(entropy, fisher, report.qfi, report.seminorm_sq)


def audit(family: StateFamily, lam: float, povm: Povm) -> AuditReport:
    """Evaluate the inequality for one family, parameter value and POVM."""
    sd = derivative(family, lam)
    return _audit_grid(family, sd, lambda: _born_terms(povm.rows[None], sd.state, sd.tangent))[0]


def sweep_q(family: StateFamily, lam: float, q_grid) -> SweepResult:
    """Audit the tunable-bias measurement family over a grid of q values.

    Every member projects in span{psi, perp}: the grid is one batch of
    2x2 coefficient matrices in that plane, one result entry per point.
    """
    sd = derivative(family, lam)
    coeffs, basis = _q_coeffs(q_grid), _q_basis(sld(sd))
    return _audit_grid(family, sd, lambda: _plane_terms(sd, coeffs, basis))


def sweep_phi(family: StateFamily, lam: float, phi_grid) -> SweepResult:
    """Audit the equatorial qubit measurement over a grid of angles, in the qubit's own basis."""
    if family.dim != 2:
        raise DimMismatchError(f"angle sweep needs a qubit family, got dim {family.dim}")
    sd = derivative(family, lam)
    return _audit_grid(family, sd, lambda: _plane_terms(sd, _rotated_bras(phi_grid), np.eye(2)))


def reproduce_counterexample(lam: float = 0.7) -> AuditReport:
    """Golden single-qubit violation of the inequality.

    Phase family generated by ``sigma_z / 2`` on the equal superposition,
    measured along the equatorial angle ``phi = lam``. The measurement is
    optimal (F = F_Q = 1) and the generator ceiling is tight
    (``||h||^2 = 1``), yet the outcome is deterministic, so S = 0 falls
    below the right-hand side ln 2. Every field is independent of
    ``lam``; the default pins an arbitrary value for determinism.
    """
    family = StateFamily(
        generator=np.diag([0.5, -0.5]).astype(complex),
        input_state=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    )
    return audit(family, lam, rotated_qubit_measurement(lam))


def _formatted(column) -> list:
    """``.17g,`` text of a float column, formatting each distinct bit pattern (so -0.0 too) once."""
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.uint64), return_inverse=True)
    texts = ("%.17g,\n" * len(bits) % tuple(bits.view(float).tolist())).split("\n")
    return [texts[i] for i in inverse.tolist()]


def _write_text(path, chunks) -> None:
    """Write the strings ``chunks`` over the old bytes of ``path``, then trim a regular file.

    ``open(path, "w")`` would truncate to zero first, and on ext4 that makes
    the close push the whole file to storage; an in-place overwrite stays
    in the page cache. Devices and pipes, such as ``/dev/null``, are not trimmed.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline="") as handle:
        handle.writelines(chunks)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def write_sweep_csv(path, param_values, result: SweepResult) -> None:
    """Write one sweep as CSV with a header row and 17-significant-digit floats.

    Rows end in ``\\r\\n``, as the ``csv`` module writes them; no field
    needs quoting. Float columns are formatted once per distinct value
    into one flat list of pieces, joined and written ``_CSV_CHUNK_ROWS``
    rows (~65 KB) at a time: a file-sized string would pass glibc's
    128 KB mmap threshold and fault its pages in afresh on every call.
    An existing file is overwritten in place and trimmed to the new length.
    """
    values = np.asarray(param_values, dtype=float)
    if len(values) != len(result):
        raise ValueError("one parameter value per grid point required")
    shared = f"{result.qfi:.17g},{result.seminorm_sq:.17g},{result.rhs:.17g},"
    verdicts = ("false", "true")
    tails = [f"{shared}{bad},{ok}\r\n" for bad in verdicts for ok in verdicts]
    pieces = [",".join(SWEEP_CSV_COLUMNS) + "\r\n"] + [""] * (4 * len(values))
    pieces[1::4] = _formatted(values)
    pieces[2::4] = _formatted(result.entropy)
    pieces[3::4] = _formatted(result.fisher)
    pieces[4::4] = [tails[i] for i in (2 * result.violated + result.measurement_optimal).tolist()]
    step = 4 * _CSV_CHUNK_ROWS
    _write_text(path, ("".join(pieces[i : i + step]) for i in range(0, len(pieces), step)))
