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

import functools
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
from .state_family import StateFamily, _grid, derivative

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

# Sweep CSV rows gathered per write; see write_sweep_csv.
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


def _audit_grid(family: StateFamily, lam: float, terms) -> SweepResult:
    """Audit G measurements by their Born terms ``terms(sd)``, once lam and the generator pass."""
    sd = derivative(family, lam)
    report = qfi_report(family, sd)
    probs, dprobs, limits = terms(sd)
    entropy = shannon_entropy(OutcomeDistribution(probs=np.minimum(probs, 1.0), dprobs=dprobs))
    fisher = _fisher_sum(probs, dprobs, limits)
    return SweepResult(entropy, fisher, report.qfi, report.seminorm_sq)


def audit(family: StateFamily, lam: float, povm: Povm) -> AuditReport:
    """Evaluate the inequality for one family, parameter value and POVM."""
    rows = povm.rows[None]
    return _audit_grid(family, lam, lambda sd: _born_terms(rows, sd.state, sd.tangent))[0]


def sweep_q(family: StateFamily, lam: float, q_grid) -> SweepResult:
    """Audit the tunable-bias measurement family over a grid of q values.

    Every member projects in span{psi, perp}: the grid is one batch of
    2x2 coefficient matrices in that plane, one result entry per point.
    ``q_grid`` is 1-D, of finite reals in [0, 1]; an empty grid gives 0 rows.
    """
    return _audit_grid(
        family,
        lam,
        lambda sd: _plane_terms(sd, _q_coeffs(_grid("q_grid", q_grid)), _q_basis(sld(sd))),
    )


def sweep_phi(family: StateFamily, lam: float, phi_grid) -> SweepResult:
    """Audit the equatorial qubit measurement over a 1-D grid of finite angles, in its basis."""
    if family.dim != 2:
        raise DimMismatchError(f"angle sweep needs a qubit family, got dim {family.dim}")
    return _audit_grid(
        family,
        lam,
        lambda sd: _plane_terms(sd, _rotated_bras(_grid("phi_grid", phi_grid)), np.eye(2)),
    )


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


_WORD = np.dtype("<u8")  # little-endian on any host, so shifts move bytes to later places


@functools.cache  # on first use, so commands that write no sweep never build them
def _tables() -> tuple:
    """The tables of ``_g17_rows``, whose rows are four words: byte 0 the sign, 1-5 a ``0.000``
    prefix, 7-24 the digits and point, 25-29 an ``e-05`` suffix, and NUL where nothing goes.

    By exponent k + 300: the prefix (-4 <= k < 0) or suffix (k outside [-4, 16]) and the
    first layout of k. Layout ``17 (p + 1) + m - 1`` puts the point after digit p (-1: in
    the prefix) and keeps m digits; its masks keep digits 0..p, keep digits p+1..m-1 one
    byte later, and hold the point. By 4-digit group i at 10**4 i: its '%04d' as one word,
    and the place among digits 1-16 of its last nonzero digit.
    """
    k, place = np.arange(-300, 301)[:, None], np.arange(5)
    rows = np.zeros((len(k), 32), np.uint8)
    rows[:, 1:6] = np.where(place == 1, 46, 48) * ((place < 1 - k) & (k < 0) & (k >= -4))
    digit = abs(k) // 10 ** (4 - place) % 10 + 48
    suffix = [place == 0, place == 1, (place == 2) & (abs(k) < 100)]
    suffix = np.select(suffix, [101, np.where(k < 0, 45, 43), 0], digit)
    rows[:, 25:30] = suffix * ((k < -4) | (k > 16))
    layout = 17 * np.select([k < -4, k < 0, k < 17], [1, 0, k + 1], 1).ravel()
    point, count, place = np.arange(-1, 17)[:, None, None], np.arange(1, 18)[:, None], np.arange(18)
    masks = np.zeros((3, 18, 17, 32), np.uint8)
    masks[0, ..., 7:24] = (place[:17] <= point) * 255
    masks[1, ..., 8:25] = ((place[:17] > point) & (place[:17] < count)) * 255
    masks[2, ..., 7:25] = ((place == point + 1) & (count > point + 1) & (point >= 0)) * 46
    quads = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    group = np.arange(10**4, dtype=np.int16)
    zeros = np.sum([group % 10**j == 0 for j in (1, 2, 3, 4)], axis=0, dtype=np.int8)
    last = (np.arange(4, 17, 4, dtype=np.int8)[:, None] - zeros) * (group > 0)
    quads = quads.reshape(-1, 4).view("<u4").ravel()
    tables = rows.view(_WORD), layout, *masks.reshape(3, -1, 32).view(_WORD), quads, last.ravel()
    for table in tables:  # cached, so shared by every call
        table.flags.writeable = False
    return tables


def _split(a) -> tuple:
    """Dekker's split of doubles into 26-bit halves, whose pairwise products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    return c - (c - a), a - (c - (c - a))


@functools.cache
def _power_of_ten(p: int) -> tuple:
    """``10**p`` as the nearest double, the nearest double to the rest, and the first's halves."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    a, b = (num / den).as_integer_ratio()
    return (num / den, (num * b - a * den) / (den * b)) + _split(num / den)


def _decimal(column: np.ndarray) -> tuple:
    """``(fast, k, digits)``: k = floor(log10|x|) and |x|'s 17 digits as an integer, if ``fast``.

    For |x| in [1e-280, 1e280], y = |x| 10**(16 - k) is ``hi + lo`` within 1e-14: Dekker's
    exact product with 10**(16 - k)'s nearest double (Numer. Math. 18, 224, 1971), plus |x|
    times the rest. ``fast`` is false outside the band, for 0, inf and nan, and for a y
    outside [1e16, 1e17 - 0.5) (log10 rounded across a power of ten, or a carry) or within
    1e-12 of a rounding tie. A y in range within 1e-14 of 1e16 rounds as its digits do.
    """
    a = np.abs(column)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)  # so that log10 never sees 0, inf or nan
    k = np.floor(np.log10(a)).astype(np.int64)
    first = 16 - int(k.max(initial=0))
    tens = np.array([_power_of_ten(p) for p in range(first, 17 - int(k.min(initial=0)))])
    ten_hi, ten_lo, t1, t2 = np.take(tens.T, 16 - k - first, axis=1)
    (a1, a2), hi = _split(a), a * ten_hi
    lo = (((a1 * t1 - hi) + a1 * t2 + a2 * t1) + a2 * t2) + a * ten_lo
    whole = (lo + 1.5 * 2.0**52) - 1.5 * 2.0**52  # rounded half-even
    fast &= ((hi - 1e16) + lo >= 0) & ((hi - 1e17) + lo < -0.5) & (abs(lo - whole) < 0.5 - 1e-12)
    return fast, k, hi.astype(np.int64) + whole.astype(np.int64)  # hi > 2**53 is an even integer


def _g17_rows(column: np.ndarray) -> np.ndarray:
    """``(n, 32)`` uint8 rows whose non-NUL bytes are ``'%.17g' % x``, by ``%`` where not fast."""
    k_rows, k_layout, keep_before, keep_after, point, quads, last_digit = _tables()
    fast, k, digits = _decimal(column)
    # The first 1, 5, 9, 13 and 17 digits (``//`` by a constant is fast; ``%`` is
    # not), then the four 4-digit groups after the first digit.
    heads = digits // 10 ** np.arange(16, -1, -4)[:, None]
    groups = heads[1:] - heads[:-1] * 10**4
    last = np.take(last_digit, groups + np.arange(0, 4 * 10**4, 10**4)[:, None])
    layout = np.take(k_layout, k + 300) + last.max(0, initial=0)
    before = np.zeros((len(k), 4), _WORD)
    before[:, 0] = (heads[0] + 48) << 56
    before[:, 1:3].view("<u4").T[:] = np.take(quads, groups)
    del heads, groups, last  # ~250 KB for a sweep's ~3,400 values: freed before the words
    after = before << 8
    after.ravel()[1:] |= before.ravel()[:-1] >> 56  # every digit one byte later
    before &= np.take(keep_before, layout, axis=0)
    after &= np.take(keep_after, layout, axis=0)
    out = np.bitwise_or(before, after, out=before)
    out |= np.take(k_rows, k + 300, axis=0)
    out |= np.take(point, layout, axis=0)
    out = out.view(np.uint8)
    out[:, 0] = np.signbit(column).view(np.uint8) * 45
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = ["%.17g" % x for x in column[slow].tolist()]
        out[slow] = np.array(texts, "S32").view(np.uint8).reshape(-1, 32)
    return out


def _write_text(path, chunks) -> None:
    """Write the byte strings ``chunks`` over the old bytes of ``path``, then trim a regular file.

    ``open(path, "wb")`` would truncate to zero first, and on ext4 that makes
    the close push the whole file to storage; an in-place overwrite stays
    in the page cache. Devices and pipes, such as ``/dev/null``, are not trimmed.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as handle:
        handle.writelines(chunks)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def write_sweep_csv(path, param_values, result: SweepResult) -> None:
    """Write one sweep as CSV with a header row and 17-significant-digit floats.

    Rows end in ``\\r\\n``, as the ``csv`` module writes them; no field
    needs quoting. The float columns are formatted once per distinct bit
    pattern (so -0.0 too). Every ``_CSV_CHUNK_ROWS`` rows (~65 KB) are
    gathered into one byte matrix, written without its NUL padding and with
    each row's verdict mark (1 to 4) replaced by its shared tail: a
    file-sized buffer would pass glibc's 128 KB mmap threshold and fault its
    pages in afresh on every call. An existing file is overwritten in place
    and trimmed to the new length.
    """
    values = np.asarray(param_values, dtype=float)
    if values.shape != result.entropy.shape:
        raise ValueError("one parameter value per grid point required")
    columns = np.concatenate([values, result.entropy, result.fisher]).view(np.uint64)
    bits, cell = np.unique(columns, return_inverse=True)
    cells = _g17_rows(bits.view(float))
    cells[:, 31] = ord(",")
    cell = cell.reshape(3, -1).T
    mark = (2 * result.violated + result.measurement_optimal + 1).astype(np.uint8)[:, None]
    shared = f"{result.qfi:.17g},{result.seminorm_sq:.17g},{result.rhs:.17g},"
    verdicts = ("false", "true")
    tails = [f"{shared}{bad},{ok}\r\n".encode() for bad in verdicts for ok in verdicts]

    def chunks():
        head = (",".join(SWEEP_CSV_COLUMNS) + "\r\n").encode()
        for start in range(0, max(len(values), 1), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            text = np.take(cells, cell[rows], axis=0).reshape(-1, 96)
            text = np.concatenate([text, mark[rows]], axis=1)
            text = text.tobytes().translate(None, b"\0")
            for i, tail in enumerate(tails, 1):
                text = text.replace(bytes([i]), tail)
            yield head + text
            head = b""

    _write_text(path, chunks())
