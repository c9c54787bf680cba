"""Command-line front end.

Experiments are described by a JSON config with complex numbers written
as ``[re, im]`` pairs::

    {
      "generator": [[[0.5, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [-0.5, 0.0]]],
      "input_state": [[0.7071067811865476, 0.0],
                      [0.7071067811865476, 0.0]],
      "lambda": 0.7,
      "measurement": "rotated:phi=0.7"
    }

Measurements are either a constructor spec string ("sld",
"q_family:q=0.3", "rotated:phi=1.57") or an explicit list of effect
matrices. Every command reads the whole config and builds the
measurement it names, so ``qfi`` rejects what ``audit`` and ``simulate``
reject. Audit sweeps, their grids checked only by ``audit``, replace
"measurement" with ``"sweep": {"param": "q" | "phi", "grid": [...]}``;
simulations add a ``"sim": {"n", "trials", "seed", "interval"?}`` block.

Exit codes: 0 success, 1 golden-check mismatch, 2 malformed config or
failed allocation, 3 degenerate physics (stationary state, constant
generator spectrum, flat likelihood, zero Fisher information in
simulate), 4 violation found while --fail-on-violation is set.

Human-readable tables go to stdout with 6 significant digits; CSV files
carry full double precision and are the only machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import orjson

from .audit import _write_text, audit, reproduce_counterexample, sweep_phi, sweep_q, write_sweep_csv
from .errors import (
    ConfigError,
    DegenerateGeneratorError,
    DimMismatchError,
    FisherlabError,
    FlatLikelihoodError,
    StationaryStateError,
)
from .estimation import CrbReport, _finite_interval, _setting, crb_experiment
from .measurement import (
    Povm,
    q_family_measurement,
    rotated_qubit_measurement,
    sld_measurement,
)
from .metrology import qfi_report, sld
from .state_family import StateFamily, derivative

__all__ = [
    "ExperimentConfig",
    "SweepSpec",
    "SimSpec",
    "parse_config",
    "parse_config_text",
    "load_config",
    "build_family",
    "build_povm",
    "main",
    "entry_point",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class SweepSpec:
    param: str
    grid: np.ndarray


@dataclass(frozen=True)
class SimSpec:
    n: int
    trials: int
    seed: int
    interval: tuple | None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    generator: np.ndarray
    input_state: np.ndarray
    lam: float
    measurement: np.ndarray | tuple | None
    sweep: SweepSpec | None
    sim: SimSpec | None


def _numbers(value, depth: int, where: str, pair: bool = False) -> np.ndarray:
    """Config field ``where`` as an array of ``depth`` nested lists of numbers.

    With ``pair``, every innermost entry is an ``[re, im]`` pair and the
    array is complex. Entries must be plain ``int`` or ``float`` (JSON
    true/false, strings and null are not numbers) that fit a double and
    are finite. A type and length pass per nesting level and one array
    conversion of the flattened entries read a well-formed field; a
    field that fails them is read entry by entry, which names its first
    bad entry.
    """
    shape, flat, array = [], [value], None
    for _ in range(depth + pair):
        if set(map(type, flat)) != {list} or len(lengths := set(map(len, flat))) != 1:
            flat = None
            break
        shape.append(lengths.pop())
        flat = list(chain.from_iterable(flat))
    if flat and set(map(type, flat)) <= {int, float} and (not pair or shape[-1] == 2):
        try:
            array = np.array(flat, dtype=float).reshape(shape)
        except OverflowError:
            pass
    if array is not None and np.isfinite(array).all():
        return array.view(complex)[..., 0] if pair else array
    if depth:
        kind = ("[re, im] pairs" if pair else "numbers", "rows", "matrices")[depth - 1]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"field '{where}': expected a non-empty list of {kind}")
        rows = [_numbers(entry, depth - 1, f"{where}[{i}]", pair) for i, entry in enumerate(value)]
        if depth > 1 and len({row.shape for row in rows}) != 1:
            unequal = "lengths" if depth == 2 else "sizes"
            raise ConfigError(f"field '{where}': {kind} have unequal {unequal}")
        return np.array(rows)
    # bool is an int subclass, but JSON true/false are not numbers; Python
    # callers may pass tuple pairs and number subclasses.
    parts = value if pair and isinstance(value, (list, tuple)) else [value]
    if (pair and len(parts) != 2) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts
    ):
        kind = "a [re, im] pair" if pair else "a number"
        raise ConfigError(f"field '{where}': expected {kind}, got {value!r}")
    try:
        numbers = [float(x) for x in parts]
    except OverflowError:
        raise ConfigError(f"field '{where}': {value!r} overflows a double")
    if not all(map(math.isfinite, numbers)):
        if pair:
            raise ConfigError(f"field '{where}': expected finite numbers, got {value!r}")
        raise ConfigError(f"field '{where}': expected a finite number, got {numbers[0]!r}")
    return np.array(complex(*numbers) if pair else numbers[0])


def _object(data, where: str, keys) -> dict:
    """``data`` if it is a JSON object with no keys outside ``keys``; ``where`` names it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return data


def _parse_sweep(data) -> SweepSpec:
    data = _object(data, "field 'sweep'", ("param", "grid"))
    param = data.get("param")
    if param not in ("q", "phi"):
        raise ConfigError(f"field 'sweep.param': expected \"q\" or \"phi\", got {param!r}")
    return SweepSpec(param=param, grid=_numbers(data.get("grid"), 1, "sweep.grid"))


def _parse_sim(data) -> SimSpec:
    """The ``sim`` block, each value checked by the rule :func:`crb_experiment` applies to it."""
    keys = ("n", "trials", "seed", "interval")
    data = _object(data, "field 'sim'", keys)
    values = dict.fromkeys(keys)
    for key in keys:
        value = data.get(key)
        try:
            if key != "interval":
                values[key] = _setting(key, value)
            elif value is not None:
                values[key] = _finite_interval(_numbers(value, 1, "sim.interval").tolist())
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'sim.{key}': {exc}")
    return SimSpec(**values)


def _spec(text: str) -> tuple:
    """``(name, argument)`` of a measurement spec; syntax, then name, then keys are checked."""
    name, _, arg_text = text.partition(":")
    args = {}
    for part in arg_text.split(",") if arg_text else ():
        key, sep, raw = part.partition("=")
        if not sep or not key:
            raise ConfigError(f"measurement spec {text!r}: expected name:key=value")
        if key in args:
            raise ConfigError(f"measurement spec {text!r}: key {key!r} is given twice")
        try:
            # float() also reads " 0.7\n", "0_7" and non-ASCII digits.
            if not raw.isascii() or any(c.isspace() or c == "_" for c in raw):
                raise ValueError
            value = float(raw)
        except ValueError:
            raise ConfigError(f"measurement spec {text!r}: {raw!r} is not a number")
        if not math.isfinite(value):
            raise ConfigError(f"measurement spec {text!r}: expected a finite number, got {value!r}")
        args[key] = value
    if name not in ("sld", "q_family", "rotated"):
        raise ConfigError(f"unknown measurement constructor {name!r}")
    if name == "sld" and args:
        raise ConfigError("measurement spec 'sld' takes no arguments")
    key = {"q_family": "q", "rotated": "phi"}.get(name)
    if key and set(args) != {key}:
        raise ConfigError(f"measurement spec {name!r} needs exactly {key}=<value>")
    return name, args.get(key)


def parse_config(data: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from decoded JSON, naming bad fields."""
    known = ("generator", "input_state", "lambda", "measurement", "sweep", "sim")
    data = _object(data, "config root", known)
    for required in known[:3]:
        if required not in data:
            raise ConfigError(f"missing required field '{required}'")

    generator = _numbers(data["generator"], 2, "generator", pair=True)
    input_state = _numbers(data["input_state"], 1, "input_state", pair=True)
    lam = float(_numbers(data["lambda"], 0, "lambda"))

    measurement = data.get("measurement")
    if isinstance(measurement, str):
        measurement = _spec(measurement)
    elif measurement is not None:
        measurement = _numbers(measurement, 3, "measurement", pair=True)

    sweep = _parse_sweep(data["sweep"]) if data.get("sweep") is not None else None
    sim = _parse_sim(data["sim"]) if data.get("sim") is not None else None
    return ExperimentConfig(generator, input_state, lam, measurement, sweep, sim)


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed in a config")


# Python's json accepts NaN, Infinity and -Infinity literals; this
# decoder turns them into config errors.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


# Explicit effects in a config longer than this are read from the file and
# decoded a slab of whole matrices at a time, which holds one slab's text
# and tree, not the whole text and all of them.
_SLAB_BYTES = 1 << 16
_ARRAY_START = re.compile(rb'"measurement"[ \t\n\r]*:[ \t\n\r]*\[')
_COMMA = re.compile(rb"[ \t\n\r]*,[ \t\n\r]*")


def _slab_config(text: bytes, stream) -> ExperimentConfig | None:
    """The config of ``text`` and the rest of ``stream``, its effects read in slabs, or None.

    The stream is read ``_SLAB_BYTES`` at a time into one buffer. The
    ``"measurement"`` array is cut after the first ``]]]`` (a matrix's end)
    past each ``_SLAB_BYTES`` mark and ends at the text's last ``]]]]``.
    A slab is decoded where it lies in the buffer, the bytes on either side
    set to brackets, its matrices are appended to one array grown in place,
    and the buffer then drops it. The rest of the text is decoded with
    ``null`` in the array's place. The result stands only if every slab
    reads with one matrix shape, the slabs are separated by one comma,
    neither ``measurement`` nor a backslash (which could spell that key)
    follows the array, and :func:`parse_config` accepts the rest with no
    measurement: the whole text then decodes to the same tree, so this is
    its config, bit for bit. Otherwise the caller decodes the whole text.
    """
    buf = bytearray(text)

    def more() -> bool:
        chunk = stream.read(_SLAB_BYTES)
        buf.extend(chunk)
        return bool(chunk)

    lo = 0
    while (head := _ARRAY_START.search(buf, lo)) is None:
        # A match not read whole starts at the last '"measurement"' or in the last 12 bytes.
        found = buf.rfind(b'"measurement"', lo)
        lo = found if found >= 0 else max(len(buf) - 12, 0)
        if not more():
            return None
    prefix = buf[: head.end() - 1]
    del buf[: head.end() - 1]  # the buffer starts one byte before each slab: here, the "["
    stack = np.empty(0, complex)
    while True:
        # A "]]]" past the mark with a byte after it, or, at the end of the text, its last "]]]]".
        lo = _SLAB_BYTES
        while (cut := buf.find(b"]]]", lo, len(buf) - 1)) < 0:
            lo = max(lo, len(buf) - 3)  # each byte is searched once
            if not more():
                break
        cut = (cut if cut >= 0 else buf.rfind(b"]]]]")) + 3
        comma = _COMMA.match(buf, cut)
        if cut < 4 or (comma is None and buf[cut] != ord("]")):
            return None  # no "]]]]" at the end, or the slab has neither a comma nor "]" after it
        buf[0], buf[cut] = ord("["), ord("]")
        try:
            with memoryview(buf) as view:
                part = _numbers(orjson.loads(view[: cut + 1]), 3, "measurement", pair=True)
        except (orjson.JSONDecodeError, ConfigError):
            return None
        size = len(stack)
        if size and part.shape[1:] != stack.shape[1:]:
            return None
        # Grown by realloc: parts joined at the end would hold the effects twice.
        stack.resize((size + len(part), *part.shape[1:]), refcheck=False)
        stack[size:] = part
        if comma is None:
            break
        del buf[: comma.end() - 1]
    while more():
        pass
    if max(buf.find(b"]]]]", cut - 2), buf.find(b"measurement", cut), buf.find(b"\\", cut)) >= 0:
        return None
    del buf[: cut + 1]
    prefix += b"null"
    prefix += buf  # the text with null in the array's place
    try:
        config = parse_config(orjson.loads(prefix))
    except (orjson.JSONDecodeError, ConfigError):
        return None
    if config.measurement is not None:
        return None
    return replace(config, measurement=stack)


def _read_config(source) -> ExperimentConfig:
    """The config of ``source``, a ``str`` or a seekable binary stream read from its start.

    orjson decodes the text, several times faster than ``json`` on large
    configs. It reads integers outside [-2**63, 2**64) as floats and
    accepts any nesting depth; :func:`parse_config` rejects both, and the
    decoders agree otherwise. So a text that orjson or
    :func:`parse_config` rejects is decoded again by ``json``, and that
    read's config or error stands; bytes are first decoded as a file
    opened in text mode reads them (strict UTF-8, universal newlines), so
    a text's errors read the same either way. A stream longer than
    ``_SLAB_BYTES`` goes to :func:`_slab_config` first, which reads and
    decodes an explicit measurement a slab at a time and gives the same
    config; if it declines, the stream is read again from its start and
    decoded whole. The cyclic garbage collector is paused while the text
    is decoded and read, and re-enabled on return only if it was enabled
    on entry.
    """
    # The decoded tree has no cycles, but d = 32 explicit effects are
    # ~34,000 lists, enough for ~50 collections that walk them; the tree
    # is released before the collector resumes.
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = source
        if not isinstance(source, str):
            text = source.read(_SLAB_BYTES + 1)
            if len(text) > _SLAB_BYTES:
                config = _slab_config(text, source)
                if config is not None:
                    return config
                source.seek(0)
                text = source.read()
        try:
            return parse_config(orjson.loads(text))
        except (orjson.JSONDecodeError, ConfigError):
            pass
        if not isinstance(text, str):
            # A UnicodeDecodeError propagates, as it did from a text-mode read.
            text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        try:
            data = _DECODER.decode(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ConfigError(f"config has a number that cannot be decoded: {exc}")
        except RecursionError:
            raise ConfigError("config is nested too deeply to decode")
        return parse_config(data)
    finally:
        data = None
        if enabled:
            gc.enable()


def parse_config_text(text: str | bytes) -> ExperimentConfig:
    """Decode a JSON config and build its :class:`ExperimentConfig`.

    ``text`` is a ``str``, or UTF-8 ``bytes`` or any other bytes-like
    object, which is read as a binary stream; see :func:`_read_config`.
    """
    return _read_config(text if isinstance(text, str) else io.BytesIO(text))


def load_config(path: str) -> ExperimentConfig:
    """Read and decode the config file at ``path``; see :func:`_read_config`.

    A regular file is read a slab at a time. A pipe, which cannot be read
    twice, is read whole first.
    """
    try:
        with open(path, "rb") as handle:
            return _read_config(handle if handle.seekable() else io.BytesIO(handle.read()))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")


def build_family(config: ExperimentConfig) -> StateFamily:
    return StateFamily(generator=config.generator, input_state=config.input_state)


def build_povm(config: ExperimentConfig, family: StateFamily) -> Povm:
    """Materialize the configured measurement for the family at its lambda, in its dimension."""
    measurement = config.measurement
    if measurement is None:
        raise ConfigError("missing required field 'measurement'")
    if isinstance(measurement, np.ndarray):
        povm = Povm.from_effects(measurement)
    elif measurement[0] == "rotated":
        povm = rotated_qubit_measurement(measurement[1])
    else:
        sldd = sld(derivative(family, config.lam))
        name, argument = measurement
        povm = sld_measurement(sldd) if name == "sld" else q_family_measurement(sldd, argument)
    if povm.dim != family.dim:
        raise DimMismatchError(f"POVM dim {povm.dim} does not match state dim {family.dim}")
    return povm


def _experiment(path: str) -> tuple:
    """``(config, family, povm)`` of the config at ``path``; ``povm`` is None without one."""
    config = load_config(path)
    family = build_family(config)
    return config, family, None if config.measurement is None else build_povm(config, family)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_qfi(args) -> int:
    config, family, _ = _experiment(args.config)
    sd = derivative(family, config.lam)
    sldd = sld(sd)
    report = qfi_report(family, sd)
    print(f"F_Q     = {_fmt(report.qfi)}")
    print(f"||h||^2 = {_fmt(report.seminorm_sq)}")
    print(f"ratio   = {_fmt(report.ratio)}")
    print(f"N       = {_fmt(sldd.normalization)}")
    print(
        f"SLD eigenvalues = {_fmt(sldd.eigenvalue_plus)}, {_fmt(sldd.eigenvalue_minus)}"
    )
    return 0


def _print_audit_table(report, bits: bool) -> None:
    scale = 1.0 / _LN2 if bits else 1.0
    unit = " bits" if bits else " nats"
    print(f"entropy S   = {_fmt(report.entropy * scale)}{unit}")
    print(f"fisher F    = {_fmt(report.fisher)}")
    print(f"qfi F_Q     = {_fmt(report.qfi)}")
    print(f"||h||^2     = {_fmt(report.seminorm_sq)}")
    print(f"rhs         = {_fmt(report.rhs * scale)}{unit}")
    print(f"measurement_optimal = {'true' if report.measurement_optimal else 'false'}")
    if report.violated:
        print(f"VIOLATED: S = {report.entropy * scale:.6f} < {report.rhs * scale:.6f}")
    else:
        print(f"OK: S = {report.entropy * scale:.6f} >= {report.rhs * scale:.6f}")


def cmd_audit(args) -> int:
    config, family, povm = _experiment(args.config)
    if (povm is None) == (config.sweep is None):
        raise ConfigError("audit needs exactly one of 'measurement' or 'sweep'")

    if povm is not None:
        if args.out is not None:
            raise ConfigError("--out is for sweep audits; a single audit prints its table")
        report = audit(family, config.lam, povm)
        _print_audit_table(report, args.bits)
        if args.fail_on_violation and report.violated:
            return 4
        return 0

    if args.out is None:
        raise ConfigError("sweep audits write CSV; pass --out PATH")
    if config.sweep.param == "q":
        result = sweep_q(family, config.lam, config.sweep.grid)
    else:
        result = sweep_phi(family, config.lam, config.sweep.grid)
    write_sweep_csv(args.out, config.sweep.grid, result)
    violations = int(result.violated.sum())
    print(
        f"wrote {len(result)} rows to {args.out} "
        f"({violations} violated, sweep over {config.sweep.param})"
    )
    if args.fail_on_violation and violations:
        return 4
    return 0


def cmd_simulate(args) -> int:
    config, family, povm = _experiment(args.config)
    sim = config.sim
    if sim is None:
        raise ConfigError("missing required field 'sim'")
    if povm is None or config.sweep is not None:
        raise ConfigError("simulate needs a 'measurement' and no 'sweep' (sweeps are audit-only)")
    report = crb_experiment(family, povm, config.lam, sim.n, sim.trials, sim.seed, sim.interval)
    if args.out is not None:
        _write_trials_csv(args.out, report, config.lam, sim.n, sim.seed)
    print(f"empirical_std = {_fmt(report.empirical_std)}")
    print(f"crb           = {_fmt(report.crb)}")
    print(f"ratio         = {_fmt(report.ratio)}")
    print(f"trials        = {report.trials}")
    if args.out is not None:
        print(f"wrote per-trial estimates to {args.out}")
    return 0


def _write_trials_csv(path, report: CrbReport, true_lambda: float, n: int, seed: int) -> None:
    """Write a ``#`` settings line, ``trial,estimate`` rows and a ``summary`` std row."""
    rows = "%d,%.17g\n" * report.trials % tuple(chain.from_iterable(enumerate(report.estimates)))
    text = (
        f"# true_lambda={true_lambda:.17g} n={n} trials={report.trials} seed={seed} "
        f"interval=({report.interval[0]:.17g},{report.interval[1]:.17g})\n"
        f"trial,estimate\n{rows}summary,{report.empirical_std:.17g}\n"
    )
    _write_text(path, (text.encode(),))


def cmd_golden(args) -> int:
    report = reproduce_counterexample()
    checks = [
        ("qfi", report.qfi, 1.0),
        ("seminorm_sq", report.seminorm_sq, 1.0),
        ("fisher at phi=lambda", report.fisher, 1.0),
        ("entropy", report.entropy, 0.0),
        ("rhs", report.rhs, _LN2),
    ]
    ok = True
    for name, got, want in checks:
        if abs(got - want) <= 1e-9:
            print(f"PASS {name}: {_fmt(got)}")
        else:
            ok = False
            print(f"FAIL {name}: expected {want:.17g}, got {got:.17g}")
    if report.violated:
        print("PASS violated: true")
    else:
        ok = False
        print("FAIL violated: expected true, got false")
    return 0 if ok else 1


# Built on first use and shared by every call of main: parsing leaves
# the parser unchanged.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherlab",
        description="Pure-state quantum metrology toolbox and inequality auditor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qfi = sub.add_parser("qfi", help="QFI, generator ceiling and SLD spectrum")
    p_qfi.add_argument("--config", required=True, help="path to JSON config")
    p_qfi.set_defaults(func=cmd_qfi)

    p_audit = sub.add_parser("audit", help="evaluate the entropy inequality")
    p_audit.add_argument("--config", required=True, help="path to JSON config")
    p_audit.add_argument("--out", help="CSV output path (sweeps only; required there)")
    p_audit.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 4 if any audited point violates the inequality",
    )
    p_audit.add_argument(
        "--bits",
        action="store_true",
        help="display entropies in bits (internal values stay in nats)",
    )
    p_audit.set_defaults(func=cmd_audit)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo Cramer-Rao check")
    p_sim.add_argument("--config", required=True, help="path to JSON config")
    p_sim.add_argument("--out", help="CSV path for per-trial estimates")
    p_sim.set_defaults(func=cmd_simulate)

    p_golden = sub.add_parser("golden", help="run the built-in counterexample checks")
    p_golden.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (StationaryStateError, DegenerateGeneratorError, FlatLikelihoodError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FisherlabError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    # Print what stdout cannot encode (say, a non-ASCII --out path) escaped, as stderr does.
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
