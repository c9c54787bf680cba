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
matrices. Audit sweeps replace "measurement" with
``"sweep": {"param": "q" | "phi", "grid": [...]}``; simulations add a
``"sim": {"n", "trials", "seed", "interval"?}`` block.

Exit codes: 0 success, 1 golden-check mismatch, 2 malformed config,
3 degenerate physics (stationary state, constant generator spectrum,
flat likelihood, zero Fisher information in simulate), 4 violation found
while --fail-on-violation is set.

Human-readable tables go to stdout with 6 significant digits; CSV files
carry full double precision and are the only machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .audit import audit, reproduce_counterexample, sweep_phi, sweep_q, write_sweep_csv
from .errors import (
    ConfigError,
    DegenerateGeneratorError,
    FisherlabError,
    FlatLikelihoodError,
    StationaryStateError,
)
from .estimation import crb_experiment
from .measurement import (
    Povm,
    q_family_measurement,
    rotated_qubit_measurement,
    sld_measurement,
)
from .metrology import _qfi_report, sld
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
# The multinomial draw takes the shot count as a 64-bit signed integer.
_MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class SweepSpec:
    param: str
    grid: np.ndarray


@dataclass(frozen=True)
class SimSpec:
    n: int
    trials: int
    seed: int
    interval: tuple | None


@dataclass(frozen=True)
class ExperimentConfig:
    generator: np.ndarray
    input_state: np.ndarray
    lam: float
    measurement: object | None
    sweep: SweepSpec | None
    sim: SimSpec | None


def _numbers(value, depth: int, where: str, pair: bool = False) -> np.ndarray:
    """Config field ``where`` as an array of ``depth`` nested lists of numbers.

    With ``pair``, every innermost entry is an ``[re, im]`` pair and the
    array is complex. Entries must be plain ``int`` or ``float`` (JSON
    true/false, strings and null are not numbers) that fit a double and
    are finite. A type and length pass per nesting level and one array
    conversion of the flattened entries read a well-formed field; only
    a field that fails them is walked, by :func:`_first_bad`, to name
    its first bad entry.
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
    if array is None or not np.isfinite(array).all():
        problem = _first_bad(value, depth, where, pair)
        if problem is not None:
            raise ConfigError(problem)
        # Python callers may pass tuple pairs and float subclasses; _first_bad accepts them.
        array = np.array(value, dtype=float)
    return array.view(complex)[..., 0] if pair else array


def _first_bad(value, depth: int, where: str, pair: bool):
    """The message naming the first bad entry of a :func:`_numbers` field, or None."""
    if depth:
        if not isinstance(value, list) or not value:
            kind = "rows" if depth == 2 else "[re, im] pairs" if pair else "numbers"
            return f"field '{where}': expected a non-empty list of {kind}"
        for i, entry in enumerate(value):
            problem = _first_bad(entry, depth - 1, f"{where}[{i}]", pair)
            if problem is not None:
                return problem
        if depth == 2 and len(set(map(len, value))) != 1:
            return f"field '{where}': rows have unequal lengths"
        return None
    # bool is an int subclass, but JSON true/false are not numbers.
    parts = value if pair and isinstance(value, (list, tuple)) else [value]
    if (pair and len(parts) != 2) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts
    ):
        kind = "a [re, im] pair" if pair else "a number"
        return f"field '{where}': expected {kind}, got {value!r}"
    try:
        numbers = [float(x) for x in parts]
    except OverflowError:
        return f"field '{where}': {value!r} overflows a double"
    if not all(map(math.isfinite, numbers)):
        if pair:
            return f"field '{where}': expected finite numbers, got {value!r}"
        return f"field '{where}': expected a finite number, got {numbers[0]!r}"
    return None


def _finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"field '{where}': expected an integer, got {value!r}")
    return value


def _parse_sweep(data) -> SweepSpec:
    if not isinstance(data, dict):
        raise ConfigError("field 'sweep': expected an object")
    param = data.get("param")
    if param not in ("q", "phi"):
        raise ConfigError(f"field 'sweep.param': expected \"q\" or \"phi\", got {param!r}")
    values = _numbers(data.get("grid"), 1, "sweep.grid")
    unknown = set(data) - {"param", "grid"}
    if unknown:
        raise ConfigError(f"field 'sweep': unknown keys {sorted(unknown)}")
    return SweepSpec(param=param, grid=values)


def _parse_sim(data) -> SimSpec:
    if not isinstance(data, dict):
        raise ConfigError("field 'sim': expected an object")
    n = _integer(data.get("n"), "sim.n")
    trials = _integer(data.get("trials"), "sim.trials")
    seed = _integer(data.get("seed"), "sim.seed")
    if n < 1:
        raise ConfigError(f"field 'sim.n': must be >= 1, got {n}")
    if n > _MAX_SHOTS:
        raise ConfigError(f"field 'sim.n': must be <= {_MAX_SHOTS}, got {n}")
    if trials < 2:
        raise ConfigError(f"field 'sim.trials': must be >= 2, got {trials}")
    if seed < 0:
        raise ConfigError(f"field 'sim.seed': must be >= 0, got {seed}")
    interval = None
    if "interval" in data and data["interval"] is not None:
        raw = data["interval"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError("field 'sim.interval': expected [low, high]")
        lo, hi = _numbers(raw, 1, "sim.interval").tolist()
        if not hi > lo:
            raise ConfigError("field 'sim.interval': high must exceed low")
        if not math.isfinite(hi - lo):
            raise ConfigError("field 'sim.interval': its length high - low overflows")
        interval = (lo, hi)
    unknown = set(data) - {"n", "trials", "seed", "interval"}
    if unknown:
        raise ConfigError(f"field 'sim': unknown keys {sorted(unknown)}")
    return SimSpec(n=n, trials=trials, seed=seed, interval=interval)


def parse_config(data: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from decoded JSON, naming bad fields."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for required in ("generator", "input_state", "lambda"):
        if required not in data:
            raise ConfigError(f"missing required field '{required}'")
    known = {"generator", "input_state", "lambda", "measurement", "sweep", "sim"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")

    generator = _numbers(data["generator"], 2, "generator", pair=True)
    input_state = _numbers(data["input_state"], 1, "input_state", pair=True)
    lam = float(_numbers(data["lambda"], 0, "lambda"))

    measurement = data.get("measurement")
    if measurement is not None and not isinstance(measurement, str):
        if not isinstance(measurement, list) or not measurement:
            raise ConfigError(
                "field 'measurement': expected a constructor string or a list of matrices"
            )
        measurement = tuple(
            _numbers(m, 2, f"measurement[{i}]", pair=True) for i, m in enumerate(measurement)
        )

    sweep = _parse_sweep(data["sweep"]) if data.get("sweep") is not None else None
    sim = _parse_sim(data["sim"]) if data.get("sim") is not None else None
    return ExperimentConfig(
        generator=generator,
        input_state=input_state,
        lam=lam,
        measurement=measurement,
        sweep=sweep,
        sim=sim,
    )


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed in a config")


# Python's json accepts NaN, Infinity and -Infinity literals; this
# decoder turns them into config errors.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_config_text(text: str) -> ExperimentConfig:
    try:
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_config(data)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config_text(text)


def build_family(config: ExperimentConfig) -> StateFamily:
    return StateFamily(generator=config.generator, input_state=config.input_state)


def _parse_spec_args(arg_text: str, spec: str) -> dict:
    args = {}
    for part in arg_text.split(","):
        key, sep, raw = part.partition("=")
        if not sep or not key:
            raise ConfigError(f"measurement spec {spec!r}: expected name:key=value")
        if key in args:
            raise ConfigError(f"measurement spec {spec!r}: key {key!r} is given twice")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"measurement spec {spec!r}: {raw!r} is not a number")
        args[key] = _finite(value, f"measurement spec {spec!r}")
    return args


def build_povm(config: ExperimentConfig, family: StateFamily) -> Povm:
    """Materialize the configured measurement for the family at its lambda."""
    measurement = config.measurement
    if measurement is None:
        raise ConfigError("missing required field 'measurement'")
    if not isinstance(measurement, str):
        return Povm.from_effects(measurement)

    name, _, arg_text = measurement.partition(":")
    args = _parse_spec_args(arg_text, measurement) if arg_text else {}
    if name == "sld":
        if args:
            raise ConfigError("measurement spec 'sld' takes no arguments")
        return sld_measurement(sld(derivative(family, config.lam)))
    if name == "q_family":
        if set(args) != {"q"}:
            raise ConfigError("measurement spec 'q_family' needs exactly q=<value>")
        sd = derivative(family, config.lam)
        return q_family_measurement(sld(sd), sd.state, args["q"])
    if name == "rotated":
        if set(args) != {"phi"}:
            raise ConfigError("measurement spec 'rotated' needs exactly phi=<value>")
        return rotated_qubit_measurement(args["phi"])
    raise ConfigError(f"unknown measurement constructor {name!r}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_qfi(args) -> int:
    config = load_config(args.config)
    family = build_family(config)
    sd = derivative(family, config.lam)
    sldd = sld(sd)
    report = _qfi_report(family, sd)
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
        print(f"OK: S = {report.entropy * scale:.6f} ≥ {report.rhs * scale:.6f}")


def cmd_audit(args) -> int:
    config = load_config(args.config)
    family = build_family(config)
    has_measurement = config.measurement is not None
    has_sweep = config.sweep is not None
    if has_measurement == has_sweep:
        raise ConfigError("audit needs exactly one of 'measurement' or 'sweep'")

    if has_measurement:
        if args.out is not None:
            raise ConfigError("--out is for sweep audits; a single audit prints its table")
        report = audit(family, config.lam, build_povm(config, family))
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
    config = load_config(args.config)
    if config.sim is None:
        raise ConfigError("missing required field 'sim'")
    if config.measurement is None:
        raise ConfigError("simulate needs a 'measurement' (sweeps are audit-only)")
    family = build_family(config)
    povm = build_povm(config, family)
    report = crb_experiment(
        family,
        povm,
        config.lam,
        config.sim.n,
        config.sim.trials,
        config.sim.seed,
        search_interval=config.sim.interval,
        csv_path=args.out,
    )
    print(f"empirical_std = {_fmt(report.empirical_std)}")
    print(f"crb           = {_fmt(report.crb)}")
    print(f"ratio         = {_fmt(report.ratio)}")
    print(f"trials        = {report.trials}")
    if args.out is not None:
        print(f"wrote per-trial estimates to {args.out}")
    return 0


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
def build_parser() -> argparse.ArgumentParser:
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
        args = build_parser().parse_args(argv)
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
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
