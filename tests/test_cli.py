import csv
import dataclasses
import decimal
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import orjson
import pytest
from numpy.testing import assert_allclose

from conftest import povm_effects, random_hermitian, random_state
import fisherlab.audit
import fisherlab.cli
import fisherlab.estimation
import fisherlab.state_family
from fisherlab import Povm, crb_experiment, derivative, qfi_report, sld
from fisherlab.cli import (
    build_family,
    build_povm,
    main,
    parse_config,
    parse_config_text,
)
from fisherlab.errors import ConfigError
from fisherlab.state_family import _shown
from test_measurement import binary_entropy, count_eigh, watch_gram

LN2 = math.log(2.0)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


SIM = {"n": 9, "trials": 4, "seed": 1}

SWEEP = {"param": "q", "grid": [0.5]}

STATE_FIELD = '"input_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]'


def qubit_config(**overrides) -> dict:
    config = {
        "generator": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        "input_state": [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]],
        "lambda": 0.7,
    }
    config.update(overrides)
    return config


def real_matrices(*matrices) -> list:
    """Real matrices written as config lists of ``[re, im]`` pairs."""
    return [[[[float(x), 0.0] for x in row] for row in matrix] for matrix in matrices]


def write_config(tmp_path, config, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


class TestConfigParsing:
    def test_missing_field_is_named(self):
        config = qubit_config()
        del config["generator"]
        with pytest.raises(ConfigError, match="generator"):
            parse_config_text(json.dumps(config))

    def test_bad_pair_is_located(self):
        config = qubit_config()
        config["generator"][0][1] = [0.0]
        with pytest.raises(ConfigError, match=r"generator\[0\]\[1\]"):
            parse_config_text(json.dumps(config))

    def test_overflowing_integer_is_a_config_error(self):
        # json reads a 400-digit integer exactly; it has no double value.
        config = qubit_config(**{"lambda": 10**400})
        with pytest.raises(ConfigError, match="lambda"):
            parse_config_text(json.dumps(config))
        config = qubit_config()
        config["input_state"][1][0] = 10**400
        with pytest.raises(ConfigError, match=r"input_state\[1\]"):
            parse_config_text(json.dumps(config))

    def test_json_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text("{\n  broken\n}")

    def test_explicit_matrix_measurement(self):
        effects = [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ]
        config = parse_config_text(json.dumps(qubit_config(measurement=effects)))
        from fisherlab.cli import build_family

        povm = build_povm(config, build_family(config))
        assert len(povm) == 2
        assert_allclose(povm_effects(povm), np.array(effects).view(complex)[..., 0], atol=1e-15)

    def test_unknown_constructor_rejected(self):
        # A spec is read with the rest of the config, before anything is built.
        with pytest.raises(ConfigError, match="unknown measurement constructor 'bell'"):
            parse_config_text(json.dumps(qubit_config(measurement="bell")))


def explicit_config_text(dim: int) -> str:
    """A ``dim``-level config measured in the computational basis, given as explicit effects."""
    effects = np.zeros((dim, dim, dim))
    effects[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    fields = {
        "generator": np.diag(np.arange(dim, dtype=float)),
        "input_state": np.full(dim, dim**-0.5),
        "measurement": effects,
    }
    config = {key: np.stack([a, np.zeros_like(a)], axis=-1).tolist() for key, a in fields.items()}
    return json.dumps({**config, "lambda": 0.7})


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text, problem",
        [
            (json.dumps(qubit_config()), None),
            ("{\n  broken\n}", "invalid JSON"),
            (json.dumps(qubit_config(**{"lambda": "0.7"})), "lambda"),
            ('{"generator": ' + "[" * 10**5 + "]" * 10**5 + "}", "nested too deeply"),
        ],
        ids=["valid", "json-syntax", "parse-config", "deep-nesting"],
    )
    def test_collector_state_is_restored(self, enabled, text, problem):
        was_enabled = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            if problem is None:
                parse_config_text(text)
            else:
                with pytest.raises(ConfigError, match=problem):
                    parse_config_text(text)
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_no_collection_runs_while_a_large_config_is_read(self):
        # d = 32 explicit effects decode to ~34,000 lists; with the
        # collector running, reading them triggers ~50 collections.
        text = explicit_config_text(32)
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            config = parse_config_text(text)
        finally:
            gc.callbacks.remove(record)
        assert len(config.measurement) == 32
        assert starts == []


def sweep_config(grid) -> dict:
    return qubit_config(sweep={"param": "q", "grid": grid})


def _bit_tree(tree):
    """A decoded JSON tree with each float as its bit pattern, so that ``-0.0 != 0.0``.

    An integer outside [-2**63, 2**64), which orjson reads as a double,
    counts as that double.
    """
    if isinstance(tree, int) and not isinstance(tree, bool) and not -(2**63) <= tree < 2**64:
        tree = float(tree)
    if isinstance(tree, float):
        return ("double", tree.hex())
    if isinstance(tree, list):
        return [_bit_tree(entry) for entry in tree]
    if isinstance(tree, dict):
        return {key: _bit_tree(value) for key, value in tree.items()}
    return tree


def _config_bits(value):
    """An :class:`ExperimentConfig` (or any of its fields) as comparable bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(_config_bits, value))
    if dataclasses.is_dataclass(value):
        return tuple(_config_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def _doubles(rng) -> list:
    """Random and edge-case doubles: signed zeros, subnormals, the extremes, wide exponents."""
    edges = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max]
    edges += [1e23, 9007199254740993.0, 0.1, 1.0, 2.0**-1074 * 3]
    bit_patterns = [
        np.uint64(rng.getrandbits(64)).view(np.float64).item() for _ in range(1500)
    ]
    subnormals = [np.uint64(rng.getrandbits(52)).view(np.float64).item() for _ in range(300)]
    scaled = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 308) for _ in range(500)]
    values = [x for x in edges + bit_patterns + subnormals + scaled if math.isfinite(x)]
    return values + [-x for x in values]


def _halfway_texts(values) -> list:
    """Exact decimal midpoints between each non-negative double and the next one up,
    and the same points moved by 2**-41 of that gap either way."""
    exact = decimal.Context(prec=2000, traps=[decimal.Inexact])
    texts = []
    for x in values:
        if math.copysign(1.0, x) > 0 and x < sys.float_info.max:
            low, high = decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))
            mid = exact.divide(exact.add(low, high), 2)
            nudge = exact.divide(exact.subtract(high, low), 2**41)
            texts += [str(mid), str(exact.add(mid, nudge)), str(exact.subtract(mid, nudge))]
    return texts


# Tokens that probe where the two decoders could part:
# non-finite literals and values, lone surrogates (raw and escaped),
# control characters, integers past 64 bits, a byte-order mark, and the
# JSON punctuation and digits that keep many mutants valid.
_MUTATION_TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "\ud800", "\\ud800", "\\udc00", "\ufeff",
    "\x00", "\x1f", "\x7f", "\t", "\n", "18446744073709551619", "-92233720368547758089",
    "12345678901234567890", "9223372036854775808", "true", "false", "null", "\\u00e9", "é",
    "[", "]", "{", "}", ",", ":", '"', "\\", " ", "-", "+", ".", "e", "E", "0", "1", "7", "9",
]  # fmt: skip


EXPLICIT_QUBIT = qubit_config(measurement=real_matrices([[1, 0], [0, 0]], [[0, 0], [0, 1]]))


def _mutated_configs(rng, count: int, bases=None):
    """``count`` valid configs, each with one to three tokens inserted, deleted or replaced.

    The configs are drawn from ``bases``, by default a spec, a sweep and
    an explicit-effect config.
    """
    # A seed past 64 bits is valid, but orjson reads it as a double.
    sim = {**SIM, "seed": 2**64 + 3, "interval": [0, 2]}
    bases = bases or [
        json.dumps(qubit_config(measurement="sld", sim=sim)),
        json.dumps(sweep_config([0.1, -0.0, 1e-300, 1])),
        json.dumps(EXPLICIT_QUBIT),
    ]
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(("insert", "delete", "replace"))
            token = "" if edit == "delete" else rng.choice(_MUTATION_TOKENS)
            cut = {"insert": 0, "delete": rng.randint(1, 4), "replace": 1}[edit]
            text = text[:at] + token + text[at + cut :]
        yield text


class TestTwoReaders:
    """orjson decodes every config first; Python's json re-reads what it or the checks reject."""

    def test_doubles_decode_to_the_same_bits(self):
        values = _doubles(random.Random(2205))
        texts = [f(x) for x in values for f in (repr, "{:.17g}".format, "{:.24e}".format)]
        texts += _halfway_texts(values[::7])
        texts += ["2.4703282292062327e-324", "2.4703282292062328e-324", "-0", "-0.0", "0e999"]
        text = "[" + ",".join(texts) + "]"
        assert _bit_tree(orjson.loads(text)) == _bit_tree(json.loads(text))

    def test_what_orjson_accepts_json_reads_alike(self):
        accepted = wide = 0
        for text in _mutated_configs(random.Random(11), 4000):
            try:
                fast = orjson.loads(text)
            except orjson.JSONDecodeError:
                continue
            slow = json.loads(text)
            assert _bit_tree(fast) == _bit_tree(slow), text
            accepted, wide = accepted + 1, wide + (fast != slow)
        # ~13% of mutants stay valid JSON; some hold integers past 64 bits.
        assert accepted > 300 and wide > 0

    def test_mutated_configs_get_the_stdlib_readers_outcome(self, monkeypatch):
        def outcome(text):
            try:
                return _config_bits(parse_config_text(text))
            except ConfigError as exc:
                return str(exc)

        def reject(text):
            raise orjson.JSONDecodeError("not read", text, 0)

        texts = list(_mutated_configs(random.Random(7919), 3000))
        fast = [outcome(text) for text in texts]
        monkeypatch.setattr(fisherlab.cli.orjson, "loads", reject)
        assert [outcome(text) for text in texts] == fast
        assert sum(not isinstance(result, str) for result in fast) > 75

    @pytest.mark.parametrize("kind", ["explicit-d32", "q-sweep", "simulate"])
    def test_valid_configs_are_read_by_orjson_alone(self, monkeypatch, kind):
        def refuse(text):
            raise AssertionError("the stdlib decoder ran")

        text = {
            "explicit-d32": lambda: explicit_config_text(32),
            "q-sweep": lambda: json.dumps(sweep_config(np.linspace(0, 1, 2001).tolist())),
            "simulate": lambda: json.dumps(qubit_config(measurement="sld", sim=SIM)),
        }[kind]()
        monkeypatch.setattr(json.JSONDecoder, "decode", refuse)
        parse_config_text(text)

    def test_a_seed_past_64_bits_is_read_by_the_stdlib_decoder(self, tmp_path, capsys):
        # orjson reads 2**64 + 3 as a double, which 'sim.seed' rejects.
        seed = 2**64 + 3
        config = qubit_config(measurement="sld", sim={"n": 400, "trials": 12, "seed": seed})
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        parsed = parse_config(config)
        family = build_family(parsed)
        report = crb_experiment(family, build_povm(parsed, family), 0.7, 400, 12, seed)
        lines = out.read_text().splitlines()
        assert f" seed={seed} " in lines[0]
        assert [float(line.split(",")[1]) for line in lines[2:-1]] == list(report.estimates)


def _outcome(text, read=parse_config_text):
    """The config bits ``read`` gives for ``text``, or the type and message of the error it raises."""
    try:
        return _config_bits(read(text))
    except (ConfigError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


def random_basis_config_text(dim: int, seed: int) -> str:
    """A random family measured in a Haar-random basis given as explicit effects."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, upper = np.linalg.qr(raw)
    kets = (unitary * (np.diag(upper) / np.abs(np.diag(upper)))).T
    fields = {
        "generator": random_hermitian(dim, rng),
        "input_state": random_state(dim, rng),
        "measurement": np.einsum("ki,kj->kij", kets, kets.conj()),
    }
    config = {key: np.stack([a.real, a.imag], axis=-1).tolist() for key, a in fields.items()}
    return json.dumps({**config, "lambda": float(rng.uniform(0.0, 2.0 * math.pi))})


class TestByteRead:
    """Configs are read as bytes; each reads as it did from a file opened in text mode."""

    @pytest.mark.parametrize("text", ["{bad", '{"generator": 1}', "[1e999]", '{"lambda": NaN}'])
    def test_bytes_and_str_raise_the_same_config_error(self, text):
        with pytest.raises(ConfigError) as from_str:
            parse_config_text(text)
        with pytest.raises(ConfigError) as from_bytes:
            parse_config_text(text.encode())
        assert str(from_bytes.value) == str(from_str.value)

    @pytest.mark.parametrize("kind", ["bad-json", "bad-field", "spec", "explicit-d32"])
    def test_every_bytes_like_input_reads_as_the_str(self, kind):
        text = {
            "bad-json": lambda: "{bad",
            "bad-field": lambda: '{"generator": 1}',
            "spec": lambda: json.dumps(qubit_config(measurement="sld", sim=SIM)),
            "explicit-d32": lambda: random_basis_config_text(32, 2101),
        }[kind]()
        data = text.encode()
        outcomes = [_outcome(source) for source in (text, data, bytearray(data), memoryview(data))]
        assert outcomes == [outcomes[0]] * 4

    def test_mutated_configs_read_alike_from_str_and_bytes(self):
        texts = list(_mutated_configs(random.Random(2101), 1500))
        texts = [text for text in texts if not any("\ud800" <= c <= "\udfff" for c in text)]
        outcomes = [_outcome(text) for text in texts]
        assert [_outcome(text.encode()) for text in texts] == outcomes
        assert sum(not isinstance(result[0], str) for result in outcomes) > 30

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                b'{"generator": \xff}',
                "config error: 'utf-8' codec can't decode byte 0xff in position 14: "
                "invalid start byte",
            ),
            (
                b'{"lambda": 0.7}\xe2\x82',
                "config error: 'utf-8' codec can't decode bytes in position 15-16: "
                "unexpected end of data",
            ),
            (
                b'{\r  "generator": [],\r x\r}',
                "config error: ConfigError: invalid JSON at line 3, column 2: "
                "Expecting property name enclosed in double quotes",
            ),
            (
                b'{\r\n\r\n x}',
                "config error: ConfigError: invalid JSON at line 3, column 2: "
                "Expecting property name enclosed in double quotes",
            ),
            (
                b"\xef\xbb\xbf" + json.dumps(qubit_config(measurement="sld")).encode(),
                "config error: ConfigError: invalid JSON at line 1, column 1: Expecting value",
            ),
        ],
        ids=["invalid-utf8", "truncated-utf8", "lone-cr", "crlf", "bom"],
    )
    def test_file_errors_read_as_from_a_text_mode_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert main(["qfi", "--config", str(path)]) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_carriage_returns_are_whitespace(self, tmp_path):
        text = json.dumps(qubit_config(measurement="sld"), indent=1)
        path = tmp_path / "config.json"
        path.write_bytes(text.replace("\n", "\r").encode())
        assert _config_bits(fisherlab.cli.load_config(str(path))) == _outcome(text)


def _explicit_text(matrices: str, **fields) -> bytes:
    """An explicit qubit config with the ``"measurement"`` array written as ``matrices``."""
    config = json.dumps(qubit_config(**fields))
    return f'{config[:-1]}, "measurement": {matrices}}}'.encode()


EFFECTS = json.dumps(EXPLICIT_QUBIT["measurement"])
FIRST, SECOND = (json.dumps(matrix) for matrix in EXPLICIT_QUBIT["measurement"])
QUOTED = json.dumps("1.0")


def _nested_text(fields: str) -> bytes:
    """A qubit config whose first ``"measurement"`` array is a nested object's, dropped by a
    later duplicate key; ``fields`` go before it."""
    config = json.dumps(qubit_config())
    return f'{config[:-1]}, {fields}"sweep": {{"measurement": {EFFECTS}}}, "sweep": null}}'.encode()


@pytest.fixture
def slab_reads(monkeypatch):
    """What each call of ``cli._slab_config`` returned: a config, or None to read the whole text."""
    read = fisherlab.cli._slab_config
    returned = []

    def spy(*args):
        returned.append(read(*args))
        return returned[-1]

    monkeypatch.setattr(fisherlab.cli, "_slab_config", spy)
    return returned


def _sliced_and_whole(monkeypatch, path, data: bytes) -> tuple:
    """Outcomes of ``data`` read in slabs of about one qubit matrix from bytes and from the
    file ``path``, and read whole."""

    def load(data):
        path.write_bytes(data)
        return fisherlab.cli.load_config(str(path))

    monkeypatch.setattr(fisherlab.cli, "_SLAB_BYTES", 40)
    sliced = _outcome(data), _outcome(data, load)
    monkeypatch.setattr(fisherlab.cli, "_SLAB_BYTES", 1 << 62)
    return *sliced, _outcome(data)


class TestSlabReader:
    """Large explicit effects are read and decoded a slab at a time, to the whole-text read's bits.

    Each case is read from bytes and from a file, both streamed in slabs.
    """

    def test_mutated_explicit_configs_read_alike(self, monkeypatch, tmp_path, slab_reads):
        texts = list(_mutated_configs(random.Random(37), 1500, [json.dumps(EXPLICIT_QUBIT)]))
        texts += _mutated_configs(random.Random(38), 500, [explicit_config_text(3)])
        texts += _mutated_configs(random.Random(39), 200, [random_basis_config_text(4, 39)])
        path = tmp_path / "config.json"
        for text in texts:
            data = text.encode("utf-8", "surrogatepass")
            sliced, from_file, whole = _sliced_and_whole(monkeypatch, path, data)
            assert sliced == from_file == whole, text
        # The bytes and the file take the same path; ~7% of mutants take slabs,
        # most others fall back or fail.
        from_bytes, from_files = slab_reads[::2], slab_reads[1::2]
        assert [c is None for c in from_bytes] == [c is None for c in from_files]
        taken = sum(config is not None for config in from_bytes)
        assert taken > 100 and len(from_bytes) > taken + 1000

    @pytest.mark.parametrize(
        "data, expected",
        [
            (_explicit_text(EFFECTS), "slabs"),
            (_explicit_text(f"[{FIRST},\n\t{SECOND}]"), "slabs"),
            (_explicit_text(f"[{FIRST} ,{FIRST}, {SECOND}]"), "slabs"),
            (_explicit_text(json.dumps(EXPLICIT_QUBIT["measurement"], indent=2)), "whole"),
            (_explicit_text(f"[ {FIRST}, {SECOND} ]"), "whole"),
            (_explicit_text(f'[{FIRST}, {SECOND}] , "measurement": null'), "whole"),
            (_explicit_text(f'[{FIRST}, {SECOND}], "\\u006deasurement": null'), "whole"),
            (_explicit_text(f'[{FIRST}, {SECOND}], "measurement": "sld"'), "whole"),
            (_explicit_text(f'[{FIRST}, "]]]]", {SECOND}]'), "error"),
            (_explicit_text(f'[{FIRST}, {SECOND}], "x]]]]": 1'), "error"),
            (_explicit_text(f"[{FIRST}, {FIRST}, [[[1, 0]]]]"), "error"),
            (_explicit_text(f"[{FIRST}, {FIRST}, {FIRST[:-1]}, [[1, 0], [0, 0]]]]"), "error"),
            (_explicit_text(f"[{FIRST}, {SECOND.replace('1.0', str(2**64 + 3))}]"), "slabs"),
            (_explicit_text(f"[{FIRST}, {FIRST}, {SECOND.replace('1.0', str(10**400))}]"), "error"),
            (_explicit_text(EFFECTS, sim={**SIM, "measurement": EFFECTS}), "error"),
            (_explicit_text(EFFECTS, sim={**SIM, "seed": 2**64 + 3}), "whole"),
            (_explicit_text(EFFECTS, **{"lambda": "0.7"}), "error"),
            (_explicit_text(f"[{FIRST}, {SECOND} "), "error"),
            (_explicit_text(EFFECTS, measurement=None), "slabs"),
            (_nested_text('"measurement": "sld", '), "whole"),
            (_nested_text(""), "whole"),
            (_explicit_text(EFFECTS, sim={**SIM, "interval": [0, 1]}), "whole"),
            (_explicit_text(f"[{FIRST}, {FIRST}, {SECOND.replace('1.0', 'false')}]"), "error"),
            (_explicit_text(f"[{FIRST}, {FIRST}, {SECOND.replace('1.0', QUOTED)}]"), "error"),
            (_explicit_text(f"[{FIRST}, {FIRST}, {SECOND.replace('1.0', 'null')}]"), "error"),
            (_explicit_text(f"[{FIRST}, {FIRST}, {SECOND.replace('[1.0, 0.0]', '{}')}]"), "error"),
            # Five blanks after each comma put every cut right after a matrix.
            (_explicit_text(f"[{',     '.join(['[[[[1.0], [0.0]]]]'] * 4)}]"), "error"),
        ],
        ids=[
            "compact",
            "newline-and-tab",
            "spaced-commas",
            "indented",
            "spaced-brackets",
            "duplicate-key-null",
            "escaped-duplicate-key",
            "duplicate-key-spec",
            "string-in-array",
            "key-holding-brackets",
            "smaller-matrix",
            "three-row-matrix",
            "integer-past-64-bits",
            "integer-past-a-double",
            "key-in-sim",
            "seed-past-64-bits",
            "bad-field-after-slabs",
            "unclosed-array",
            "earlier-null-key",
            "nested-key-after-root-spec",
            "nested-key-without-root-measurement",
            "brace-before-the-array",
            "false-in-a-slab",
            "number-string-in-a-slab",
            "null-in-a-slab",
            "object-in-a-slab",
            "list-leaves-in-whole-slabs",
        ],
    )
    def test_hand_cases_read_alike(self, monkeypatch, tmp_path, slab_reads, data, expected):
        sliced, from_file, whole = _sliced_and_whole(monkeypatch, tmp_path / "config.json", data)
        assert sliced == from_file == whole
        assert [config is not None for config in slab_reads] == [expected == "slabs"] * 2
        assert isinstance(whole[0], str) == (expected == "error")

    @pytest.mark.parametrize("gap", ["", " " * 100], ids=["compact", "blank-run"])
    def test_the_array_is_found_across_reads(self, monkeypatch, tmp_path, slab_reads, gap):
        # The '"measurement": [' of each text starts at a different offset around
        # the first reads' ends (41 bytes, then 40 at a time), so some straddle them.
        base = _explicit_text(f"[{FIRST}, {SECOND}]")
        base = base.replace(b'"measurement": [', f'"measurement"{gap}: ['.encode())
        for pad in range(0, 120, 3):
            data = base.replace(b'"measurement"', b" " * pad + b'"measurement"')
            assert len({*_sliced_and_whole(monkeypatch, tmp_path / "config.json", data)}) == 1
        assert len(slab_reads) == 80 and all(config is not None for config in slab_reads)

    @pytest.mark.parametrize("key", ['"measurement"', '"\\u006deasurement"'])
    def test_a_later_null_key_leaves_no_measurement(self, monkeypatch, slab_reads, key):
        monkeypatch.setattr(fisherlab.cli, "_SLAB_BYTES", 40)
        config = parse_config_text(_explicit_text(f"[{FIRST}, {SECOND}], {key}: null"))
        assert config.measurement is None and slab_reads == [None]

    def test_only_a_slab_holding_a_quote_t_or_f_takes_the_typed_pass(self, monkeypatch):
        numbers, passes = fisherlab.cli._numbers, []

        def spy(value, depth, where, pair=False, typed=True):
            if where == "measurement":
                passes.append((len(value), typed))
            return numbers(value, depth, where, pair, typed)

        monkeypatch.setattr(fisherlab.cli, "_numbers", spy)
        text = random_basis_config_text(32, 2101)
        parse_config_text(text.encode())
        # Each 64 KiB slab holds two d = 32 matrices.
        assert passes == [(2, False)] * 16
        passes.clear()
        at = 0
        for _ in range(4):
            at = text.index("]]], [[[", at) + len("]]], [[[")
        with pytest.raises(ConfigError, match=r"'measurement\[4\]\[0\]\[0\]'"):
            parse_config_text(f'{text[:at]}"0.5", {text[at:]}'.encode())
        # The slab holding the string takes the typed pass, as does the whole text, read by
        # orjson and then by json.
        assert passes == [(2, False), (2, False), (2, True), (32, True), (32, True)]

    def test_a_bad_entry_is_named_by_its_whole_array_index(self, monkeypatch, tmp_path):
        data = _explicit_text(f"[{FIRST}, {FIRST}, {SECOND.replace('1.0', 'true')}]")
        message = "field 'measurement[2][1][1]': expected a [re, im] pair, got [True, 0.0]"
        read = _sliced_and_whole(monkeypatch, tmp_path / "config.json", data)
        assert read == (("ConfigError", message),) * 3


class _CountingStream(io.BytesIO):
    """A byte stream that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        chunk = super().read(size)
        self.bytes_read += len(chunk)
        return chunk


class TestSlabMemory:
    def test_only_a_large_explicit_config_is_read_in_slabs(self, tmp_path, slab_reads):
        texts = {
            "explicit-d32": random_basis_config_text(32, 2101),
            "q-sweep": json.dumps(sweep_config(np.linspace(0, 1, 2001).tolist())),
            "simulate": json.dumps(qubit_config(measurement="sld", sim=SIM)),
        }
        for name, text in texts.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            config = fisherlab.cli.load_config(str(path))
            assert _config_bits(config) == _config_bits(parse_config_text(text))
        # Only the d = 32 file enters the slab read, and it stands; a 2,001-point
        # sweep fits in one 64 KiB slab.
        (config,) = slab_reads
        assert config.measurement.shape == (32, 32, 32)
        assert fisherlab.cli._SLAB_BYTES == 1 << 16
        assert len(texts["explicit-d32"]) > 20 * fisherlab.cli._SLAB_BYTES
        assert len(texts["q-sweep"]) < fisherlab.cli._SLAB_BYTES

    @pytest.mark.parametrize("kind", ["indented-d16", "sweep-100001", "key-after-slabs"])
    def test_the_text_is_read_again_only_after_slabs_are_dropped(self, slab_reads, kind):
        text = {
            "indented-d16": lambda: json.dumps(
                json.loads(random_basis_config_text(16, 5)), indent=1
            ),
            "sweep-100001": lambda: json.dumps(sweep_config(np.linspace(0, 1, 100001).tolist())),
            "key-after-slabs": lambda: random_basis_config_text(32, 2101)[:-1] + ', "x": 1}',
        }[kind]()
        data = text.encode()
        stream = _CountingStream(data)
        assert _outcome(stream, fisherlab.cli._read_config) == _outcome(text)
        assert len(data) > 4 * fisherlab.cli._SLAB_BYTES and slab_reads == [None]
        assert stream.bytes_read == len(data) * (2 if kind == "key-after-slabs" else 1)

    def test_no_collection_runs_while_slabs_are_read(self, slab_reads):
        data, starts = random_basis_config_text(32, 2101).encode(), []

        def record(phase, info):
            starts.append(phase)

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            parse_config_text(data)
        finally:
            gc.callbacks.remove(record)
        assert starts == [] and slab_reads[0] is not None and gc.isenabled()

    # The slab read holds the effect array, its buffer (a slab, the rest of the
    # matrix at its mark and a read ahead), one slab's tree (~3x its text), and the
    # text before the array; the realloc that grows the array counts once. Measured:
    # ~7.0 slabs over the effects at d = 32, ~10.1 at d = 48 (where a matrix's
    # text is 1.6 slabs). Reading the whole text holds ~38 slabs over them at
    # d = 32; joining the slabs' arrays at the end, the effects twice.
    @pytest.mark.parametrize("dim", [32, 48])
    def test_reading_holds_the_effects_and_a_few_slabs(self, tmp_path, dim):
        path = tmp_path / "config.json"
        path.write_text(random_basis_config_text(dim, 2101))
        fisherlab.cli.load_config(str(path))
        tracemalloc.start()
        try:
            effects = fisherlab.cli.load_config(str(path)).measurement
            Povm.from_effects(effects)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert effects.shape == (dim, dim, dim)
        assert peak <= effects.nbytes + 12 * fisherlab.cli._SLAB_BYTES


def _pipe_outcome(argv, data: bytes, capsys) -> tuple:
    """Exit code and output of ``main(argv + [config])`` with ``data`` written into a pipe."""
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        code = main([*argv, f"/dev/fd/{read_end}"])
    finally:
        writer.join(timeout=60)
        os.close(read_end)
    assert not writer.is_alive()
    return code, capsys.readouterr()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipeRead:
    """A pipe cannot be read twice; it is read whole, and then as a file would be."""

    @pytest.mark.parametrize("kind", ["small", "explicit-d32", "indented"])
    def test_a_pipe_reads_as_the_same_file(self, tmp_path, capsys, slab_reads, kind):
        text = {
            "small": lambda: json.dumps(EXPLICIT_QUBIT),
            "explicit-d32": lambda: random_basis_config_text(32, 2101),
            "indented": lambda: json.dumps(json.loads(random_basis_config_text(16, 5)), indent=1),
        }[kind]()
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["audit", "--config"]
        from_file = main([*argv, str(path)]), capsys.readouterr()
        assert _pipe_outcome(argv, text.encode(), capsys) == from_file
        assert from_file[0] == 0 and "S = " in from_file[1].out
        taken = {"small": [], "explicit-d32": [True, True], "indented": [False, False]}[kind]
        assert [config is not None for config in slab_reads] == taken
        assert len(text) > fisherlab.cli._SLAB_BYTES or kind == "small"

    def test_a_bad_config_in_a_pipe_fails_as_the_same_file(self, tmp_path, capsys):
        data = random_basis_config_text(32, 2101).replace("]]], [[[", "]]], true, [[[", 1).encode()
        path = tmp_path / "config.json"
        path.write_bytes(data)
        from_file = main(["qfi", "--config", str(path)]), capsys.readouterr()
        assert _pipe_outcome(["qfi", "--config"], data, capsys) == from_file
        assert from_file[0] == 2 and "field 'measurement[1]'" in from_file[1].err


class TestArrayReader:
    """The one-pass array read of numeric fields against a per-entry oracle.

    The oracle converts each entry on its own, with ``float(v)`` or
    ``complex(re, im)``, as a walk over the decoded JSON would.
    """

    @pytest.mark.parametrize(
        "grid",
        [[0, 0.5, 1], [-0.0, 0.25, 1, 0.0], [1e-300, 3, 0.1]],
        ids=["mixed", "signed-zero", "tiny"],
    )
    def test_grid_reads_bit_for_bit_like_the_walk(self, grid):
        walked = np.array([float(v) for v in grid])
        parsed = parse_config_text(json.dumps(sweep_config(grid))).sweep.grid
        assert parsed.dtype == walked.dtype and parsed.tobytes() == walked.tobytes()

    def test_complex_fields_read_bit_for_bit_like_the_walk(self):
        matrix = [[[0.5, -0.0], [0, 1]], [[-0.0, -1], [-0.5, 0]]]
        walked = np.array([[complex(re, im) for re, im in row] for row in matrix])
        state = [[-0.0, 1], [0.25, -0.0]]
        sim = {"n": 10, "trials": 2, "seed": 1, "interval": [-1, 2.5]}
        config = qubit_config(
            generator=matrix, input_state=state, measurement=[matrix, matrix], sim=sim
        )
        text = json.dumps(config).replace('"lambda": 0.7', '"lambda": 3')
        parsed = parse_config_text(text)
        for read in (parsed.generator, *parsed.measurement):
            assert read.dtype == walked.dtype and read.shape == (2, 2)
            assert read.tobytes() == walked.tobytes()
        oracle = np.array([complex(re, im) for re, im in state])
        assert parsed.input_state.tobytes() == oracle.tobytes()
        assert type(parsed.lam) is float and parsed.lam == 3.0
        assert parsed.sim.interval == (-1.0, 2.5)
        assert [type(end) for end in parsed.sim.interval] == [float, float]

    def test_tuples_from_python_callers_get_the_walks_verdict(self):
        # The entry-by-entry read takes tuple pairs but only list rows; the fast pass takes neither.
        config = qubit_config(input_state=[(INV_SQRT2, 0.0), (INV_SQRT2, 0.0)])
        state = parse_config(config).input_state
        assert state.tobytes() == np.array([INV_SQRT2, INV_SQRT2], dtype=complex).tobytes()
        # Float subclasses are numbers to the entry-by-entry read too.
        config = qubit_config(**{"lambda": np.float64(0.7)})
        assert type(parse_config(config).lam) is float
        config = qubit_config(generator=[((0.5, 0.0), (0.0, 0.0)), [[0.0, 0.0], [-0.5, 0.0]]])
        with pytest.raises(ConfigError, match=r"generator\[0\]'"):
            parse_config(config)

    @pytest.mark.parametrize(
        "text, where",
        [
            ('"grid": [0.1, true]', r"sweep\.grid\[1\]"),
            ('"grid": [false, 0.2]', r"sweep\.grid\[0\]"),
            ('"grid": [0.1, "1.5"]', r"sweep\.grid\[1\]"),
            ('"grid": [0.1, null]', r"sweep\.grid\[1\]"),
            ('"grid": [0.1, [0.2]]', r"sweep\.grid\[1\]"),
            ('"grid": []', r"'sweep\.grid'"),
            ('"grid": [0.1, 1' + "0" * 400 + "]", r"sweep\.grid\[1\].*overflows"),
            ('"grid": [0.1, 1e999]', r"sweep\.grid\[1\].*finite"),
        ],
    )
    def test_bad_grid_entries_are_named(self, text, where):
        config = json.dumps(qubit_config())[:-1] + ', "sweep": {"param": "q", ' + text + "}}"
        with pytest.raises(ConfigError, match=where):
            parse_config_text(config)

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("input_state", [[True, 0], [0.7, 0]], r"input_state\[0\]"),
            ("input_state", [[0.7, 0], [0.7, False]], r"input_state\[1\]"),
            ("input_state", [["1.5", 0], [0.7, 0]], r"input_state\[0\]"),
            ("input_state", [None, [0.7, 0]], r"input_state\[0\]"),
            ("input_state", [[0.7, 0, 0], [0.7, 0]], r"input_state\[0\]"),
            ("input_state", [[0.7], [0.7, 0]], r"input_state\[0\]"),
            ("input_state", [], r"'input_state'"),
            ("input_state", [[0.7, 0], [10**400, 0]], r"input_state\[1\].*overflows"),
            ("input_state", [[0.7, 0], "1e999"], r"input_state\[1\].*finite"),
            ("generator", [[[1, 0], [0, 0]], [[0, 0]]], r"'generator'.*unequal"),
            ("generator", [[[1, 0], [0, 0]], [[0, True], [0, 0]]], r"generator\[1\]\[0\]"),
            ("generator", [[[1, 0], [0, 0]], [[0, 0], None]], r"generator\[1\]\[1\]"),
            ("generator", [[[1, 0], [0, 0]], []], r"generator\[1\]'"),
            ("generator", [[[1, 0], [0, 0]], [[0, 0], "1e999"]], r"generator\[1\]\[1\].*finite"),
            (
                "measurement",
                [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, True]]]],
                r"measurement\[1\]\[1\]\[1\]",
            ),
        ],
    )
    def test_bad_complex_entries_are_named(self, field, value, where):
        # "1e999" stands for a literal that json reads as inf.
        text = json.dumps(qubit_config(**{field: value})).replace('"1e999"', "[1e999, 0]")
        with pytest.raises(ConfigError, match=where):
            parse_config_text(text)


# The reader as it stood before it named bad entries itself: a fast pass,
# a second walker that restated its rules to name a bad entry, and a
# fallback conversion for what only the walker accepts. Kept as the
# oracle for fisherlab.cli._numbers.
def _oracle_numbers(value, depth: int, where: str, pair: bool = False) -> np.ndarray:
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
        problem = _oracle_first_bad(value, depth, where, pair)
        if problem is not None:
            raise ConfigError(problem)
        # Python callers may pass tuple pairs and float subclasses; _first_bad accepts them.
        array = np.array(value, dtype=float)
    return array.view(complex)[..., 0] if pair else array


def _oracle_first_bad(value, depth: int, where: str, pair: bool):
    if depth:
        if not isinstance(value, list) or not value:
            kind = "rows" if depth == 2 else "[re, im] pairs" if pair else "numbers"
            return f"field '{where}': expected a non-empty list of {kind}"
        for i, entry in enumerate(value):
            problem = _oracle_first_bad(entry, depth - 1, f"{where}[{i}]", pair)
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
        return f"field '{where}': expected {kind}, got {_shown(value)}"
    try:
        numbers = [float(x) for x in parts]
    except OverflowError:
        return f"field '{where}': {_shown(value)} overflows a double"
    if not all(map(math.isfinite, numbers)):
        if pair:
            return f"field '{where}': expected finite numbers, got {_shown(value)}"
        return f"field '{where}': expected a finite number, got {_shown(numbers[0])}"
    return None


# The effect-list read before it was one depth-3 read: one read per effect,
# stacked. Its whole-list errors carry the wording of the depth-3 read.
def _oracle_effects(value, depth: int, where: str, pair: bool = False) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field '{where}': expected a non-empty list of matrices")
    effects = [_oracle_numbers(m, 2, f"{where}[{i}]", pair) for i, m in enumerate(value)]
    if len({effect.shape for effect in effects}) != 1:
        raise ConfigError(f"field '{where}': matrices have unequal sizes")
    return np.array(effects)


class _Float(float):
    """A float subclass, as a Python caller may pass one."""


def _number(rng: random.Random):
    """A number of some accepted type."""
    x = rng.uniform(-2.0, 2.0)
    return rng.choice(
        [x, rng.randint(-3, 3), -0.0, 5e-324, 2**53 + 1, np.float64(x), _Float(x), 1e308]
    )


def _random_number(rng: random.Random):
    """A field entry: usually a number of some accepted type, sometimes a bad one."""
    if rng.random() < 0.9:
        return _number(rng)
    return rng.choice(
        [True, False, None, "1.5", 10**400, -(10**400), math.inf, -math.inf, math.nan, [0.5]]
    )


def _random_field(rng: random.Random, depth: int, pair: bool):
    """A field of ``depth`` nested lists for the reader, well-formed about half the time."""
    if depth == 0:
        if not pair:
            return _random_number(rng)
        re, im = _random_number(rng), _random_number(rng)
        return rng.choice([[re, im]] * 8 + [(re, im), [re], [re, im, im], re])
    if rng.random() < 0.02:
        return rng.choice([[], None, 0.5, ()])
    size = rng.randint(1, 3)
    entries = [_random_field(rng, depth - 1, pair) for _ in range(size)]
    if depth == 2 and rng.random() < 0.05:
        entries.append([_random_field(rng, 0, pair)] * 4)  # longer than any other row
    return tuple(entries) if rng.random() < 0.01 else entries


def _random_effects(rng: random.Random):
    """A depth-3 ``[re, im]`` field: effects of one size, five times in seven with one flaw."""

    def matrix(rows: int, cols: int) -> list:
        return [[[_number(rng), _number(rng)] for _ in range(cols)] for _ in range(rows)]

    dim = rng.randint(1, 3)
    effects = [matrix(dim, dim) for _ in range(rng.randint(1, 3))]
    k, i, j = rng.randrange(len(effects)), rng.randrange(dim), rng.randrange(dim)
    flaw = rng.randrange(7)
    if flaw == 0:  # a matrix of some size, often another one
        effects.insert(k, matrix(rng.randint(1, 3), rng.randint(1, 3)))
    elif flaw == 1:  # an entry deep inside, often a bad one
        effects[k][i][j] = _random_field(rng, 0, True)
    elif flaw == 2:  # an empty list at some level
        rng.choice([effects, effects[k], effects[k][i]]).clear()
    elif flaw == 3:  # a random matrix field
        effects[k] = _random_field(rng, 2, True)
    elif flaw == 4:  # not a list
        effects = rng.choice([None, 0.5, tuple(effects)])
    return effects


def _read(reader, value, depth: int, pair: bool):
    """What ``reader`` makes of a field: its array's type, dtype, shape and bytes, or its error."""
    try:
        array = reader(value, depth, "f", pair)
    except Exception as exc:
        return type(exc), str(exc)
    return type(array), array.dtype, array.shape, array.tobytes()


def _json_mutants(tree):
    """``tree`` and trees a JSON text with no string, true or false can hold near it: the entry
    at each position replaced by a few values, and every number one level too deep (which
    writes each ``[re, im]`` pair as ``[[re], [im]]``)."""

    def positions(node, path=()):
        yield path, node
        for i, entry in enumerate(node if isinstance(node, list) else ()):
            yield from positions(entry, (*path, i))

    def replaced(node, path, new):
        if not path:
            return new
        return [
            replaced(entry, path[1:], new) if i == path[0] else entry
            for i, entry in enumerate(node)
        ]

    def deeper(node):
        return [deeper(entry) for entry in node] if isinstance(node, list) else [node]

    yield tree
    yield deeper(tree)
    for path, node in positions(tree):
        news = [[node], [node, node], 0.5, None, {}, [], 2**53 + 1, 2**64 + 3, -(2**70), 10**400]
        if isinstance(node, list) and node:
            news += [[*node, node[-1]], node[:-1]]  # a ragged row, a three-entry pair
        for new in news:
            yield replaced(tree, path, new)


class TestReaderOracle:
    """fisherlab.cli._numbers against the readers it replaced, kept above as oracles."""

    CASES = 8000

    def test_random_fields_read_or_fail_like_the_oracle(self):
        rng = random.Random(20)
        outcomes = {"read": 0, "rejected": 0}
        effect_lists = {"read": 0, "rejected": 0}
        for _ in range(self.CASES):
            depth, pair = rng.randint(0, 3), rng.random() < 0.5
            if depth == 3:
                value, pair, oracle = _random_effects(rng), True, _oracle_effects
            else:
                if depth == 0 and pair:
                    depth = 1
                value, oracle = _random_field(rng, depth, pair), _oracle_numbers
            want = _read(oracle, value, depth, pair)
            assert _read(fisherlab.cli._numbers, value, depth, pair) == want, (value, depth, pair)
            outcome = "read" if want[0] is np.ndarray else "rejected"
            outcomes[outcome] += 1
            effect_lists[outcome] += depth == 3
        # Both branches must be well exercised for the agreement to mean anything.
        assert min(outcomes.values()) > self.CASES // 4, outcomes
        assert min(effect_lists.values()) > self.CASES // 16, effect_lists

    @pytest.mark.parametrize(
        "value, depth, pair, message",
        [
            ([0.1, True, None], 1, False, "field 'f[1]': expected a number, got True"),
            (
                [[[1, 0], [0, 0]], [[True, 0]]],
                2,
                True,
                "field 'f[1][0]': expected a [re, im] pair, got [True, 0]",
            ),
        ],
        ids=["first-of-two-bad-entries", "entry-before-unequal-rows"],
    )
    def test_first_bad_entry_is_named(self, value, depth, pair, message):
        for reader in (_oracle_numbers, fisherlab.cli._numbers):
            with pytest.raises(ConfigError) as raised:
                reader(value, depth, "f", pair)
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "value, depth, pair",
        [
            (EXPLICIT_QUBIT["measurement"], 3, True),
            (EXPLICIT_QUBIT["generator"], 2, True),
            (EXPLICIT_QUBIT["input_state"], 1, True),
            ([0.1, -0.0, 3, 1e-300], 1, False),
            (0.7, 0, False),
        ],
        ids=["effects", "generator", "state", "grid", "number"],
    )
    def test_the_plain_pass_reads_as_the_typed_pass(self, value, depth, pair):
        # A tree with no str or bool, as a slab with no '"', "t" or "f" decodes to.
        def read(typed):
            return lambda *args: fisherlab.cli._numbers(*args, typed=typed)

        outcomes = []
        for tree in _json_mutants(value):
            outcomes.append(_read(read(True), tree, depth, pair))
            assert _read(read(False), tree, depth, pair) == outcomes[-1], tree
        assert {outcome[0] for outcome in outcomes} == {np.ndarray, ConfigError}


class TestCmdQfi:
    def test_paper_family(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config())
        assert main(["qfi", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "F_Q     = 1" in out
        assert "||h||^2 = 1" in out
        assert "N       = 2" in out

    def test_table_comes_from_one_derivative(self, tmp_path, capsys, monkeypatch, rng):
        generator = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        generator = (generator + generator.conj().T) / 2.0
        state = rng.normal(size=3) + 1j * rng.normal(size=3)
        state /= np.linalg.norm(state)
        config = qubit_config(
            generator=[[[z.real, z.imag] for z in row] for row in generator],
            input_state=[[z.real, z.imag] for z in state],
        )
        family = build_family(parse_config_text(json.dumps(config)))
        sd = derivative(family, 0.7)
        report, sldd = qfi_report(family, sd), sld(sd)
        expected = (
            f"F_Q     = {report.qfi:.6g}\n"
            f"||h||^2 = {report.seminorm_sq:.6g}\n"
            f"ratio   = {report.ratio:.6g}\n"
            f"N       = {sldd.normalization:.6g}\n"
            f"SLD eigenvalues = {sldd.eigenvalue_plus:.6g}, {sldd.eigenvalue_minus:.6g}\n"
        )
        calls = []

        def counted(*args):
            calls.append(args)
            return derivative(*args)

        for module in (fisherlab.cli, fisherlab.state_family):
            monkeypatch.setattr(module, "derivative", counted)
        assert main(["qfi", "--config", write_config(tmp_path, config)]) == 0
        assert capsys.readouterr().out == expected
        assert len(calls) == 1

    def test_stationary_family_exits_three(self, tmp_path, capsys):
        config = qubit_config(
            generator=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        )
        path = write_config(tmp_path, config)
        assert main(["qfi", "--config", path]) == 3
        assert "StationaryState" in capsys.readouterr().err

    def test_three_level_optimal_input(self, tmp_path, capsys):
        config = {
            "generator": [
                [[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ],
            "input_state": [[INV_SQRT2, 0.0], [0.0, 0.0], [INV_SQRT2, 0.0]],
            "lambda": 0.0,
        }
        path = write_config(tmp_path, config)
        assert main(["qfi", "--config", path]) == 0
        assert "F_Q     = 9" in capsys.readouterr().out

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["qfi", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestCmdAudit:
    def test_counterexample_verdict_line(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config(measurement="rotated:phi=0.7"))
        assert main(["audit", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED: S = 0.000000 < 0.693147" in out

    def test_sld_measurement_ok_line(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config(measurement="sld"))
        assert main(["audit", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "OK: S = 0.693147 >= 0.693147" in out

    def test_fail_on_violation_flag(self, tmp_path):
        path = write_config(tmp_path, qubit_config(measurement="rotated:phi=0.7"))
        assert main(["audit", "--config", path, "--fail-on-violation"]) == 4

    def test_bits_display(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config(measurement="sld"))
        assert main(["audit", "--config", path, "--bits"]) == 0
        out = capsys.readouterr().out
        assert "OK: S = 1.000000 >= 1.000000" in out
        assert "bits" in out

    def test_requires_exactly_one_mode(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config())
        assert main(["audit", "--config", path]) == 2
        config = qubit_config(
            measurement="sld", sweep={"param": "q", "grid": [0.1, 0.5]}
        )
        path = write_config(tmp_path, config, name="both.json")
        assert main(["audit", "--config", path]) == 2

    def test_sweep_writes_csv(self, tmp_path):
        grid = list(np.linspace(0.0, 1.0, 21))
        config = qubit_config(sweep={"param": "q", "grid": grid})
        path = write_config(tmp_path, config)
        out_path = tmp_path / "sweep.csv"
        assert main(["audit", "--config", path, "--out", str(out_path)]) == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 22
        for row, q in zip(rows[1:], grid):
            assert float(row[1]) == pytest.approx(binary_entropy(q), abs=1e-9)
            assert row[7] == "true"

    def test_single_audit_rejects_out(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config(measurement="rotated:phi=0.7"))
        out = tmp_path / "single.csv"
        assert main(["audit", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "--out" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_without_out_path_exits_two(self, tmp_path):
        config = qubit_config(sweep={"param": "q", "grid": [0.5]})
        path = write_config(tmp_path, config)
        assert main(["audit", "--config", path]) == 2

    def test_sld_povm_on_stationary_family_exits_three(self, tmp_path, capsys):
        config = qubit_config(
            generator=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            measurement="sld",
        )
        path = write_config(tmp_path, config)
        assert main(["audit", "--config", path]) == 3
        assert "StationaryState" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["q", "phi"])
    def test_sweep_on_a_constant_generator_exits_three(self, tmp_path, capsys, param):
        # The generator is checked before the sweep's measurement, so before the SLD.
        config = qubit_config(
            generator=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            sweep={"param": param, "grid": [0.5]},
        )
        path = write_config(tmp_path, config)
        assert main(["audit", "--config", path, "--out", str(tmp_path / "sweep.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateGeneratorError: generator spectrum is constant")

    def test_phi_sweep_with_violation_flag(self, tmp_path):
        config = qubit_config(sweep={"param": "phi", "grid": [0.7, 0.7 + np.pi / 2.0]})
        path = write_config(tmp_path, config)
        out_path = tmp_path / "phi.csv"
        rc = main(["audit", "--config", path, "--out", str(out_path), "--fail-on-violation"])
        assert rc == 4


class TestCmdSimulate:
    def test_runs_and_reports(self, tmp_path, capsys):
        config = qubit_config(
            measurement="sld",
            sim={"n": 400, "trials": 12, "seed": 5, "interval": [-0.87, 2.27]},
        )
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "empirical_std" in out and "ratio" in out

    def test_missing_sim_block_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config(measurement="sld"))
        assert main(["simulate", "--config", path]) == 2
        assert "sim" in capsys.readouterr().err

    def test_sweep_block_exits_two(self, tmp_path, capsys):
        config = qubit_config(
            measurement="sld",
            sweep={"param": "q", "grid": [0.1, 0.5]},
            sim={"n": 400, "trials": 12, "seed": 5},
        )
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep" in captured.err

    def test_zero_trials_exits_two(self, tmp_path, capsys):
        config = qubit_config(measurement="sld", sim={"n": 10, "trials": 0, "seed": 1})
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path]) == 2
        assert "trials" in capsys.readouterr().err

    def test_zero_fisher_information_exits_three(self, tmp_path, capsys):
        # Effects (I +- sigma_x/2)/2 at lambda = 0: <sigma_x> = cos(lambda) is stationary
        # there, so F = 0, though the likelihood still varies over the search grid.
        effects = [
            [[[0.5, 0.0], [sign, 0.0]], [[sign, 0.0], [0.5, 0.0]]] for sign in (0.25, -0.25)
        ]
        config = qubit_config(**{"lambda": 0.0, "measurement": effects})
        path = write_config(tmp_path, config, name="audit.json")
        assert main(["audit", "--config", path]) == 0
        assert "fisher F    = 0\n" in capsys.readouterr().out
        path = write_config(tmp_path, {**config, "sim": {"n": 1000, "trials": 5, "seed": 1}})
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "FlatLikelihoodError: classical Fisher information is zero" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_rounding_level_fisher_information_exits_three(self, tmp_path, capsys):
        # The same effects at lambda = pi: sin(pi) != 0 leaves F ~ 5e-33, zero to
        # rounding, which has no Cramer-Rao bound either.
        effects = [
            [[[0.5, 0.0], [sign, 0.0]], [[sign, 0.0], [0.5, 0.0]]] for sign in (0.25, -0.25)
        ]
        sim = {"n": 1000, "trials": 5, "seed": 1}
        config = qubit_config(**{"lambda": math.pi, "measurement": effects, "sim": sim})
        path = write_config(tmp_path, config)
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "FlatLikelihoodError: classical Fisher information is zero" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_flat_likelihood_exits_three(self, tmp_path, capsys):
        identity = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
        config = qubit_config(measurement=identity, sim={"n": 100, "trials": 4, "seed": 1})
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert "FlatLikelihoodError" in captured.err
        assert captured.out == ""

    def test_csv_identical_across_reruns(self, tmp_path, capsys):
        config = qubit_config(
            measurement="rotated:phi=2.2707963267948966",
            sim={"n": 300, "trials": 10, "seed": 123},
        )
        path = write_config(tmp_path, config)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_out_does_not_carry_over_to_the_next_call(self, tmp_path, capsys):
        # main parses with one parser for the whole process.
        config = qubit_config(measurement="sld", sim={"n": 300, "trials": 10, "seed": 123})
        path = write_config(tmp_path, config)
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert "wrote per-trial estimates" in capsys.readouterr().out
        out.unlink()
        assert main(["simulate", "--config", path]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def csv_command(tmp_path, command):
    """argv, without ``--out``, of a small sweep audit or simulation."""
    if command == "audit":
        config = qubit_config(sweep={"param": "q", "grid": [0.0, 0.3, 1.0]})
    else:
        config = qubit_config(measurement="sld", sim={"n": 100, "trials": 4, "seed": 1})
    return [command, "--config", write_config(tmp_path, config)]


@pytest.mark.parametrize("command", ["audit", "simulate"])
class TestCsvOutputs:
    def test_writes_in_place_without_truncating_first(self, tmp_path, monkeypatch, command):
        flags, path_opens = [], []
        os_open, builtin_open = os.open, open

        def recording_os_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return os_open(path, flag, *args, **kwargs)

        def recording_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int):
                path_opens.append((file, mode))
            return builtin_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_os_open)
        # Both CSVs go through the audit module's writer (the package's
        # ``audit`` attribute is the function, not the module).
        monkeypatch.setattr(sys.modules["fisherlab.audit"], "open", recording_open, raising=False)
        out = tmp_path / "out.csv"
        out.write_bytes(b"#" * 100_000)
        assert main(csv_command(tmp_path, command) + ["--out", str(out)]) == 0
        assert flags and not any(flag & os.O_TRUNC for flag in flags)
        assert path_opens == []
        assert len(out.read_bytes()) < 100_000

    def test_dev_null_is_accepted(self, tmp_path, capsys, command):
        assert main(csv_command(tmp_path, command) + ["--out", os.devnull]) == 0
        assert f"to {os.devnull}" in capsys.readouterr().out

    def test_directory_exits_two(self, tmp_path, capsys, command):
        assert main(csv_command(tmp_path, command) + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""


class TestCmdGolden:
    def test_exit_zero_with_six_pass_lines(self, capsys):
        assert main(["golden"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 6

    def test_pass_lines_name_the_quantities(self, capsys):
        main(["golden"])
        out = capsys.readouterr().out
        for name in ("qfi", "seminorm_sq", "fisher at phi=lambda", "entropy", "rhs", "violated"):
            assert f"PASS {name}" in out

    def test_deliberate_bug_base_two_logs_fails_on_rhs(self, capsys, monkeypatch):
        # a build computing its logarithms in base 2 would inflate the
        # inequality's right-hand side from ln 2 to 1
        import sys
        import types

        audit_module = sys.modules["fisherlab.audit"]
        monkeypatch.setattr(audit_module, "math", types.SimpleNamespace(log=math.log2))
        assert main(["golden"]) == 1
        out = capsys.readouterr().out
        assert "FAIL rhs" in out
        assert "PASS entropy" in out

    def test_deliberate_bug_wide_audit_margin_fails_on_violated(self, capsys, monkeypatch):
        # a build whose audit margin exceeds ln 2 can never flag the violation
        import sys

        monkeypatch.setattr(sys.modules["fisherlab.audit"], "TOL_AUDIT", 1.0)
        assert main(["golden"]) == 1
        out = capsys.readouterr().out
        assert "FAIL violated: expected true, got false" in out
        assert out.count("PASS ") == 5

    def test_deliberate_bug_dropped_zero_prob_terms_fails_on_fisher(self, capsys, monkeypatch):
        # a build that skips p ~ 0 outcomes reports F = 0 instead of F = 1
        # for the deterministic-outcome measurement
        import sys

        audit_module = sys.modules["fisherlab.audit"]

        def dropping_fisher(probs, dprobs, limits):
            regular = probs > 1e-10
            return np.where(regular, dprobs**2 / np.maximum(probs, 1e-10), 0.0).sum(-1)

        monkeypatch.setattr(audit_module, "_fisher_sum", dropping_fisher)
        assert main(["golden"]) == 1
        out = capsys.readouterr().out
        assert "FAIL fisher at phi=lambda" in out


class TestExitCodes:
    def test_usage_error_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_unnormalized_input_state_shows_its_norm_as_a_python_float(self, tmp_path, capsys):
        config = qubit_config(input_state=[[0.7076, 0.0], [0.7076, 0.0]])
        assert main(["audit", "--config", write_config(tmp_path, config)]) == 2
        norm = float(np.linalg.norm([0.7076 + 0j, 0.7076 + 0j]))
        assert capsys.readouterr().err == (
            f"config error: input state is not normalized: ||psi|| = {norm!r}\n"
        )

    def test_missing_file_exits_two(self, capsys):
        assert main(["qfi", "--config", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize(
        "measurement",
        [
            "rotated:phi=inf",
            "rotated:phi=nan",
            [
                [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            ],
        ],
        ids=["phi-inf", "phi-nan", "nan-effect"],
    )
    def test_non_finite_measurement_exits_two_without_verdict(self, tmp_path, capsys, measurement):
        path = write_config(tmp_path, qubit_config(measurement=measurement))
        assert main(["audit", "--config", path, "--fail-on-violation"]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "VIOLATED" not in captured.out
        assert "OK:" not in captured.out

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("audit", f'{STATE_FIELD}, "lambda": NaN, "measurement": "rotated:phi=0.7"'),
            ("audit", f'{STATE_FIELD}, "lambda": Infinity, "measurement": "rotated:phi=0.7"'),
            (
                "audit",
                '"input_state": [[NaN, 0.0], [0.7071067811865476, 0.0]], "lambda": 0.7, '
                '"measurement": "rotated:phi=0.7"',
            ),
            (
                "audit",
                f'{STATE_FIELD}, "lambda": 0.7, "sweep": {{"param": "q", "grid": [0.1, 1e999]}}',
            ),
            (
                "simulate",
                f'{STATE_FIELD}, "lambda": 0.7, "measurement": "sld", '
                '"sim": {"n": 100, "trials": 4, "seed": 1, "interval": [0, Infinity]}',
            ),
        ],
        ids=["lambda-nan", "lambda-inf", "state-nan", "grid-1e999", "interval-inf"],
    )
    def test_non_finite_config_exits_two_without_verdict(self, tmp_path, capsys, command, fields):
        # Python's json accepts NaN and Infinity literals and reads 1e999 as inf.
        path = tmp_path / "config.json"
        path.write_text(f'{{"generator": {json.dumps(qubit_config()["generator"])}, {fields}}}')
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"lambda": "@"}, "lambda"),
            (
                {"generator": [[[0.5, "@"], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]},
                "generator[0][0]",
            ),
            ({"sweep": {"param": "q", "grid": [0.1, "@"]}}, "sweep.grid[1]"),
            ({"sim": {**SIM, "interval": [0, "@"]}}, "sim.interval"),
            ({"sim": {**SIM, "n": "@"}}, "sim.n"),
        ],
        ids=["lambda", "generator", "sweep-grid", "sim-interval", "sim-n"],
    )
    def test_non_finite_literals_name_their_field(self, tmp_path, capsys, literal, fields, field):
        # Python's json reads the literals as floats; the field checks reject them.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(qubit_config(**fields)).replace('"@"', literal))
        assert main(["qfi", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: ConfigError: field '{field}': ")
        assert repr(float(literal)) in captured.err and captured.out == ""
        if field == "lambda":
            assert captured.err.endswith(f"expected a finite number, got {float(literal)!r}\n")

    @pytest.mark.parametrize(
        "fields",
        [
            {"lambda": 10**4000},
            {"lambda": list(range(3000))},
            {"input_state": [list(range(3000)), [0.0, 0.0]]},
            {"sweep": {"param": "q" * 5000, "grid": [0.5]}},
            {"measurement": "rotated:phi=" + "7" * 5000 + "x"},
            {"measurement": "q" * 5000},
            {"sim": {**SIM, **{f"k{i}": 0 for i in range(3000)}}},
            {"k" * 5000: 0},
        ],
        ids=[
            "integer-of-4001-digits",
            "number-as-list",
            "pair-as-list",
            "sweep-param",
            "spec-value",
            "spec-name",
            "unknown-keys",
            "unknown-long-key",
        ],
    )
    def test_a_huge_value_is_echoed_bounded(self, tmp_path, capsys, fields):
        assert main(["qfi", "--config", write_config(tmp_path, qubit_config(**fields))]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ConfigError: ") and captured.out == ""
        assert len(captured.err) <= 200

    # A JSON text cannot hold an integer past 4,300 digits, but a Python caller can.
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"lambda": [10**5000]}, "'lambda': expected a number, got [an integer of 5001 digits]"),
            (
                {"input_state": [[10**5000, 0.0], [0.0, 0.0]]},
                "'input_state[0]': [an integer of 5001 digits, 0.0] overflows a double",
            ),
            (
                {"measurement": "sld", "sim": {**SIM, "n": [10**5000]}},
                "'sim.n': n must be an integer, got [an integer of 5001 digits]",
            ),
        ],
        ids=["lambda", "pair", "sim-n"],
    )
    def test_a_huge_integer_in_a_list_is_named_by_its_digits(self, fields, message):
        with pytest.raises(ConfigError) as caught:
            parse_config(qubit_config(**fields))
        assert str(caught.value) == f"field {message}"

    @pytest.mark.parametrize(
        "sim, field",
        [
            ({"n": 10**20, "trials": 4, "seed": 1}, "sim.n"),
            ({"n": 2**63, "trials": 4, "seed": 1}, "sim.n"),
            ({"n": 100, "trials": 4, "seed": -1}, "sim.seed"),
            ({"n": 100, "trials": 4, "seed": 1, "interval": [-1e308, 1e308]}, "sim.interval"),
        ],
        ids=["n-overflows-int64", "n-one-past-int64", "seed-negative", "interval-length-overflows"],
    )
    def test_out_of_range_sim_field_exits_two(self, tmp_path, capsys, sim, field):
        path = write_config(tmp_path, qubit_config(measurement="sld", sim=sim))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and f"'{field}'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("q_family:q=0.1,q=0.9", "q"),
            ("rotated:phi=0.3,phi=2", "phi"),
            ("rotated:phi=0.3,phi=0.3", "phi"),
            ("q_family:x=1,q=0.5,x=1", "x"),
        ],
    )
    def test_repeated_spec_key_exits_two(self, tmp_path, capsys, spec, key):
        path = write_config(tmp_path, qubit_config(measurement=spec))
        assert main(["audit", "--config", path, "--fail-on-violation"]) == 2
        captured = capsys.readouterr()
        assert f"config error: ConfigError: measurement spec {spec!r}: key {key!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, fields, named",
        [
            ("simulate", {"sim": {**SIM, "n": 1.5}}, "field 'sim.n': n must be an integer, got 1.5"),
            ("audit", {"sweep": [0.1, 0.5]}, "field 'sweep': expected an object"),
            ("audit", {"sweep": {"param": "x", "grid": [0.5]}}, "field 'sweep.param'"),
            ("audit", {"sweep": {**SWEEP, "step": 1}}, "field 'sweep': unknown keys ['step']"),
            ("simulate", {"sim": 5}, "field 'sim': expected an object"),
            (
                "simulate",
                {"sim": {**SIM, "interval": [0.0]}},
                "field 'sim.interval': search interval must have two ends, got 1",
            ),
            (
                "simulate",
                {"sim": {**SIM, "interval": [1.0, 0.0]}},
                "'sim.interval': search interval must have a positive finite length, got (1.0, 0.0)",
            ),
            ("simulate", {"sim": {**SIM, "shots": 9}}, "field 'sim': unknown keys ['shots']"),
            ("qfi", None, "config root: expected an object"),
            ("qfi", {"lam": 0.7}, "config root: unknown keys ['lam']"),
            ("audit", {"measurement": 5}, "'measurement': expected a non-empty list of matrices"),
            (
                "audit",
                {"measurement": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0]] * 3] * 3]},
                "field 'measurement': matrices have unequal sizes",
            ),
            ("audit", {"measurement": "rotated:phi"}, "'rotated:phi': expected name:key=value"),
            ("audit", {"measurement": "rotated:phi=east"}, "'east' is not a number"),
            ("audit", {"measurement": "sld:x=1"}, "spec 'sld' takes no arguments"),
            ("audit", {"measurement": "q_family:p=0.3"}, "spec 'q_family' needs exactly q="),
            ("audit", {"measurement": "rotated:q=0.3"}, "spec 'rotated' needs exactly phi="),
        ],
        ids=[
            "sim-n-not-integer",
            "sweep-not-object",
            "sweep-param-unknown",
            "sweep-key-unknown",
            "sim-not-object",
            "interval-not-pair",
            "interval-reversed",
            "sim-key-unknown",
            "root-not-object",
            "top-level-key-unknown",
            "measurement-not-list",
            "effects-of-unequal-size",
            "spec-without-value",
            "spec-value-not-number",
            "sld-with-argument",
            "q-family-without-q",
            "rotated-without-phi",
        ],
    )
    def test_config_error_names_its_field(self, tmp_path, capsys, command, fields, named):
        # Each case reaches its own config-error raise; None stands for a JSON array root.
        if fields is None:
            config = [qubit_config()]
        else:
            config = qubit_config(**fields)
            if command == "simulate":
                config["measurement"] = "sld"
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ConfigError: ") and named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["qfi", "audit", "simulate"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                "rotated:phi=inf",
                "measurement spec 'rotated:phi=inf': expected a finite number, got inf",
            ),
            (
                "q_family:q=0.1,q=0.9",
                "measurement spec 'q_family:q=0.1,q=0.9': key 'q' is given twice",
            ),
            ("sld:x=1", "measurement spec 'sld' takes no arguments"),
            ("bogus", "unknown measurement constructor 'bogus'"),
            ("rotated:phi=east", "measurement spec 'rotated:phi=east': 'east' is not a number"),
            ("rotated:phi=0_7", "measurement spec 'rotated:phi=0_7': '0_7' is not a number"),
            (
                "rotated:phi= 0.7 ",
                "measurement spec 'rotated:phi= 0.7 ': ' 0.7 ' is not a number",
            ),
            (
                "rotated:phi=0.7\n",
                "measurement spec 'rotated:phi=0.7\\n': '0.7\\n' is not a number",
            ),
            (
                "rotated:phi=\u0660.\u0667",
                "measurement spec 'rotated:phi=\u0660.\u0667': '\u0660.\u0667' is not a number",
            ),
        ],
        ids=[
            "phi-inf",
            "q-twice",
            "sld-with-argument",
            "unknown-name",
            "phi-not-a-number",
            "phi-digit-separator",
            "phi-in-spaces",
            "phi-newline",
            "phi-arabic-indic-digits",
        ],
    )
    def test_every_command_reads_the_whole_config(self, tmp_path, capsys, command, spec, message):
        # qfi builds no measurement, but the spec is read with the rest of the config.
        path = write_config(tmp_path, qubit_config(measurement=spec, sim=SIM))
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: ConfigError: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text", [".7", "+0.7", "7e-1", "0.70", "7E-1"])
    def test_spec_values_in_plain_ascii_read_as_numbers(self, text):
        config = parse_config(qubit_config(measurement=f"rotated:phi={text}"))
        assert config.measurement == ("rotated", 0.7)

    @pytest.mark.parametrize("key", ["n", "trials", "seed"])
    @pytest.mark.parametrize(
        "value",
        [0, 1, 2, -1, 2**63 - 1, 2**63, 2**64 + 3, 1.5, True, False, None, "3"],
        ids=str,
    )
    def test_sim_setting_has_the_library_message(self, tmp_path, capsys, key, value):
        rule = fisherlab.estimation._setting
        self.check_library_message(tmp_path, capsys, key, value, rule, key, value)

    @pytest.mark.parametrize(
        "interval",
        [[1.0, 0.0], [0.5, 0.5], [-1e308, 1e308], [0.0], [0.0, 1.0, 2.0], [0.0, 1.5]]
        + [[0, "x"], [0, True], 5, "ab", {"lo": 0, "hi": 1}],
        ids=["reversed", "equal", "length-overflows", "one-end", "three-ends", "valid"]
        + ["string-end", "bool-end", "not-a-list", "string", "object"],
    )
    def test_sim_interval_has_the_library_message(self, tmp_path, capsys, interval):
        rule = fisherlab.estimation._finite_interval
        self.check_library_message(tmp_path, capsys, "interval", interval, rule, interval)

    @staticmethod
    def check_library_message(tmp_path, capsys, key, value, rule, *args):
        """``qfi`` accepts ``sim.<key>`` = ``value`` where ``rule(*args)`` does, else takes its text."""
        path = write_config(tmp_path, qubit_config(sim={**SIM, key: value}))
        code = main(["qfi", "--config", path])
        captured = capsys.readouterr()
        try:
            rule(*args)
        except (TypeError, ValueError) as exc:
            assert code == 2 and captured.out == ""
            assert captured.err == f"config error: ConfigError: field 'sim.{key}': {exc}\n"
        else:
            assert code == 0 and captured.err == ""

    @pytest.mark.parametrize("command", ["qfi", "audit", "simulate"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"measurement": "q_family:q=1.5"}, "InvalidQError: q must lie in [0, 1], got 1.5"),
            (
                {"measurement": real_matrices([[1, 0, 0], [0, 1, 0]])},
                "NonHermitianError: operator must be a square matrix, got shape (2, 3)",
            ),
            (
                {"measurement": real_matrices([[1, 0.5], [0, 0]], [[0, -0.5], [0, 1]])},
                "NonHermitianError: matrix is not Hermitian: max|M - M^H| = 5.000e-01 "
                "exceeds 1e-12 * max|M|",
            ),
            (
                {"measurement": real_matrices([[1.1, 0], [0, 0]], [[-0.1, 0], [0, 1]])},
                "effect has negative eigenvalue -1.000e-01",
            ),
            (
                {"measurement": real_matrices([[1, 0], [0, 0]], [[0, 0], [0, 0.5]])},
                "effects sum to identity only within 5.000e-01",
            ),
            (
                {"measurement": real_matrices(np.diag([1, 0, 0]), np.diag([0, 1, 1]))},
                "DimMismatchError: POVM dim 3 does not match state dim 2",
            ),
            (
                {
                    "generator": real_matrices(np.diag([1.0, 0.0, -1.0]))[0],
                    "input_state": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]],
                    "measurement": "rotated:phi=0.3",
                },
                "DimMismatchError: POVM dim 2 does not match state dim 3",
            ),
        ],
        ids=["q-outside", "2x3", "non-hermitian", "negative", "not-identity", "3x3", "qutrit"],
    )
    def test_every_command_builds_the_measurement(self, tmp_path, capsys, command, fields, message):
        # qfi prints no measurement figure, but it rejects what audit and simulate reject.
        path = write_config(tmp_path, qubit_config(sim=SIM, **fields))
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("spec", ["sld", "q_family:q=0.3", "rotated:phi=0.7"])
    def test_a_valid_measurement_leaves_the_qfi_table_unchanged(self, tmp_path, capsys, spec):
        tables = []
        for config in (qubit_config(), qubit_config(measurement=spec)):
            assert main(["qfi", "--config", write_config(tmp_path, config)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] and tables[0].startswith("F_Q     = 1\n")

    def test_build_povm_requires_a_measurement(self):
        # The commands check for a measurement before they build one.
        config = parse_config(qubit_config())
        with pytest.raises(ConfigError, match="missing required field 'measurement'"):
            build_povm(config, build_family(config))

    def test_deeply_nested_config_exits_two_without_output(self, tmp_path, capsys):
        # The JSON decoder raises RecursionError on nesting this deep.
        path = tmp_path / "config.json"
        path.write_text('{"generator": ' + "[" * 10**5 + "]" * 10**5 + "}")
        assert main(["qfi", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: ConfigError: config is nested too deeply to decode\n"
        )
        assert captured.out == ""

    def test_overlong_integer_config_exits_two_without_output(self, tmp_path, capsys):
        # Python converts integer literals of at most 4,300 digits by default.
        path = tmp_path / "config.json"
        generator = [[["DIGITS", 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
        text = json.dumps(qubit_config(generator=generator))
        path.write_text(text.replace('"DIGITS"', "1" * 5001))
        assert main(["qfi", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: ConfigError: config has a number that cannot be decoded: "
        )
        assert "4300 digits" in captured.err
        assert captured.out == ""

    def test_boolean_state_entries_exit_two_without_output(self, tmp_path, capsys):
        # JSON true/false are not numbers, although Python's bool is an int.
        path = write_config(tmp_path, qubit_config(input_state=[[True, 0], [0, False]]))
        assert main(["qfi", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_failed_allocation_exits_two_without_output(self, tmp_path, capsys):
        # 2**58 trials ask for a 4 EiB count array, which no host can grant.
        path = write_config(tmp_path, qubit_config(measurement="sld", sim={**SIM, "trials": 2**58}))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""
        assert not out.exists()


class TestEntryPoint:
    """``python -m fisherlab.cli`` exits with the code of :func:`fisherlab.cli.main`."""

    def run(self, *args, **env) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(Path(fisherlab.cli.__file__).parents[1]), **env}
        command = [sys.executable, "-m", "fisherlab.cli", *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("golden", None, []),
            ("qfi", qubit_config(), []),
            ("audit", qubit_config(measurement="sld"), []),
            ("audit", qubit_config(measurement="sld"), ["--bits"]),
            ("audit", qubit_config(measurement="rotated:phi=0.7"), []),
            ("audit", qubit_config(sweep={"param": "q", "grid": [0.05, 0.5]}), ["--out", "OUT"]),
            ("simulate", qubit_config(measurement="sld", sim=SIM), ["--out", "OUT"]),
        ],
        ids=["golden", "qfi", "ok-audit", "ok-audit-bits", "violated-audit", "q-sweep", "simulate"],
    )
    def test_ascii_stdout_gives_the_utf8_output(self, tmp_path, capsys, command, config, flags):
        # An ascii or cp1252 stdout cannot encode a line with, say, "≥" in it;
        # the failed print was a ValueError, so it exited 2 as a config error.
        argv = [command] + (["--config", write_config(tmp_path, config)] if config else [])
        argv += [str(tmp_path / "out.csv") if flag == "OUT" else flag for flag in flags]
        assert main(argv) == 0
        utf8 = capsys.readouterr().out
        run = self.run(*argv, PYTHONIOENCODING="ascii")
        assert (run.returncode, run.stdout) == (0, utf8)
        assert "config error" not in run.stderr

    @pytest.mark.parametrize(
        "command, config",
        [
            ("audit", qubit_config(sweep={"param": "q", "grid": [0.05, 0.5]})),
            ("simulate", qubit_config(measurement="sld", sim=SIM)),
        ],
        ids=["q-sweep", "simulate"],
    )
    def test_unencodable_out_path_prints_escaped(self, tmp_path, capsys, command, config):
        # The last stdout line names the --out path, which an ascii stdout cannot encode.
        out = tmp_path / "résultat€.csv"
        argv = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
        assert main(argv) == 0
        utf8, written = capsys.readouterr().out, out.read_bytes()
        out.unlink()
        run = self.run(*argv, PYTHONIOENCODING="ascii")
        assert run.returncode == 0 and "config error" not in run.stderr
        assert run.stdout == utf8.encode("ascii", "backslashreplace").decode("ascii")
        assert out.read_bytes() == written

    def test_config_is_read_as_utf8_under_the_c_locale(self, tmp_path):
        # JSON text is UTF-8 (RFC 8259). With UTF-8 mode off, the C locale's
        # codec is ASCII, which could not decode the key to report it.
        path = tmp_path / "config.json"
        text = json.dumps({**qubit_config(), "\u00e9": 1}, ensure_ascii=False)
        path.write_text(text, encoding="utf-8")
        env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        run = self.run("qfi", "--config", str(path), **env)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "config error: ConfigError: config root: unknown keys ['\\xe9']\n"

    def test_golden_exits_zero(self):
        run = self.run("golden")
        assert run.returncode == 0 and "FAIL" not in run.stdout
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize(
        "config",
        [
            qubit_config(**{"lambda": "0.7"}),
            qubit_config(measurement="sld", sim={**SIM, "trials": 2**58}),
        ],
        ids=["malformed", "failed-allocation"],
    )
    def test_config_errors_exit_two(self, tmp_path, config):
        run = self.run("simulate", "--config", write_config(tmp_path, config))
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("config error:")
        assert "Traceback" not in run.stderr


# argv, exit code, first words of the usage, and the start of the error line (None for help).
PARSE_CASES = {
    "empty": ([], 2, "usage: fisherlab [-h]", "fisherlab: error: the following arguments"),
    "help": (["-h"], 0, "usage: fisherlab [-h]", None),
    "audit-help": (["audit", "-h"], 0, "usage: fisherlab audit [-h]", None),
    "audit-no-config": (
        ["audit"],
        2,
        "usage: fisherlab audit [-h]",
        "fisherlab audit: error: the following arguments are required: --config",
    ),
    "audit-bogus": (
        ["audit", "--config", "CONFIG", "--bogus"],
        2,
        "usage: fisherlab [-h]",
        "fisherlab: error: unrecognized arguments: --bogus",
    ),
    "bogus": (["bogus"], 2, "usage: fisherlab [-h]", "fisherlab: error: argument command: invalid"),
    "golden-x": (["golden", "x"], 2, "usage: fisherlab [-h]", "fisherlab: error: unrecognized"),
}


class TestParseArgv:
    """``main`` parses its argv with the one top-level parser."""

    @pytest.mark.parametrize("case", PARSE_CASES)
    def test_help_and_parse_errors(self, tmp_path, capsys, case):
        argv, code, usage, error = PARSE_CASES[case]
        config = write_config(tmp_path, qubit_config())
        assert main([config if arg == "CONFIG" else arg for arg in argv]) == code
        seen = capsys.readouterr()
        if error is None:
            assert seen.out.startswith(usage) and seen.err == ""
        else:
            assert seen.out == "" and seen.err.startswith(usage)
            assert seen.err.splitlines()[-1].startswith(error)

    @pytest.mark.parametrize(
        "argv, command, values",
        [
            (["qfi", "--config", "c.json"], "cmd_qfi", {"config": "c.json"}),
            (
                ["audit", "--config", "c.json", "--out", "o.csv", "--bits"],
                "cmd_audit",
                {"config": "c.json", "out": "o.csv", "fail_on_violation": False, "bits": True},
            ),
            (
                ["audit", "--fail-on-violation", "--config=c.json"],
                "cmd_audit",
                {"config": "c.json", "out": None, "fail_on_violation": True, "bits": False},
            ),
            (
                ["simulate", "--config", "c.json", "--out", "o.csv"],
                "cmd_simulate",
                {"config": "c.json", "out": "o.csv"},
            ),
            (["golden"], "cmd_golden", {}),
        ],
        ids=["qfi", "audit", "audit-fail-on-violation", "simulate", "golden"],
    )
    def test_a_valid_call_reaches_its_command_with_the_parsed_values(
        self, monkeypatch, argv, command, values
    ):
        seen = []
        for name in ("cmd_qfi", "cmd_audit", "cmd_simulate", "cmd_golden"):
            monkeypatch.setattr(
                fisherlab.cli, name, lambda args, name=name: seen.append((name, vars(args))) or 0
            )
        parser = fisherlab.cli._parser.__wrapped__()  # its defaults are the recording commands
        monkeypatch.setattr(fisherlab.cli, "_parser", lambda: parser)
        assert main(argv) == 0
        ((name, parsed),) = seen
        del parsed["func"]
        assert (name, parsed) == (command, {"command": argv[0], **values})


def encoded(array) -> list:
    """Complex entries as config ``[re, im]`` pairs."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


class TestLinearAlgebraKernels:
    """Which LAPACK and BLAS kernels a command reaches; a fresh process faults in each one's pages.

    The paper qubit's generator is diagonal and its measurements have (2, 1, 2)
    rows, so its commands sort the generator and form Grams elementwise: no
    ``eigh`` and no complex matrix product in ``_check_complete``. A random
    d = 32 family with its SLD measurement takes both.
    """

    def test_paper_qubit_simulate_calls_no_eigh_and_no_gram_matmul(self, tmp_path, monkeypatch):
        sim = {"n": 10**4, "trials": 100, "seed": 2101}
        path = write_config(tmp_path, qubit_config(measurement="sld", sim=sim))
        eigh, gram = count_eigh(monkeypatch), watch_gram(monkeypatch)
        assert main(["simulate", "--config", path]) == 0
        assert (eigh, gram) == ([], ["conjugate", "multiply"])

    def test_golden_calls_no_eigh_and_no_gram_matmul(self, monkeypatch):
        eigh, gram = count_eigh(monkeypatch), watch_gram(monkeypatch)
        assert main(["golden"]) == 0
        assert (eigh, gram) == ([], ["conjugate", "multiply"])

    def test_d32_sld_audit_takes_eigh_and_the_gram_matmul(self, tmp_path, monkeypatch, rng):
        config = qubit_config(
            generator=encoded(random_hermitian(32, rng)),
            input_state=encoded(random_state(32, rng)),
            measurement="sld",
        )
        path = write_config(tmp_path, config)
        eigh, gram = count_eigh(monkeypatch), watch_gram(monkeypatch)
        assert main(["audit", "--config", path]) == 0
        assert (eigh, gram) == ([(32, 32)], ["conjugate", "matmul"])
