import csv
import json
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import povm_effects
import fisherlab.audit
import fisherlab.cli
import fisherlab.estimation
import fisherlab.metrology
import fisherlab.state_family
from fisherlab import derivative, qfi_report, sld
from fisherlab.cli import (
    build_family,
    build_povm,
    main,
    parse_config,
    parse_config_text,
)
from fisherlab.errors import ConfigError
from test_measurement import binary_entropy

LN2 = math.log(2.0)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


STATE_FIELD = '"input_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]'


def qubit_config(**overrides) -> dict:
    config = {
        "generator": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        "input_state": [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]],
        "lambda": 0.7,
    }
    config.update(overrides)
    return config


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
        config = parse_config_text(json.dumps(qubit_config(measurement="bell")))
        from fisherlab.cli import build_family

        with pytest.raises(ConfigError, match="bell"):
            build_povm(config, build_family(config))


def sweep_config(grid) -> dict:
    return qubit_config(sweep={"param": "q", "grid": grid})


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
        # The walk takes tuple pairs but only list rows; the array read takes neither.
        config = qubit_config(input_state=[(INV_SQRT2, 0.0), (INV_SQRT2, 0.0)])
        state = parse_config(config).input_state
        assert state.tobytes() == np.array([INV_SQRT2, INV_SQRT2], dtype=complex).tobytes()
        # Float subclasses are numbers to the walk too.
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
        report = qfi_report(family, 0.7)
        sldd = sld(derivative(family, 0.7))
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

        for module in (fisherlab.cli, fisherlab.metrology, fisherlab.state_family):
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
        assert "OK: S = 0.693147 ≥ 0.693147" in out

    def test_fail_on_violation_flag(self, tmp_path):
        path = write_config(tmp_path, qubit_config(measurement="rotated:phi=0.7"))
        assert main(["audit", "--config", path, "--fail-on-violation"]) == 4

    def test_bits_display(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config(measurement="sld"))
        assert main(["audit", "--config", path, "--bits"]) == 0
        out = capsys.readouterr().out
        assert "OK: S = 1.000000 ≥ 1.000000" in out
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
        for module in (fisherlab.audit, fisherlab.estimation):
            monkeypatch.setattr(module, "open", recording_open, raising=False)
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

    @pytest.mark.parametrize(
        "sim, field",
        [
            ({"n": 10**20, "trials": 4, "seed": 1}, "sim.n"),
            ({"n": 100, "trials": 4, "seed": -1}, "sim.seed"),
            ({"n": 100, "trials": 4, "seed": 1, "interval": [-1e308, 1e308]}, "sim.interval"),
        ],
        ids=["n-overflows-int64", "seed-negative", "interval-length-overflows"],
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

    def test_boolean_state_entries_exit_two_without_output(self, tmp_path, capsys):
        # JSON true/false are not numbers, although Python's bool is an int.
        path = write_config(tmp_path, qubit_config(input_state=[[True, 0], [0, False]]))
        assert main(["qfi", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
