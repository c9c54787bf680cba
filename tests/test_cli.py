import csv
import json
import math

import numpy as np
import pytest

from fisherlab.cli import (
    build_povm,
    config_to_dict,
    main,
    parse_config_text,
    serialize_config,
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
    def test_round_trip(self):
        config = qubit_config(
            measurement="q_family:q=0.3",
            sim={"n": 100, "trials": 4, "seed": 7, "interval": [0.0, 1.4]},
        )
        first = parse_config_text(json.dumps(config))
        second = parse_config_text(serialize_config(first))
        assert config_to_dict(first) == config_to_dict(second)

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
        assert len(povm.effects) == 2
        assert povm.labels == ("E0", "E1")

    def test_unknown_constructor_rejected(self):
        config = parse_config_text(json.dumps(qubit_config(measurement="bell")))
        from fisherlab.cli import build_family

        with pytest.raises(ConfigError, match="bell"):
            build_povm(config, build_family(config))


class TestCmdQfi:
    def test_paper_family(self, tmp_path, capsys):
        path = write_config(tmp_path, qubit_config())
        assert main(["qfi", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "F_Q     = 1" in out
        assert "||h||^2 = 1" in out
        assert "N       = 2" in out

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

        def dropping_fisher(povm, sd):
            total = 0.0
            for eff in povm.effects:
                prob = np.vdot(sd.state, eff @ sd.state).real
                if prob > 1e-10:
                    dprob = 2.0 * np.vdot(sd.dstate, eff @ sd.state).real
                    total += dprob * dprob / prob
            return total

        monkeypatch.setattr(audit_module, "classical_fisher", dropping_fisher)
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
