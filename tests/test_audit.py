import csv
import math

import numpy as np
import pytest

from conftest import paper_qubit_family, random_family
from fisherlab import (
    StateFamily,
    audit,
    derivative,
    q_family_measurement,
    qfi,
    reproduce_counterexample,
    rotated_qubit_measurement,
    sld,
    sld_measurement,
    sweep_phi,
    sweep_q,
)
from fisherlab.audit import SWEEP_CSV_COLUMNS, TOL_AUDIT, SweepResult, write_sweep_csv
from fisherlab.errors import DegenerateGeneratorError, DimMismatchError, InvalidQError
from fisherlab.measurement import _check_complete
from test_measurement import binary_entropy

LN2 = math.log(2.0)

# The q grid of the benchmark's sweep workload: a uniform grid with both
# endpoints, plus log-spaced points down to 1e-12.
BENCH_Q_GRID = np.concatenate([np.linspace(0.0, 1.0, 1801), np.logspace(-12.0, -1.0, 200)])


def per_point_sweep_q(family, lam, q_grid):
    """The per-point loop that the batched ``sweep_q`` replaced, as an oracle."""
    sd = derivative(family, lam)
    sldd = sld(sd)
    return [audit(family, lam, q_family_measurement(sldd, sd.state, q)) for q in q_grid]


def per_point_sweep_phi(family, lam, phi_grid):
    """The per-point loop that the batched ``sweep_phi`` replaced, as an oracle."""
    return [audit(family, lam, rotated_qubit_measurement(phi)) for phi in phi_grid]


def csv_writer_sweep_csv(path, param_values, reports):
    """The per-row ``csv.writer`` loop that the columnar ``write_sweep_csv`` replaced."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for value, report in zip(param_values, reports):
            writer.writerow(
                [
                    f"{value:.17g}",
                    f"{report.entropy:.17g}",
                    f"{report.fisher:.17g}",
                    f"{report.qfi:.17g}",
                    f"{report.seminorm_sq:.17g}",
                    f"{report.rhs:.17g}",
                    "true" if report.violated else "false",
                    "true" if report.measurement_optimal else "false",
                ]
            )


def assert_reports_agree(batched, oracle):
    """Entropy and Fisher to 1e-12; the other scalars and both verdicts exactly."""
    assert len(batched) == len(oracle)
    for new, old in zip(batched, oracle):
        assert abs(new.entropy - old.entropy) <= 1e-12
        assert abs(new.fisher - old.fisher) <= 1e-12
        assert (new.qfi, new.seminorm_sq, new.rhs) == (old.qfi, old.seminorm_sq, old.rhs)
        assert new.violated == old.violated
        assert new.measurement_optimal == old.measurement_optimal


class TestAudit:
    def test_rotated_at_lambda_violates(self):
        family = paper_qubit_family()
        lam = 0.7
        report = audit(family, lam, rotated_qubit_measurement(lam))
        assert report.entropy == pytest.approx(0.0, abs=1e-9)
        assert report.fisher == pytest.approx(1.0, abs=1e-9)
        assert report.qfi == pytest.approx(1.0, abs=1e-9)
        assert report.seminorm_sq == pytest.approx(1.0, abs=1e-9)
        assert report.rhs == pytest.approx(LN2, abs=1e-9)
        assert report.violated is True
        assert report.measurement_optimal is True

    def test_sld_measurement_never_violates(self):
        family = paper_qubit_family()
        lam = 0.7
        povm = sld_measurement(sld(derivative(family, lam)))
        report = audit(family, lam, povm)
        assert report.entropy == pytest.approx(LN2, abs=1e-9)
        assert report.violated is False

    def test_balanced_q_measurement_sits_on_the_boundary(self, rng):
        from fisherlab import q_family_measurement

        family = paper_qubit_family()
        lam = 0.7
        sd = derivative(family, lam)
        povm = q_family_measurement(sld(sd), sd.state, 0.5)
        report = audit(family, lam, povm)
        assert report.entropy == pytest.approx(LN2, abs=1e-9)
        assert report.violated is False

    def test_degenerate_generator_raises(self):
        family = StateFamily(generator=np.eye(2), input_state=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateGeneratorError):
            audit(family, 0.0, rotated_qubit_measurement(0.0))

    def test_rhs_never_exceeds_log_two(self, rng):
        for dim in (2, 3, 6):
            family = random_family(dim, rng)
            sd = derivative(family, 0.3)
            report = audit(family, 0.3, sld_measurement(sld(sd)))
            assert report.rhs <= LN2 + 1e-12

    def test_verdicts_recomputable_from_scalars(self, rng):
        family = paper_qubit_family()
        for phi in (0.7, 1.4, 0.7 + np.pi / 2.0):
            report = audit(family, 0.7, rotated_qubit_measurement(phi))
            assert report.violated == (report.entropy < report.rhs - TOL_AUDIT)
            assert report.measurement_optimal == (abs(report.fisher - report.qfi) <= 1e-8)


class TestSweepQ:
    def test_endpoint_entropies(self):
        family = paper_qubit_family()
        reports = sweep_q(family, 0.7, [0.0, 0.5, 1.0])
        assert [r.entropy for r in reports] == pytest.approx([0.0, LN2, 0.0], abs=1e-9)
        assert all(r.measurement_optimal for r in reports)
        assert reports[0].violated and reports[2].violated
        assert not reports[1].violated

    def test_single_point_grid(self):
        reports = sweep_q(paper_qubit_family(), 0.7, [0.5])
        assert len(reports) == 1
        assert reports[0].violated is False

    def test_entropy_curve_matches_binary_entropy(self, rng):
        family = random_family(3, rng)
        grid = np.linspace(0.0, 1.0, 21)
        reports = sweep_q(family, 0.4, grid)
        target = qfi(derivative(family, 0.4))
        for q, report in zip(grid, reports):
            assert report.entropy == pytest.approx(binary_entropy(q), abs=1e-9)
            assert report.fisher == pytest.approx(target, abs=1e-9)

    def test_discrete_concavity_with_peak_at_half(self):
        grid = np.linspace(0.0, 1.0, 21)
        entropies = np.array([r.entropy for r in sweep_q(paper_qubit_family(), 0.7, grid)])
        assert np.argmax(entropies) == 10
        second_diff = entropies[2:] - 2.0 * entropies[1:-1] + entropies[:-2]
        assert np.all(second_diff <= 1e-12)

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(InvalidQError):
            sweep_q(paper_qubit_family(), 0.7, [0.2, 1.5])

    def test_no_false_violations_for_sld_measurement(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            family = random_family(dim, rng)
            sd = derivative(family, 0.0)
            report = audit(family, 0.0, sld_measurement(sld(sd)))
            assert report.violated is False

    def test_violations_exist_for_skewed_q(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            family = random_family(dim, rng)
            report = sweep_q(family, 0.0, [0.01])[0]
            expect = LN2 * report.qfi / report.seminorm_sq > report.entropy + TOL_AUDIT
            assert report.violated == expect

    def test_grid_sweep_matches_per_point_calls_in_order(self):
        family = paper_qubit_family()
        grid = np.linspace(0.0, 1.0, 9)
        per_point = [sweep_q(family, 0.7, [q])[0] for q in grid]
        assert list(sweep_q(family, 0.7, grid)) == per_point


class TestSweepOracle:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_q_sweep_matches_per_point_audits(self, dim, rng):
        family = random_family(dim, rng)
        lam = float(rng.uniform(0.0, 2.0 * np.pi))
        batched = sweep_q(family, lam, BENCH_Q_GRID)
        assert_reports_agree(batched, per_point_sweep_q(family, lam, BENCH_Q_GRID))
        assert any(r.violated for r in batched) and not all(r.violated for r in batched)

    def test_phi_sweep_matches_per_point_audits(self, rng):
        offsets = np.concatenate(
            [np.linspace(-np.pi, np.pi, 201), [-1e-10, 0.0, 1e-10], np.logspace(-10, -2, 17)]
        )
        for family in (paper_qubit_family(), random_family(2, rng)):
            lam = float(rng.uniform(-np.pi, np.pi))
            grid = lam + np.concatenate([offsets, -offsets])
            batched = sweep_phi(family, lam, grid)
            assert_reports_agree(batched, per_point_sweep_phi(family, lam, grid))

    @pytest.mark.parametrize("where", [0, 1000, -1])
    def test_nan_anywhere_in_q_grid_raises(self, where):
        grid = np.linspace(0.0, 1.0, 2001)
        grid[where] = np.nan
        with pytest.raises(InvalidQError):
            sweep_q(paper_qubit_family(), 0.7, grid)


class TestSweepPerPointChecks:
    def test_nan_angle_fails_its_completeness_check(self):
        grid = np.linspace(-np.pi, np.pi, 2001)
        grid[1500] = np.nan
        with pytest.raises(ValueError, match="identity"):
            sweep_phi(paper_qubit_family(), 0.7, grid)

    def test_degenerate_generator_raises(self):
        family = StateFamily(generator=np.eye(2), input_state=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateGeneratorError):
            sweep_phi(family, 0.0, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("excess, complete", [(0.9e-9, True), (1.1e-9, False)])
    def test_completeness_band_edge_at_one_point_deep_in_the_grid(self, excess, complete):
        # d = 8, bras <0| and <1| at every point, plus the shared projector
        # onto the other six basis states; one point's first effect is
        # scaled by 1 + excess, which is its whole completeness deviation.
        dim, points = 8, 2001
        rows = np.zeros((points, 2, 1, dim), dtype=complex)
        rows[:, 0, 0, 0] = 1.0
        rows[:, 1, 0, 1] = 1.0
        rows[1500, 0, 0, 0] = np.sqrt(1.0 + excess)
        common = np.diag([0.0, 0.0] + [1.0] * (dim - 2)).astype(complex)[None]
        if complete:
            _check_complete(rows, common)
        else:
            with pytest.raises(ValueError, match="identity"):
                _check_complete(rows, common)


class TestSweepPhi:
    def test_angle_equal_to_lambda_violates(self):
        lam = 0.7
        report = sweep_phi(paper_qubit_family(), lam, [lam])[0]
        assert report.entropy == pytest.approx(0.0, abs=1e-9)
        assert report.violated is True

    def test_quarter_turn_is_balanced(self):
        lam = 0.7
        report = sweep_phi(paper_qubit_family(), lam, [lam + np.pi / 2.0])[0]
        assert report.entropy == pytest.approx(LN2, abs=1e-9)
        assert report.violated is False

    def test_half_turn_is_deterministic_again(self):
        lam = 0.7
        report = sweep_phi(paper_qubit_family(), lam, [lam + np.pi])[0]
        assert report.entropy == pytest.approx(0.0, abs=1e-9)
        assert report.violated is True

    def test_fisher_constant_across_angles(self):
        lam = -0.4
        grid = lam + np.linspace(-np.pi, np.pi, 15)
        reports = sweep_phi(paper_qubit_family(), lam, grid)
        for phi, report in zip(grid, reports):
            assert report.fisher == pytest.approx(1.0, abs=1e-8)
            assert report.entropy == pytest.approx(
                binary_entropy(0.5 * (1.0 + np.cos(phi - lam))), abs=1e-9
            )

    def test_rejects_non_qubit_family(self, rng):
        family = random_family(3, rng)
        with pytest.raises(DimMismatchError):
            sweep_phi(family, 0.0, [0.0])


class TestCounterexample:
    def test_golden_fields(self):
        report = reproduce_counterexample()
        assert report.qfi == pytest.approx(1.0, abs=1e-9)
        assert report.seminorm_sq == pytest.approx(1.0, abs=1e-9)
        assert report.fisher == pytest.approx(1.0, abs=1e-9)
        assert report.entropy == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(LN2, abs=1e-9)
        assert report.violated is True

    def test_sld_swap_restores_inequality(self):
        family = paper_qubit_family()
        lam = 0.7
        report = audit(family, lam, sld_measurement(sld(derivative(family, lam))))
        assert report.violated is False
        assert report.entropy == pytest.approx(LN2, abs=1e-9)

    def test_lambda_independence(self):
        base = reproduce_counterexample()
        other = reproduce_counterexample(lam=2.1)
        for field in ("entropy", "fisher", "qfi", "seminorm_sq", "rhs"):
            assert getattr(other, field) == pytest.approx(getattr(base, field), abs=1e-9)
        assert other.violated == base.violated


class TestSweepCsv:
    def test_header_rows_and_precision(self, tmp_path):
        family = paper_qubit_family()
        grid = np.linspace(0.0, 1.0, 5)
        reports = sweep_q(family, 0.7, grid)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, grid, reports)

        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(SWEEP_CSV_COLUMNS)
        assert len(rows) == 6
        for row, q, report in zip(rows[1:], grid, reports):
            assert float(row[0]) == q
            assert float(row[1]) == report.entropy
            assert float(row[3]) == report.qfi
            assert row[6] == ("true" if report.violated else "false")

    def test_mismatched_lengths_rejected(self, tmp_path):
        reports = sweep_q(paper_qubit_family(), 0.7, [0.5])
        with pytest.raises(ValueError):
            write_sweep_csv(tmp_path / "bad.csv", [0.5, 0.6], reports)

    @pytest.mark.parametrize("param", ["q", "phi", "empty"])
    def test_bytes_match_the_csv_writer_oracle(self, tmp_path, rng, param):
        if param == "q":
            grid = BENCH_Q_GRID
            result = sweep_q(random_family(8, rng), 0.3, grid)
        elif param == "phi":
            lam = 0.7
            grid = lam + np.concatenate([np.linspace(-np.pi, np.pi, 201), [-1e-10, 0.0, 1e-10]])
            result = sweep_phi(paper_qubit_family(), lam, grid)
        else:
            grid = []
            result = sweep_q(paper_qubit_family(), 0.7, grid)
        write_sweep_csv(tmp_path / "columns.csv", grid, result)
        csv_writer_sweep_csv(tmp_path / "rows.csv", grid, list(result))
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\r\n") == len(grid) + 1


class TestSweepResult:
    def test_indexing_builds_the_reports_of_the_sequence(self):
        grid = np.linspace(0.0, 1.0, 7)
        result = sweep_q(paper_qubit_family(), 0.7, grid)
        assert isinstance(result, SweepResult) and len(result) == 7
        reports = list(result)
        for i in range(-7, 7):
            assert reports[i] == result[i]
        assert result[-1] == result[6]
        assert result[0].violated is True and type(result[0].entropy) is float
        for index in (7, -8):
            with pytest.raises(IndexError):
                result[index]

    def test_columns_are_read_only(self):
        result = sweep_phi(paper_qubit_family(), 0.7, [0.7, 1.2])
        for column in (result.entropy, result.fisher, result.violated, result.measurement_optimal):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_empty_grid_gives_an_empty_result(self):
        result = sweep_q(paper_qubit_family(), 0.7, [])
        assert len(result) == 0 and list(result) == []
        assert result.qfi == pytest.approx(1.0) and result.rhs == pytest.approx(LN2)
        with pytest.raises(IndexError):
            result[0]
