import csv
import json
import math

import numpy as np
import pytest

from conftest import SIGMA_X, assert_overwrites_in_place, paper_qubit_family, random_family
from fisherlab import (
    Povm,
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
from fisherlab.audit import (
    OPTIMALITY_TOL,
    SWEEP_CSV_COLUMNS,
    TOL_AUDIT,
    SweepResult,
    _formatted,
    write_sweep_csv,
)
from fisherlab.cli import main
from fisherlab.errors import DegenerateGeneratorError, DimMismatchError, InvalidQError
from fisherlab.measurement import (
    EPS_PROB,
    _born_terms,
    _check_complete,
    _complement,
    _plane_terms,
    _q_coeffs,
    _rotated_bras,
)
from test_measurement import binary_entropy
from test_metrology import offset_qubit_family

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

    def test_degenerate_generator_is_reported_before_a_dim_mismatch(self):
        family = StateFamily(generator=np.eye(2), input_state=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateGeneratorError):
            audit(family, 0.0, Povm.from_effects([np.eye(3)]))

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


def audit_band_edge_q() -> float:
    """The q above 1/2 where the binary entropy equals ``ln 2 - TOL_AUDIT``, by bisection."""
    below, above = 0.5, 0.6
    for _ in range(100):
        mid = 0.5 * (below + above)
        if binary_entropy(mid) > LN2 - TOL_AUDIT:
            below = mid
        else:
            above = mid
    return below


class TestAuditBandEdge:
    """``violated`` flips where ``S`` crosses ``rhs - TOL_AUDIT``, not elsewhere.

    On the paper qubit at its optimal input, ``rhs = ln 2`` and every
    q-family member is optimal, so ``S(q)`` is the binary entropy. The
    edge sits near ``q - 1/2 = sqrt(TOL_AUDIT / 2)``; stepping ``1e-7``
    to either side moves ``S`` by about ``9e-12``, far above rounding.
    """

    LAM = 0.7
    STEP = 1e-7

    def grid(self) -> np.ndarray:
        edge = audit_band_edge_q()
        assert edge - 0.5 == pytest.approx(math.sqrt(TOL_AUDIT / 2.0), rel=1e-3)
        return np.array([edge - self.STEP, edge + self.STEP])

    def test_audit_flips_across_the_edge(self):
        family = paper_qubit_family()
        sd = derivative(family, self.LAM)
        sldd = sld(sd)
        povms = [q_family_measurement(sldd, sd.state, q) for q in self.grid()]
        reports = [audit(family, self.LAM, povm) for povm in povms]
        assert [r.rhs for r in reports] == pytest.approx([LN2, LN2], abs=1e-15)
        margins = [r.entropy - (r.rhs - TOL_AUDIT) for r in reports]
        assert 5e-12 < margins[0] < 2e-11 and -2e-11 < margins[1] < -5e-12
        assert [r.violated for r in reports] == [False, True]
        assert all(r.measurement_optimal for r in reports)

    def test_sweep_and_csv_flip_across_the_edge(self, tmp_path):
        grid = self.grid()
        result = sweep_q(paper_qubit_family(), self.LAM, grid)
        assert result.violated.tolist() == [False, True]
        path = tmp_path / "edge.csv"
        write_sweep_csv(path, grid, result)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        column = SWEEP_CSV_COLUMNS.index("violated")
        assert [row[column] for row in rows[1:]] == ["false", "true"]


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

    def test_phi_plane_terms_equal_the_qubit_row_path_bit_for_bit(self, rng):
        # The path sweep_phi took before the plane evaluator: the rotated
        # bras as the qubit's amplitude rows, each point checked at 1e-9.
        grid = np.concatenate([np.linspace(-np.pi, np.pi, 1997), [0.0, -0.0, 1e-300, -1e-300]])
        bras = _rotated_bras(grid)
        rows = bras[:, :, None, :]
        _check_complete(rows)
        for family in (paper_qubit_family(), random_family(2, rng)):
            sd = derivative(family, float(rng.uniform(-np.pi, np.pi)))
            for old, new in zip(_born_terms(rows, sd), _plane_terms(sd, bras, np.eye(2))):
                assert new.shape == (2001, 2)
                assert (new.view(np.uint64) == old.view(np.uint64)).all()

    def test_empty_q_grid_keeps_the_shared_scalars_of_an_audit(self, rng):
        family = random_family(8, rng)
        result = sweep_q(family, 0.3, [])
        sd = derivative(family, 0.3)
        report = audit(family, 0.3, q_family_measurement(sld(sd), sd.state, 0.5))
        assert len(result) == 0 and result.entropy.shape == result.fisher.shape == (0,)
        assert (result.qfi, result.seminorm_sq, result.rhs) == (
            report.qfi,
            report.seminorm_sq,
            report.rhs,
        )

    @pytest.mark.parametrize("where", [0, 1000, -1])
    def test_nan_anywhere_in_q_grid_raises(self, where):
        grid = np.linspace(0.0, 1.0, 2001)
        grid[where] = np.nan
        with pytest.raises(InvalidQError):
            sweep_q(paper_qubit_family(), 0.7, grid)


class TestOffsetGeneratorVerdicts:
    """``|+>`` under ``diag(c, c + gap)`` with ``c/gap`` of 1e5 and 1e6 sits at the optimal input.

    The SLD measurement has entropy ``ln 2 = rhs`` and ``F = F_Q``, so it
    neither violates nor misses optimality, and every q-family member is
    optimal; all three hold only while ``F_Q`` keeps the gap's precision.
    """

    def sld_report(self, offset, gap):
        family = offset_qubit_family(offset, gap)
        return audit(family, 0.7, sld_measurement(sld(derivative(family, 0.7))))

    def test_sld_measurement_does_not_violate(self):
        report = self.sld_report(100.0, 0.001)
        assert report.rhs <= LN2 + TOL_AUDIT and report.violated is False

    def test_sld_measurement_is_optimal(self):
        assert self.sld_report(1e4, 0.01).measurement_optimal is True

    def test_q_sweep_passes_its_completeness_checks(self):
        # A uniform grid: below EPS_PROB the limit branch's overshoot
        # 4 q <psi|h|psi>^2 grows with the offset, as documented.
        result = sweep_q(offset_qubit_family(1000.0, 0.001), 0.7, np.linspace(0.0, 1.0, 2001))
        assert result.measurement_optimal.all()
        assert np.flatnonzero(~result.violated).tolist() == [1000]


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

    def test_degenerate_generator_is_reported_before_completeness(self):
        family = StateFamily(generator=np.eye(2), input_state=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateGeneratorError):
            sweep_phi(family, 0.0, [0.0, np.nan])

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


def plane_qubit_in_eight_dims() -> StateFamily:
    """d = 8 family whose state and derivative stay in span{|0>, |1>}: sigma_x/2 on |0>."""
    generator = np.zeros((8, 8), dtype=complex)
    generator[:2, :2] = SIGMA_X / 2.0
    return StateFamily(generator=generator, input_state=np.eye(8)[0])


class TestPlaneCompleteness:
    """The plane evaluator gives its basis check and each point's check 1e-9/4 apiece.

    The family's plane is span{|0>, |1>}, so the basis is two rows of the
    identity. Grid point 1500 is q = 0, whose coefficients are a swap, so
    scaling its first row by ``sqrt(1 + x)`` makes its 2x2 deviation
    exactly ``x``; scaling the basis's second row the same way makes the
    basis deviation ``x + x^2``.
    """

    BUDGET = 1e-9 / 4.0
    LAM = 0.0

    def coeffs(self) -> np.ndarray:
        grid = np.linspace(0.0, 1.0, 2001)
        grid[1500] = 0.0
        return _q_coeffs(grid)

    def basis(self) -> np.ndarray:
        return np.eye(8, dtype=complex)[:2]

    def plane_terms(self, coeffs, basis):
        return _plane_terms(derivative(plane_qubit_in_eight_dims(), self.LAM), coeffs, basis)

    @pytest.mark.parametrize("offset, complete", [(-1e-11, True), (1e-11, False)])
    def test_coefficient_band_edge_at_one_point_deep_in_the_grid(self, offset, complete):
        coeffs = self.coeffs()
        coeffs[1500, 0] *= np.sqrt(1.0 + self.BUDGET + offset)
        if complete:
            assert self.plane_terms(coeffs, self.basis())[0].shape == (2001, 3)
        else:
            with pytest.raises(ValueError, match="identity"):
                self.plane_terms(coeffs, self.basis())

    @pytest.mark.parametrize("offset, complete", [(-1e-11, True), (1e-11, False)])
    def test_basis_band_edge(self, offset, complete):
        basis = self.basis()
        basis[1] *= np.sqrt(1.0 + self.BUDGET + offset)
        if complete:
            assert self.plane_terms(self.coeffs(), basis)[0].shape == (2001, 3)
        else:
            with pytest.raises(ValueError, match="identity"):
                self.plane_terms(self.coeffs(), basis)

    def test_both_checks_at_their_edge_keep_the_point_within_its_budget(self):
        # The derived bound 2 (1 + delta) eps + delta <= 1e-9 on an instance:
        # the point's d-dimensional effects, built from the scaled bras and
        # complement, pass the single-POVM check at 1e-9.
        scale = np.sqrt(1.0 + self.BUDGET - 1e-11)
        coeffs, basis = self.coeffs(), self.basis()
        coeffs[1500, 0] *= scale
        basis[1] *= scale
        assert self.plane_terms(coeffs, basis)[0].shape == (2001, 3)
        rows = (coeffs[1500] @ basis)[None, :, None, :]
        _check_complete(rows, _complement(basis))


class TestEpsProbBandEdge:
    """The small q-family outcome switches to its vanishing-probability limit at EPS_PROB.

    That outcome has ``p = min(q, 1 - q)``. Its limit term ``4 |M dpsi|^2``
    exceeds ``dp^2 / p`` by ``4 p <psi|h|psi>^2``, so F is continuous
    across the switch to that amount, and ``F - F_Q`` stays below it plus
    rounding of the terms' size ``4 <psi|h^2|psi> = 4 ||dpsi||^2``.
    """

    SIDES = np.array([1.0 - 1e-6, 1.0 + 1e-6])

    def grid(self) -> np.ndarray:
        small = EPS_PROB * self.SIDES
        grid = np.concatenate([small, 1.0 - small])
        # 1 - q is exact here, so the small outcome sits on the side asked for.
        assert ((np.minimum(grid, 1.0 - grid) > EPS_PROB) == [False, True, False, True]).all()
        return grid

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_both_paths_are_continuous_across_the_switch(self, dim, rng):
        grid = self.grid()
        small = np.minimum(grid, 1.0 - grid)
        for _ in range(5):
            family = random_family(dim, rng)
            lam = float(rng.uniform(0.0, 2.0 * np.pi))
            sd = derivative(family, lam)
            sldd = sld(sd)
            mean_h = np.vdot(sd.state, family.generator @ sd.state).real
            scale = 4.0 * np.vdot(sd.dstate, sd.dstate).real
            plane = sweep_q(family, lam, grid).fisher
            rows = np.array(
                [audit(family, lam, q_family_measurement(sldd, sd.state, q)).fisher for q in grid]
            )
            overshoot = np.where(small <= EPS_PROB, 4.0 * small * mean_h**2, 0.0)
            for fisher in (plane, rows):
                excess = fisher - qfi(sd) - overshoot
                assert np.abs(excess).max() <= 1e-14 * scale
                assert (fisher - qfi(sd) <= 4.0 * small * mean_h**2 + 1e-14 * scale).all()
                jump = 4.0 * EPS_PROB * mean_h**2 + 1e-14 * scale
                assert abs(fisher[0] - fisher[1]) <= jump
                assert abs(fisher[2] - fisher[3]) <= jump
            assert np.abs(plane - rows).max() <= 1e-12

    def test_overshoot_is_visible_on_a_shifted_generator(self):
        # sigma_z/2 + 3 I on the paper qubit: <psi|h|psi> = 3, so the limit
        # term adds 36 p, far above rounding; just above EPS_PROB it is gone.
        family = StateFamily(
            generator=np.diag([3.5, 2.5]).astype(complex),
            input_state=np.array([1.0, 1.0]) / np.sqrt(2.0),
        )
        grid = self.grid()
        small = np.minimum(grid, 1.0 - grid)
        result = sweep_q(family, 0.7, grid)
        expected = np.where(small <= EPS_PROB, 36.0 * small, 0.0)
        assert result.fisher - result.qfi == pytest.approx(expected, abs=1e-14)


def phased_sld_effects(sd, theta: float) -> list:
    """Effects on ``(psi +- e^{i theta} perp)/sqrt(2)``, which give ``F = F_Q cos^2 theta``."""
    tangent = sld(sd).tangent
    kets = [(sd.state + sign * np.exp(1j * theta) * tangent) / np.sqrt(2.0) for sign in (1, -1)]
    return [np.outer(ket, ket.conj()) for ket in kets]


class TestOptimalityBandEdge:
    """``measurement_optimal`` flips where ``F_Q - F`` crosses OPTIMALITY_TOL.

    On the paper qubit ``F_Q = 1``; the relative phase ``theta`` costs
    ``F_Q sin^2 theta``, set to ``OPTIMALITY_TOL -+ 1e-11``, far above the
    ~1e-16 rounding of F.
    """

    LAM = 0.7
    DELTA = 1e-11

    def thetas(self) -> list:
        return [math.asin(math.sqrt(OPTIMALITY_TOL + side * self.DELTA)) for side in (-1, 1)]

    def test_audit_flips_across_the_edge(self):
        family = paper_qubit_family()
        sd = derivative(family, self.LAM)
        reports = [
            audit(family, self.LAM, Povm.from_effects(phased_sld_effects(sd, theta)))
            for theta in self.thetas()
        ]
        gaps = [r.qfi - r.fisher for r in reports]
        assert gaps == pytest.approx(
            [OPTIMALITY_TOL - self.DELTA, OPTIMALITY_TOL + self.DELTA], abs=1e-14
        )
        assert [r.measurement_optimal for r in reports] == [True, False]

    def test_printed_table_flips_across_the_edge(self, tmp_path, capsys):
        sd = derivative(paper_qubit_family(), self.LAM)
        printed = []
        for theta in self.thetas():
            effects = [
                np.stack([e.real, e.imag], axis=-1).tolist() for e in phased_sld_effects(sd, theta)
            ]
            config = {
                "generator": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
                "input_state": [[1.0 / math.sqrt(2.0), 0.0], [1.0 / math.sqrt(2.0), 0.0]],
                "lambda": self.LAM,
                "measurement": effects,
            }
            path = tmp_path / "edge.json"
            path.write_text(json.dumps(config))
            assert main(["audit", "--config", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert "measurement_optimal = true\n" in printed[0]
        assert "measurement_optimal = false\n" in printed[1]


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

    def test_overwrites_an_existing_file_in_place(self, tmp_path, rng):
        grid = BENCH_Q_GRID[::10]
        result = sweep_q(random_family(8, rng), 0.3, grid)
        csv_writer_sweep_csv(tmp_path / "rows.csv", grid, list(result))
        expected = (tmp_path / "rows.csv").read_bytes()
        write = lambda path: write_sweep_csv(path, grid, result)  # noqa: E731
        assert_overwrites_in_place(tmp_path / "sweep.csv", write, expected)

    def test_each_distinct_value_formats_as_the_per_value_oracle(self, tmp_path):
        # Signed zeros, repeats, infinities and subnormals, shuffled so that
        # equal values sit apart; every verdict pair occurs.
        values = [0.0, -0.0, 1.0, 1.0, 0.1, 1.0 / 3.0, 5e-324, -5e-324, 2.2250738585072014e-308]
        values += [math.inf, -math.inf, 1e300, -0.0, 0.0, 0.1, -2.225073858507201e-308]
        order = np.random.default_rng(3).permutation(len(values))
        column = np.array(values)[order]
        assert _formatted(column) == [f"{value:.17g}" for value in column.tolist()]
        assert _formatted(column[:0]) == []
        result = SweepResult(
            entropy=column.copy(),
            fisher=column[::-1].copy(),
            violated=np.arange(len(values)) % 2 == 0,
            measurement_optimal=np.arange(len(values)) % 4 < 2,
            qfi=-0.0,
            seminorm_sq=5e-324,
            rhs=1.0 / 3.0,
        )
        grid = np.array(values)
        write_sweep_csv(tmp_path / "columns.csv", grid, result)
        csv_writer_sweep_csv(tmp_path / "rows.csv", grid, list(result))
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        fields = set(written.decode().replace("\r\n", ",").split(","))
        assert {"0", "-0", "inf", "-inf", "4.9406564584124654e-324"} <= fields


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
        for sweep in (sweep_q, sweep_phi):
            result = sweep(paper_qubit_family(), 0.7, [])
            assert len(result) == 0 and list(result) == []
            assert result.entropy.shape == result.fisher.shape == (0,)
            assert result.qfi == pytest.approx(1.0) and result.rhs == pytest.approx(LN2)
            with pytest.raises(IndexError):
                result[0]
