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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeneratorError, DimMismatchError
from .measurement import (
    OutcomeDistribution,
    Povm,
    _born_terms,
    _check_complete,
    _complement,
    _fisher_sum,
    _q_bras,
    _rotated_bras,
    rotated_qubit_measurement,
    shannon_entropy,
)
from .metrology import qfi, seminorm_bound, sld
from .state_family import StateAndDerivative, StateFamily, derivative

__all__ = [
    "TOL_AUDIT",
    "OPTIMALITY_TOL",
    "AuditReport",
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


@dataclass(frozen=True)
class AuditReport:
    """Every scalar entering the inequality, plus the verdicts.

    ``violated`` and ``measurement_optimal`` are pure functions of the
    four scalars, so a report (or a CSV row) is enough to re-derive the
    verdict without recomputing anything.
    """

    entropy: float
    fisher: float
    qfi: float
    seminorm_sq: float
    rhs: float
    violated: bool
    measurement_optimal: bool


def _audit_grid(family: StateFamily, sd: StateAndDerivative, rows, common=None) -> list:
    """Audit the G measurements with amplitude rows ``rows`` (``(G, K, r, d)``) at once.

    ``common`` (``(K0, r0, d)``) holds outcome rows every measurement
    shares; their Born terms are computed once and broadcast. Reports
    come back in grid order.
    """
    seminorm_sq = seminorm_bound(family)
    if seminorm_sq <= 0.0:
        raise DegenerateGeneratorError("generator seminorm is zero; inequality is undefined")
    terms = _born_terms(rows, sd)
    if common is not None:
        shared = _born_terms(common, sd)
        terms = [
            np.concatenate([t, np.broadcast_to(c, t.shape[:-1] + c.shape)], axis=-1)
            for t, c in zip(terms, shared)
        ]
    probs, dprobs, limits = terms
    entropy = shannon_entropy(OutcomeDistribution(probs=np.minimum(probs, 1.0), dprobs=dprobs))
    fisher = _fisher_sum(probs, dprobs, limits)
    fisher_q = qfi(sd)
    rhs = math.log(2.0) * fisher_q / seminorm_sq
    return [
        AuditReport(
            entropy=e,
            fisher=f,
            qfi=fisher_q,
            seminorm_sq=seminorm_sq,
            rhs=rhs,
            violated=e < rhs - TOL_AUDIT,
            measurement_optimal=abs(f - fisher_q) <= OPTIMALITY_TOL,
        )
        for e, f in zip(entropy.tolist(), fisher.tolist())
    ]


def _audit_bras(family: StateFamily, sd: StateAndDerivative, bras: np.ndarray) -> list:
    """Audit the projective measurements with bras ``bras[g]``, which all span one subspace."""
    if len(bras) == 0:
        return []
    rows = bras[:, :, None, :]
    common = _complement(bras[0])
    _check_complete(rows, common)
    return _audit_grid(family, sd, rows, common)


def audit(family: StateFamily, lam: float, povm: Povm) -> AuditReport:
    """Evaluate the inequality for one family, parameter value and POVM."""
    return _audit_grid(family, derivative(family, lam), povm.rows[None])[0]


def sweep_q(family: StateFamily, lam: float, q_grid) -> list:
    """Audit the tunable-bias measurement family over a grid of q values.

    The whole grid is one batch; reports come back in grid order.
    """
    sd = derivative(family, lam)
    return _audit_bras(family, sd, _q_bras(sld(sd), sd.state, q_grid))


def sweep_phi(family: StateFamily, lam: float, phi_grid) -> list:
    """Audit the equatorial qubit measurement over a grid of angles, as one batch."""
    if family.dim != 2:
        raise DimMismatchError(f"angle sweep needs a qubit family, got dim {family.dim}")
    return _audit_bras(family, derivative(family, lam), _rotated_bras(phi_grid))


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


def write_sweep_csv(path, param_values, reports) -> None:
    """Write one sweep as CSV with a header row and 17-significant-digit floats."""
    param_values = list(param_values)
    reports = list(reports)
    if len(param_values) != len(reports):
        raise ValueError("one parameter value per report required")
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
