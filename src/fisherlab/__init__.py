"""fisherlab: pure-state quantum metrology and an entropy-inequality auditor.

Quantum and classical Fisher information for unitary phase families,
the pure-state symmetric logarithmic derivative with its optimal
measurement bases, outcome Shannon entropies, an auditor for the
inequality S >= ln(2) * F_Q / ||h||^2, and a Monte-Carlo Cramer-Rao
checker.
"""

from .audit import AuditReport, audit, reproduce_counterexample, sweep_phi, sweep_q
from .errors import (
    ConfigError,
    DegenerateGeneratorError,
    DimMismatchError,
    FisherlabError,
    FlatLikelihoodError,
    InvalidQError,
    NonHermitianError,
    StationaryStateError,
)
from .estimation import CrbReport, SampleRecord, crb_experiment, mle_estimate, sample_outcomes
from .measurement import (
    OutcomeDistribution,
    Povm,
    classical_fisher,
    outcome_distribution,
    q_family_measurement,
    rotated_qubit_measurement,
    shannon_entropy,
    sld_measurement,
)
from .metrology import QfiReport, SldData, qfi, qfi_report, seminorm_bound, sld
from .numerics import hermitian_eig, seminorm
from .state_family import StateAndDerivative, StateFamily, derivative, evaluate

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ConfigError",
    "CrbReport",
    "DegenerateGeneratorError",
    "DimMismatchError",
    "FisherlabError",
    "FlatLikelihoodError",
    "InvalidQError",
    "NonHermitianError",
    "OutcomeDistribution",
    "Povm",
    "QfiReport",
    "SampleRecord",
    "SldData",
    "StateAndDerivative",
    "StateFamily",
    "StationaryStateError",
    "audit",
    "classical_fisher",
    "crb_experiment",
    "derivative",
    "evaluate",
    "hermitian_eig",
    "mle_estimate",
    "outcome_distribution",
    "q_family_measurement",
    "qfi",
    "qfi_report",
    "reproduce_counterexample",
    "rotated_qubit_measurement",
    "sample_outcomes",
    "seminorm",
    "seminorm_bound",
    "shannon_entropy",
    "sld",
    "sld_measurement",
    "sweep_phi",
    "sweep_q",
]
