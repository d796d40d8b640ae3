"""Persistency of excitation, universal inputs, and counterexample construction.

Library layout:

- ``numkit``: rank reports, kernels, common roots of a kernel polynomial
- ``signals``: finite signals, block-Hankel matrices, excitation orders
- ``lti``: state-space systems, simulation, controllability, behaviors
- ``flemma``: fundamental-lemma checks and the universality verdict
- ``adversary``: constructive counterexamples, and ``verify`` for their certificates
- ``cli``: command-line front end and file formats
"""

from .adversary import (
    CloudPoint,
    CloudResult,
    CounterexampleCertificate,
    OutputCounterexample,
    construct_certificate,
    construct_certificate_l0,
    extend_to_output,
    sample_system_cloud,
    single_input_family,
    verify,
)
from .defaults import RTOL, SEED, TOL_CERT
from .errors import (
    ConstructionError,
    EigenvalueConflictError,
    NearSingularError,
    NotATrajectoryError,
    PersistentlyExcitingError,
    ValidationError,
)
from .flemma import (
    LemmaCheck,
    UniversalityVerdict,
    check_behavior_equality,
    check_rank_condition,
    check_state_rank,
    universality_verdict,
)
from .lti import (
    BehaviorBasis,
    StateSpaceSystem,
    Trajectory,
    behavior_basis,
    is_controllable,
    simulate,
)
from .numkit import (
    LambdaSet,
    RankReport,
    kernel_basis,
    lambda_set,
    rank_report,
)
from .signals import PEReport, Signal, hankel, is_pe, pe_order, stack

__version__ = "0.1.0"

__all__ = [
    "RTOL", "SEED", "TOL_CERT",
    "BehaviorBasis", "CloudPoint", "CloudResult", "ConstructionError",
    "CounterexampleCertificate", "EigenvalueConflictError", "LambdaSet",
    "LemmaCheck", "NearSingularError", "NotATrajectoryError",
    "OutputCounterexample", "PEReport", "PersistentlyExcitingError",
    "RankReport", "Signal", "StateSpaceSystem", "Trajectory",
    "UniversalityVerdict", "ValidationError",
    "behavior_basis", "check_behavior_equality", "check_rank_condition",
    "check_state_rank", "construct_certificate", "construct_certificate_l0",
    "extend_to_output", "hankel", "is_controllable", "is_pe", "kernel_basis",
    "lambda_set", "pe_order", "rank_report", "sample_system_cloud", "simulate",
    "single_input_family", "stack", "universality_verdict", "verify",
]
