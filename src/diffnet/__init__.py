"""Structural controllability of diffusively coupled networks.

Decides, from topology plus one copy of the node dynamics, whether some
(equivalently, almost every) assignment of vector or matrix edge weights
makes the assembled network controllable, and certifies each verdict by
measuring the controllable subspace of the network on sampled weights,
all draws of one certificate assembled and rank-tested as one stack.
"""

from .assembly import (
    LumpedSystem,
    MassSpringChain,
    MatrixWeights,
    assemble_lumped,
    assemble_lumped_stack,
    factorized_assembly_check,
    grounding_shift,
    mass_spring_chain,
    sample_weights,
)
from .errors import (
    ConsistencyError,
    DiffnetError,
    ModelValidationError,
    NumericError,
    PremiseError,
    ProblemFileError,
)
from .numerics import DEFAULT_TOL, RandomSource, ToleranceConfig
from .problem_io import Problem, load_problem, parse_problem
from .subsystem import SubsystemModel, fixed_modes, validate_model
from .topology import (
    DrivenSet,
    Edge,
    NetworkGraph,
    incidence_matrices,
    input_reachable_set,
    is_globally_input_reachable,
    spanning_forest,
)
from .verdict import (
    AnalysisReport,
    CertificationReport,
    Verdict,
    analyze,
    analyze_scalar_constrained,
    aux_condition_check,
    certify_monte_carlo,
    laplacian_leader_controllability,
    rank_condition_check,
    reduce_scalar_weight,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CertificationReport",
    "ConsistencyError",
    "DEFAULT_TOL",
    "DiffnetError",
    "DrivenSet",
    "Edge",
    "LumpedSystem",
    "MassSpringChain",
    "MatrixWeights",
    "ModelValidationError",
    "NetworkGraph",
    "NumericError",
    "PremiseError",
    "Problem",
    "ProblemFileError",
    "RandomSource",
    "SubsystemModel",
    "ToleranceConfig",
    "Verdict",
    "analyze",
    "analyze_scalar_constrained",
    "assemble_lumped",
    "assemble_lumped_stack",
    "aux_condition_check",
    "certify_monte_carlo",
    "factorized_assembly_check",
    "fixed_modes",
    "grounding_shift",
    "incidence_matrices",
    "input_reachable_set",
    "is_globally_input_reachable",
    "laplacian_leader_controllability",
    "load_problem",
    "mass_spring_chain",
    "parse_problem",
    "rank_condition_check",
    "reduce_scalar_weight",
    "sample_weights",
    "spanning_forest",
    "validate_model",
]
