"""Structural controllability of diffusively coupled networks.

Decides, from topology plus one copy of the node dynamics, whether some
(equivalently, almost every) assignment of vector or matrix edge weights
makes the assembled network controllable, and certifies each verdict by
measuring the controllable subspace of the network on sampled weights,
all draws of one certificate assembled and rank-tested as one stack.
"""

from .assembly import (
    BlockMatrix,
    assemble_blocks,
    ground_first_vertex,
    grounding_shift,
    sample_weights,
)
from .errors import DiffnetError, ModelValidationError, NumericError, ProblemFileError
from .numerics import DEFAULT_TOL, RandomSource, ToleranceConfig
from .problem_io import Problem, load_problem, mass_spring_chain, parse_problem
from .subsystem import SubsystemModel, fixed_modes
from .topology import Edge, NetworkGraph, spanning_forest
from .verdict import (
    AnalysisReport,
    CertificationReport,
    Verdict,
    analyze,
    certify_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BlockMatrix",
    "CertificationReport",
    "DEFAULT_TOL",
    "DiffnetError",
    "Edge",
    "ModelValidationError",
    "NetworkGraph",
    "NumericError",
    "Problem",
    "ProblemFileError",
    "RandomSource",
    "SubsystemModel",
    "ToleranceConfig",
    "Verdict",
    "analyze",
    "assemble_blocks",
    "certify_monte_carlo",
    "fixed_modes",
    "ground_first_vertex",
    "grounding_shift",
    "load_problem",
    "mass_spring_chain",
    "parse_problem",
    "sample_weights",
    "spanning_forest",
]
