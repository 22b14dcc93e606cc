"""Exact planning for teams of interchangeable agents.

Ground DecPOMDP tables index their rows by per-agent tuples and grow
exponentially with the team size.  When groups of agents are
interchangeable, the same information fits in rows indexed by count
histograms ("how many members did X"), which this package calls the
lifted form.  The modules here provide the two representations, the
compilers between them, exact solvers for both, the table-size algebra
that quantifies the gap, and a parameterized generator for a nanoscale
drug-delivery scenario that motivates the whole exercise.
"""

from .counting import (
    enumerate_histograms,
    format_histogram_tuple_key,
    histogram_count,
    histogram_multiplicity,
    is_peak_shaped,
    parse_histogram_key,
    parse_histogram_tuple_key,
    range_positions,
    tuple_to_histogram,
)
from .errors import (
    CapacityExceeded,
    DecliftError,
    InvalidParams,
    NonConvergent,
    NotLiftable,
    ParseError,
    RangeMismatch,
    SchemaError,
    ValidationError,
    ZeroProbabilityObservation,
)
from .lifting import (
    LiftedDecPomdp,
    Partitioning,
    ground,
    lift,
    range_partition,
    symmetry_refine,
    validate_lifted,
)
from .modelio import canonical_json, parse_model, serialize_model
from .models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    Mdp,
    Pomdp,
    StateSpace,
    ValidationReport,
    belief_update,
    joint_space,
    joint_space_size,
    validate_model,
)
from .nano import (
    NanoParams,
    NanoState,
    generate_nano,
    nano_desk_preset,
    nano_paper_preset,
    nano_size_params,
    nano_states,
)
from .sizes import (
    SizeParams,
    SizeReport,
    ground_sizes,
    lifted_sizes,
    params_from_model,
    peak_sizes,
    size_report,
)
from .solvers import (
    ConditionalPlan,
    JointPolicy,
    PlanValueVector,
    SolveResult,
    UtilityTable,
    decpomdp_exhaustive,
    dominance_prune,
    enumerate_plans,
    lifted_exhaustive,
    mdp_value_iteration,
    plan_count,
    pomdp_plan_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "CapacityExceeded",
    "ConditionalPlan",
    "DecliftError",
    "DiscreteDistribution",
    "GroundDecPomdp",
    "InvalidParams",
    "JointPolicy",
    "LiftedDecPomdp",
    "Mdp",
    "NanoParams",
    "NanoState",
    "NonConvergent",
    "NotLiftable",
    "ParseError",
    "Partitioning",
    "PlanValueVector",
    "Pomdp",
    "RangeMismatch",
    "SchemaError",
    "SizeParams",
    "SizeReport",
    "SolveResult",
    "StateSpace",
    "UtilityTable",
    "ValidationError",
    "ValidationReport",
    "ZeroProbabilityObservation",
    "belief_update",
    "canonical_json",
    "decpomdp_exhaustive",
    "dominance_prune",
    "enumerate_histograms",
    "enumerate_plans",
    "format_histogram_tuple_key",
    "generate_nano",
    "ground",
    "ground_sizes",
    "histogram_count",
    "histogram_multiplicity",
    "is_peak_shaped",
    "joint_space",
    "joint_space_size",
    "lift",
    "lifted_exhaustive",
    "lifted_sizes",
    "mdp_value_iteration",
    "nano_desk_preset",
    "nano_paper_preset",
    "nano_size_params",
    "nano_states",
    "params_from_model",
    "parse_histogram_key",
    "parse_histogram_tuple_key",
    "parse_model",
    "peak_sizes",
    "plan_count",
    "pomdp_plan_iteration",
    "range_partition",
    "range_positions",
    "serialize_model",
    "size_report",
    "symmetry_refine",
    "tuple_to_histogram",
    "validate_lifted",
    "validate_model",
]
