"""Exact planning for teams of interchangeable agents.

Ground DecPOMDP tables index their rows by per-agent tuples and grow
exponentially with the team size.  When groups of agents are
interchangeable, the same information fits in rows indexed by count
histograms ("how many members did X"), which this package calls the
lifted form.  The modules here provide the two representations, the
compilers between them, exact solvers for both, the table-size algebra
that quantifies the gap, and a parameterized generator for a nanoscale
drug-delivery scenario that motivates the whole exercise.

Importing the package loads none of its modules: `_EXPORTS` names the
module of each public name, and the first use of a name imports that
module alone (PEP 562).  `counting`, `errors`, `sizes` and `nano` load
no numpy; the model types, the model format, lifting and the solvers do.
"""

from __future__ import annotations

__version__ = "0.1.0"

# the module that defines each public name
_EXPORTS = {
    name: module
    for module, names in {
        "counting": (
            "enumerate_histograms",
            "format_histogram_tuple_key",
            "histogram_count",
            "histogram_multiplicity",
            "is_peak_shaped",
            "parse_histogram_key",
            "parse_histogram_tuple_key",
            "range_positions",
            "tuple_to_histogram",
        ),
        "errors": (
            "CapacityExceeded",
            "DecliftError",
            "InvalidParams",
            "NonConvergent",
            "NotLiftable",
            "ParseError",
            "RangeMismatch",
            "SchemaError",
            "ValidationError",
            "ZeroProbabilityObservation",
        ),
        "lifting": ("ground", "lift", "range_partition", "symmetry_refine"),
        "modelio": ("canonical_json", "parse_model", "serialize_model"),
        "models": (
            "Belief",
            "DiscreteDistribution",
            "GroundDecPomdp",
            "LiftedDecPomdp",
            "Mdp",
            "Partitioning",
            "Pomdp",
            "StateSpace",
            "ValidationReport",
            "belief_update",
            "validate_lifted",
            "validate_model",
        ),
        "nano": (
            "NanoParams",
            "NanoState",
            "generate_nano",
            "nano_desk_preset",
            "nano_paper_preset",
            "nano_size_params",
            "nano_states",
        ),
        "sizes": (
            "SizeParams",
            "SizeReport",
            "ground_sizes",
            "lifted_sizes",
            "params_from_model",
            "peak_sizes",
            "size_report",
        ),
        "solvers": (
            "ConditionalPlan",
            "EquivalenceReport",
            "JointPolicy",
            "PlanValueVector",
            "SolveResult",
            "UtilityTable",
            "decpomdp_exhaustive",
            "dominance_prune",
            "enumerate_plans",
            "lifted_exhaustive",
            "mdp_value_iteration",
            "plan_count",
            "pomdp_plan_iteration",
            "verify_equivalence",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module of a public name on its first use and bind the name."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # what `from .<module> import <name>` runs, so `-X importtime` reports it
    source = __import__(module, globals(), fromlist=(name,), level=1)
    value = globals()[name] = getattr(source, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
