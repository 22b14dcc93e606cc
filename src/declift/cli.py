"""Command line driver.

One subcommand per capability: validate a model file, generate a nano
instance, lift or ground a team model, solve any model kind, compare
table sizes, and check that a lifted model and its ground expansion
agree on the optimal value.

Exit codes: 0 success, 1 for model or validation problems, 2 when an
enumeration would exceed its capacity cap.  Errors print one line on
stderr in the form `error [<code>]: <message>`.  Result documents are
canonical JSON, so repeated runs with identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

from .errors import (
    CapacityExceeded,
    DecliftError,
    InvalidParams,
    SchemaError,
    ValidationError,
)
from .lifting import ground, lift, range_partition, symmetry_refine
from .modelio import canonical_json, parse_model, serialize_model
from .models import GroundDecPomdp, LiftedDecPomdp, Mdp, Pomdp
from .nano import (
    NanoParams,
    generate_nano,
    nano_desk_preset,
    nano_paper_preset,
    nano_size_params,
)
from .sizes import SizeReport, params_from_model, size_report
from .solvers import (
    DEFAULT_JOINT_CAP,
    DEFAULT_PLAN_CAP,
    decpomdp_exhaustive,
    lifted_exhaustive,
    mdp_value_iteration,
    pomdp_plan_iteration,
    verify_equivalence,
)

SUBCOMMANDS = (
    "validate",
    "gen-nano",
    "lift",
    "ground",
    "solve",
    "analyze-size",
    "verify-equivalence",
)

_NEEDS_INPUT = {"validate", "lift", "ground", "solve", "verify-equivalence"}
_NEEDS_OUTPUT = {"gen-nano", "lift", "ground"}
_NEEDS_HORIZON = {"verify-equivalence"}


@dataclass(frozen=True)
class Command:
    """One parsed invocation; invariants checked on construction."""

    name: str
    input_path: str | None = None
    output_path: str | None = None
    horizon: int | None = None
    epsilon: float = 1e-6
    peak_only: bool = False
    preset: str | None = None
    nano: NanoParams | None = None
    cap_plans: int = DEFAULT_PLAN_CAP
    cap_joint: int = DEFAULT_JOINT_CAP

    def __post_init__(self):
        if self.name not in SUBCOMMANDS:
            raise InvalidParams(f"unknown subcommand {self.name!r}")
        if self.name in _NEEDS_INPUT and not self.input_path:
            raise InvalidParams(f"{self.name} needs an input path")
        if self.name in _NEEDS_OUTPUT and not self.output_path:
            raise InvalidParams(f"{self.name} needs --out")
        if self.name in _NEEDS_HORIZON and self.horizon is None:
            raise InvalidParams(f"{self.name} needs --horizon")
        if self.horizon is not None and (
            not isinstance(self.horizon, int) or self.horizon < 1
        ):
            raise InvalidParams("horizon must be an integer >= 1")
        if not self.epsilon > 0:
            raise InvalidParams("epsilon must be positive")
        if self.cap_plans < 1 or self.cap_joint < 1:
            raise InvalidParams("caps must be positive")
        if self.name == "gen-nano" and self.nano is None:
            raise InvalidParams("gen-nano needs generator parameters")
        if self.name == "analyze-size" and bool(self.input_path) == bool(self.preset):
            raise InvalidParams("analyze-size needs a model path or --preset, not both")


# ---------------------------------------------------------------------------
# shared plumbing

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".17g")


def _kind_name(model) -> str:
    if isinstance(model, LiftedDecPomdp):
        return "lifted-decpomdp"
    if isinstance(model, GroundDecPomdp):
        return "decpomdp"
    if isinstance(model, Pomdp):
        return "pomdp"
    return "mdp"


def _plan_doc(plan, observations) -> dict:
    node = {"action": plan.action}
    if plan.subplans:
        node["on"] = {
            obs: _plan_doc(sub, observations)
            for obs, sub in zip(observations, plan.subplans)
        }
    return node


def _plan_text(plan, observations) -> str:
    if not plan.subplans:
        return plan.action
    branches = ", ".join(
        f"{obs}->{_plan_text(sub, observations)}"
        for obs, sub in zip(observations, plan.subplans)
    )
    return f"{plan.action}({branches})"


def _params_doc(params) -> dict:
    return {
        "states": params.states,
        "agents": params.agents,
        "partitions": params.partitions,
        "actions_per_agent": params.actions_per_agent,
        "observations_per_agent": params.observations_per_agent,
        "partition_size": params.partition_size,
    }


def _size_doc(params, report: SizeReport) -> dict:
    return {
        "kind": "size-report",
        "params": _params_doc(params),
        "ground": {
            "log2_transition": report.ground_transition,
            "log2_sensor": report.ground_sensor,
        },
        "lifted": {
            "log2_transition": report.lifted_transition,
            "log2_sensor": report.lifted_sensor,
            "exact_key_counts": [
                {"actions": a, "observations": o}
                for a, o in report.exact_key_counts
            ],
        },
        "peak": {
            "log2_transition": report.peak_transition,
            "log2_sensor": report.peak_sensor,
        },
        "lifted_leq_ground": report.lifted_leq_ground,
        "peak_leq_lifted": report.peak_leq_lifted,
    }


def _print_size_table(params, report: SizeReport):
    rows = [
        ("ground", report.ground_transition, report.ground_sensor),
        ("lifted", report.lifted_transition, report.lifted_sensor),
        ("peak-shaped", report.peak_transition, report.peak_sensor),
    ]
    print(
        f"instance: {params.states} states, {params.agents} agents, "
        f"{params.partitions} partitions of {params.partition_size}"
    )
    print(f"{'form':<12} {'log2(transition)':>20} {'log2(sensor)':>20}")
    for name, t, o in rows:
        print(f"{name:<12} {_fmt(t):>20} {_fmt(o):>20}")
    counts = ", ".join(f"{a}/{o}" for a, o in report.exact_key_counts)
    print(f"exact keys per partition (actions/observations): {counts}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_validate(command: Command) -> int:
    try:
        model = parse_model(_read(command.input_path))
    except ValidationError as err:
        print(err.report if err.report is not None else err)
        return 1
    extra = ""
    if isinstance(model, LiftedDecPomdp):
        extra = f", {len(model.partitioning.blocks)} partitions"
    elif isinstance(model, GroundDecPomdp):
        extra = f", {len(model.agents)} agents"
    print(f"ok: {_kind_name(model)} with {len(model.states)} states{extra}")
    return 0


_RATE_FIELDS = (
    "marker_appear",
    "marker_persist",
    "assemble_prob",
    "false_positive",
    "cross_type",
    "false_negative",
    "reward_good",
    "reward_bad",
    "release_cost",
    "discount",
    "marker_initial",
)


def _nano_params_from_args(args) -> NanoParams:
    if args.preset == "paper":
        params = nano_paper_preset()
    elif args.preset == "desk":
        params = nano_desk_preset()
    else:
        params = NanoParams()
    if args.rates:
        try:
            rates = json.loads(_read(args.rates))
        except json.JSONDecodeError as err:
            raise SchemaError(f"rates file is not valid JSON: {err}") from None
        if not isinstance(rates, dict):
            raise SchemaError("rates file must hold one JSON object")
        unknown = set(rates) - set(_RATE_FIELDS)
        if unknown:
            raise SchemaError(
                f"rates file has unknown fields: {', '.join(sorted(unknown))}"
            )
        params = dataclasses.replace(params, **rates)
    overrides = {}
    if args.kappa is not None:
        overrides["marker_types"] = args.kappa
    if args.iota is not None:
        overrides["message_types"] = args.iota
    if args.partition_size is not None:
        overrides["partition_size"] = args.partition_size
    if args.theta is not None:
        overrides["release_threshold"] = args.theta
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return params


def _cmd_gen_nano(command: Command) -> int:
    try:
        model = generate_nano(command.nano, cap=command.cap_joint)
    except CapacityExceeded as err:
        # too large to materialize; emit the size parameters instead so the
        # instance can still be analyzed
        params = nano_size_params(command.nano)
        doc = {"kind": "size-params", **_params_doc(params)}
        _write(command.output_path, canonical_json(doc))
        print(
            f"above capacity ({err.measured} > {err.cap} keys); wrote size "
            f"parameters to {command.output_path}"
        )
        return 0
    _write(command.output_path, serialize_model(model))
    print(
        f"wrote lifted-decpomdp with {len(model.states)} states and "
        f"{len(model.partitioning.blocks)} partitions to {command.output_path}"
    )
    return 0


def _lift_chain(model: GroundDecPomdp) -> LiftedDecPomdp:
    return lift(model, symmetry_refine(model, range_partition(model)))


def _cmd_lift(command: Command) -> int:
    model = parse_model(_read(command.input_path))
    if not isinstance(model, GroundDecPomdp):
        raise InvalidParams("lift needs a decpomdp document")
    lifted = _lift_chain(model)
    _write(command.output_path, serialize_model(lifted))
    sizes = ", ".join(str(s) for s in lifted.partitioning.sizes)
    print(
        f"lifted {len(model.agents)} agents into "
        f"{len(lifted.partitioning.blocks)} partitions (sizes {sizes}); "
        f"wrote {command.output_path}"
    )
    return 0


def _cmd_ground(command: Command) -> int:
    model = parse_model(_read(command.input_path))
    if not isinstance(model, LiftedDecPomdp):
        raise InvalidParams("ground needs a lifted-decpomdp document")
    expanded = ground(model, cap=command.cap_joint)
    _write(command.output_path, serialize_model(expanded))
    print(
        f"grounded to {len(expanded.agents)} agents; wrote {command.output_path}"
    )
    return 0


def _solve_mdp(model: Mdp, command: Command):
    table, policy = mdp_value_iteration(model, epsilon=command.epsilon)
    doc = {
        "kind": "solution",
        "model_kind": "mdp",
        "epsilon": command.epsilon,
        "iterations": table.iterations,
        "converged": table.converged,
        "values": table.values,
        "policy": policy,
    }
    lines = [
        f"value iteration: {table.iterations} sweeps, "
        f"converged={'yes' if table.converged else 'no'}"
    ]
    for state in model.states:
        lines.append(
            f"  {state}: value {_fmt(table.values[state])}, play {policy[state]}"
        )
    return doc, lines


def _solve_pomdp(model: Pomdp, command: Command):
    stats: list = []
    vectors = pomdp_plan_iteration(
        model, command.horizon, cap_plans=command.cap_plans, stats=stats
    )
    doc = {
        "kind": "solution",
        "model_kind": "pomdp",
        "horizon": command.horizon,
        "vectors": [
            {
                "plan": _plan_doc(v.plan, model.observations),
                "alpha": {s: float(a) for s, a in zip(model.states, v.alpha)},
            }
            for v in vectors
        ],
        "statistics": [
            {"depth": d + 1, "generated": g, "surviving": s}
            for d, (g, s) in enumerate(stats)
        ],
    }
    lines = [f"plan iteration to horizon {command.horizon}:"]
    for d, (g, s) in enumerate(stats):
        lines.append(f"  depth {d + 1}: {g} candidates, {s} undominated")
    lines.append(f"{len(vectors)} value vectors survive")
    return doc, lines


def _policy_doc(result, names, obs_ranges, role):
    return [
        {
            role: names[k],
            "plans": [
                {"count": count, "plan": _plan_doc(plan, obs_ranges[k])}
                for plan, count in result.policy.plans[k]
            ],
        }
        for k in range(len(names))
    ]


def _policy_lines(result, names, obs_ranges):
    lines = []
    for k, name in enumerate(names):
        parts = ", ".join(
            (f"{count}x " if count != 1 else "") + _plan_text(plan, obs_ranges[k])
            for plan, count in result.policy.plans[k]
        )
        lines.append(f"  {name}: {parts}")
    return lines


def _solve_team(model, command: Command):
    if command.horizon is None:
        raise InvalidParams("solve needs --horizon for this model kind")
    if isinstance(model, LiftedDecPomdp):
        result = lifted_exhaustive(
            model,
            command.horizon,
            peak_only=command.peak_only,
            cap_plans=command.cap_plans,
            cap_joint=command.cap_joint,
        )
        names = model.partition_names
        obs_ranges = model.partitioning.observation_ranges
        role = "partition"
    else:
        result = decpomdp_exhaustive(
            model,
            command.horizon,
            cap_plans=command.cap_plans,
            cap_joint=command.cap_joint,
        )
        names = model.agents
        obs_ranges = tuple(model.observations[a] for a in model.agents)
        role = "agent"
    doc = {
        "kind": "solution",
        "model_kind": _kind_name(model),
        "horizon": command.horizon,
        "value": result.value,
        "policy": _policy_doc(result, names, obs_ranges, role),
        "statistics": result.statistics,
    }
    lines = [f"optimal value at horizon {command.horizon}: {_fmt(result.value)}"]
    lines.extend(_policy_lines(result, names, obs_ranges))
    return doc, lines


def _cmd_solve(command: Command) -> int:
    model = parse_model(_read(command.input_path))
    if isinstance(model, (GroundDecPomdp, LiftedDecPomdp)):
        doc, lines = _solve_team(model, command)
    elif isinstance(model, Pomdp):
        if command.horizon is None:
            raise InvalidParams("solve needs --horizon for this model kind")
        doc, lines = _solve_pomdp(model, command)
    else:
        doc, lines = _solve_mdp(model, command)
    for line in lines:
        print(line)
    if command.output_path:
        _write(command.output_path, canonical_json(doc))
        print(f"wrote {command.output_path}")
    return 0


def _cmd_analyze_size(command: Command) -> int:
    if command.preset:
        preset = nano_paper_preset() if command.preset == "paper" else nano_desk_preset()
        params = nano_size_params(preset)
    else:
        params = params_from_model(parse_model(_read(command.input_path)))
    report = size_report(params)
    _print_size_table(params, report)
    if command.output_path:
        _write(command.output_path, canonical_json(_size_doc(params, report)))
        print(f"wrote {command.output_path}")
    return 0


def _cmd_verify_equivalence(command: Command) -> int:
    result = verify_equivalence(
        parse_model(_read(command.input_path)),
        command.horizon,
        cap_plans=command.cap_plans,
        cap_joint=command.cap_joint,
    )
    doc = {
        "kind": "equivalence-report",
        "horizon": command.horizon,
        "ground_value": result.ground_value,
        "lifted_value": result.lifted_value,
        "delta": result.delta,
        "pass": result.passed,
        "size_comparison": _size_doc(result.size_params, result.size_comparison),
    }
    print(f"ground value:  {_fmt(result.ground_value)}")
    print(f"lifted value:  {_fmt(result.lifted_value)}")
    print(f"difference:    {_fmt(result.delta)}")
    print(f"pass:          {'yes' if result.passed else 'no'}")
    if command.output_path:
        _write(command.output_path, canonical_json(doc))
        print(f"wrote {command.output_path}")
    return 0 if result.passed else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "gen-nano": _cmd_gen_nano,
    "lift": _cmd_lift,
    "ground": _cmd_ground,
    "solve": _cmd_solve,
    "analyze-size": _cmd_analyze_size,
    "verify-equivalence": _cmd_verify_equivalence,
}


def run(command: Command) -> int:
    """Execute one command; returns the process exit code."""
    try:
        return _HANDLERS[command.name](command)
    except CapacityExceeded as err:
        _fail(err)
        return 2
    except DecliftError as err:
        _fail(err)
        return 1
    except OSError as err:
        print(f"error [io]: {err}", file=sys.stderr)
        return 1


def _fail(err: DecliftError):
    detail = ""
    if (
        isinstance(err, CapacityExceeded)
        and err.measured is not None
        and str(err.measured) not in str(err)
    ):
        detail = f" (measured {err.measured}, cap {err.cap})"
    print(f"error [{err.code}]: {err}{detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # keep the exit-code taxonomy: usage problems are ordinary errors (1),
    # exit 2 is reserved for capacity
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error [usage]: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_cap_joint(sub):
    sub.add_argument(
        "--cap-joint",
        type=int,
        default=DEFAULT_JOINT_CAP,
        help="joint enumeration cap",
    )


def _add_caps(sub):
    sub.add_argument(
        "--cap-plans",
        type=int,
        default=DEFAULT_PLAN_CAP,
        help="per-range plan enumeration cap",
    )
    _add_cap_joint(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="declift", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="name", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("validate", help="check a model document")
    p.add_argument("input", help="model file")

    p = sub.add_parser("gen-nano", help="generate a nano-delivery instance")
    p.add_argument("--kappa", type=int, default=None, help="marker type count")
    p.add_argument("--iota", type=int, default=None, help="message type count")
    p.add_argument(
        "--partition-size", type=int, default=None, help="agents per partition"
    )
    p.add_argument(
        "--theta",
        type=float,
        default=None,
        help="release fraction required for assembly",
    )
    p.add_argument(
        "--rates", default=None, help="JSON file of rate and reward overrides"
    )
    p.add_argument(
        "--preset", choices=("paper", "desk"), default=None, help="named instance"
    )
    p.add_argument("--out", required=True, help="output model file")
    _add_cap_joint(p)

    p = sub.add_parser("lift", help="rewrite a ground team model over counts")
    p.add_argument("input", help="decpomdp file")
    p.add_argument("--out", required=True, help="output model file")

    p = sub.add_parser("ground", help="expand a lifted model to ground form")
    p.add_argument("input", help="lifted-decpomdp file")
    p.add_argument("--out", required=True, help="output model file")
    _add_cap_joint(p)

    p = sub.add_parser("solve", help="solve any model kind")
    p.add_argument("input", help="model file")
    p.add_argument("--horizon", type=int, default=None, help="plan depth")
    p.add_argument(
        "--epsilon", type=float, default=1e-6, help="value-iteration accuracy"
    )
    p.add_argument(
        "--peak-only",
        action="store_true",
        help="restrict partitions to one shared plan each",
    )
    p.add_argument("--out", default=None, help="write the solution document here")
    _add_caps(p)

    p = sub.add_parser("analyze-size", help="compare table sizes across forms")
    p.add_argument("input", nargs="?", default=None, help="model file")
    p.add_argument(
        "--preset", choices=("paper", "desk"), default=None, help="named instance"
    )
    p.add_argument("--out", default=None, help="write the size report here")

    p = sub.add_parser(
        "verify-equivalence",
        help="solve ground and lifted forms and compare optima",
    )
    p.add_argument("input", help="decpomdp or lifted-decpomdp file")
    p.add_argument("--horizon", type=int, required=True, help="plan depth")
    p.add_argument("--out", default=None, help="write the report here")
    _add_caps(p)

    return parser


def command_from_args(args: argparse.Namespace) -> Command:
    fields = {
        "name": args.name,
        "input_path": getattr(args, "input", None),
        "output_path": getattr(args, "out", None),
        "horizon": getattr(args, "horizon", None),
        "epsilon": getattr(args, "epsilon", 1e-6),
        "peak_only": getattr(args, "peak_only", False),
        "preset": getattr(args, "preset", None),
        "cap_plans": getattr(args, "cap_plans", DEFAULT_PLAN_CAP),
        "cap_joint": getattr(args, "cap_joint", DEFAULT_JOINT_CAP),
    }
    if args.name == "gen-nano":
        fields["nano"] = _nano_params_from_args(args)
    return Command(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = command_from_args(args)
    except CapacityExceeded as err:
        _fail(err)
        return 2
    except DecliftError as err:
        _fail(err)
        return 1
    except OSError as err:
        print(f"error [io]: {err}", file=sys.stderr)
        return 1
    return run(command)


if __name__ == "__main__":
    sys.exit(main())
