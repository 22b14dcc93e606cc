"""Command line driver.

One subcommand per capability: validate a model file, generate a nano
instance, lift or ground a team model, solve any model kind, compare
table sizes, and check that a lifted model and its ground expansion
agree on the optimal value.

Argparse describes each subcommand once, in `build_parser`: its
arguments, their defaults, which of them are required, and its handler,
which each subparser names with `set_defaults(handler=...)`.  `main`
parses, runs the value checks argparse cannot express (`_check_values`)
and hands the parsed namespace to the handler.  A handler writes its
files and returns its exit code and the lines it reports; `_exit_code`
prints them, so a reader that closes stdout early (`| head -2`) ends the
output quietly without losing a written file or the exit code.

Exit codes: 0 success, 1 for model or validation problems, 2 when an
enumeration would exceed its capacity cap.  Errors print one line on
stderr in the form `error [<code>]: <message>`.  Result documents are
canonical JSON, so repeated runs with identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import os
import sys

from .counting import DEFAULT_JOINT_CAP, DEFAULT_PLAN_CAP, float_text
from .errors import (
    CapacityExceeded,
    DecliftError,
    InvalidParams,
    SchemaError,
    ValidationError,
)

# The package's public names are attributes of this module too, each bound
# on its first use by `__getattr__`, and the handlers reach them through
# `_cli`, this module.  So a subcommand imports only the modules it runs
# (`analyze-size --preset` loads no numpy, `validate` no solver), and a
# wrapper set on one of these attributes is the function its handler calls.
_package = sys.modules[__package__]
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_package, name)
    return value


# the named nano instances: preset name -> the function that builds it
_PRESETS = {"paper": "nano_paper_preset", "desk": "nano_desk_preset"}


def _preset(name: str):
    return getattr(_cli, _PRESETS[name])()


# ---------------------------------------------------------------------------
# shared plumbing

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _kind_name(model) -> str:
    if isinstance(model, _cli.LiftedDecPomdp):
        return "lifted-decpomdp"
    if isinstance(model, _cli.GroundDecPomdp):
        return "decpomdp"
    if isinstance(model, _cli.Pomdp):
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


def _size_doc(params, report) -> dict:
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


def _size_table_lines(params, report) -> list[str]:
    rows = [
        ("ground", report.ground_transition, report.ground_sensor),
        ("lifted", report.lifted_transition, report.lifted_sensor),
        ("peak-shaped", report.peak_transition, report.peak_sensor),
    ]
    lines = [
        f"instance: {params.states} states, {params.agents} agents, "
        f"{params.partitions} partitions of {params.partition_size}",
        f"{'form':<12} {'log2(transition)':>20} {'log2(sensor)':>20}",
    ]
    for name, t, o in rows:
        lines.append(f"{name:<12} {float_text(t):>20} {float_text(o):>20}")
    counts = ", ".join(f"{a}/{o}" for a, o in report.exact_key_counts)
    lines.append(f"exact keys per partition (actions/observations): {counts}")
    return lines


def _with_document(args, doc, lines) -> list[str]:
    """Write `doc` to the optional `--out` file; the lines to report."""
    if not args.out:
        return lines
    _write(args.out, _cli.canonical_json(doc))
    return [*lines, f"wrote {args.out}"]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, lines for stdout)

def _cmd_validate(args):
    try:
        model = _cli.parse_model(_read(args.input))
    except ValidationError as err:
        return 1, [str(err.report if err.report is not None else err)]
    extra = ""
    if isinstance(model, _cli.LiftedDecPomdp):
        extra = f", {len(model.partitioning.blocks)} partitions"
    elif isinstance(model, _cli.GroundDecPomdp):
        extra = f", {len(model.agents)} agents"
    return 0, [f"ok: {_kind_name(model)} with {len(model.states)} states{extra}"]


# the generator fields the flags set; a rates file may set every other one
_FLAG_FIELDS = {"marker_types", "message_types", "partition_size", "release_threshold"}


def _nano_params_from_args(args):
    params = _preset(args.preset) if args.preset else _cli.NanoParams()
    if args.rates:
        try:
            rates = json.loads(_read(args.rates))
        except json.JSONDecodeError as err:
            raise SchemaError(f"rates file is not valid JSON: {err}") from None
        if not isinstance(rates, dict):
            raise SchemaError("rates file must hold one JSON object")
        fields = {f.name for f in dataclasses.fields(params)} - _FLAG_FIELDS
        unknown = set(rates) - fields
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


def _cmd_gen_nano(args):
    try:
        model = _cli.generate_nano(args.nano, cap=args.cap_joint)
    except CapacityExceeded as err:
        # too large to materialize; emit the size parameters instead so the
        # instance can still be analyzed
        params = _cli.nano_size_params(args.nano)
        doc = {"kind": "size-params", **_params_doc(params)}
        _write(args.out, _cli.canonical_json(doc))
        return 0, [
            f"above capacity ({err.measured} > {err.cap} keys); wrote size "
            f"parameters to {args.out}"
        ]
    _write(args.out, _cli.serialize_model(model))
    return 0, [
        f"wrote lifted-decpomdp with {len(model.states)} states and "
        f"{len(model.partitioning.blocks)} partitions to {args.out}"
    ]


def _lift_chain(model):
    return _cli.lift(model, _cli.symmetry_refine(model, _cli.range_partition(model)))


def _cmd_lift(args):
    model = _cli.parse_model(_read(args.input))
    if not isinstance(model, _cli.GroundDecPomdp):
        raise InvalidParams("lift needs a decpomdp document")
    lifted = _lift_chain(model)
    _write(args.out, _cli.serialize_model(lifted))
    sizes = ", ".join(str(s) for s in lifted.partitioning.sizes)
    return 0, [
        f"lifted {len(model.agents)} agents into "
        f"{len(lifted.partitioning.blocks)} partitions (sizes {sizes}); "
        f"wrote {args.out}"
    ]


def _cmd_ground(args):
    model = _cli.parse_model(_read(args.input))
    if not isinstance(model, _cli.LiftedDecPomdp):
        raise InvalidParams("ground needs a lifted-decpomdp document")
    expanded = _cli.ground(model, cap=args.cap_joint)
    _write(args.out, _cli.serialize_model(expanded))
    return 0, [f"grounded to {len(expanded.agents)} agents; wrote {args.out}"]


def _given(value, default):
    return default if value is None else value


def _solve_mdp(model, args):
    from .solvers import DEFAULT_EPSILON

    epsilon = _given(args.epsilon, DEFAULT_EPSILON)
    table, policy = _cli.mdp_value_iteration(model, epsilon=epsilon)
    doc = {
        "kind": "solution",
        "model_kind": "mdp",
        "epsilon": epsilon,
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
            f"  {state}: value {float_text(table.values[state])}, play {policy[state]}"
        )
    return doc, lines


def _solve_pomdp(model, args):
    stats: list = []
    vectors = _cli.pomdp_plan_iteration(
        model,
        args.horizon,
        cap_plans=_given(args.cap_plans, DEFAULT_PLAN_CAP),
        stats=stats,
    )
    doc = {
        "kind": "solution",
        "model_kind": "pomdp",
        "horizon": args.horizon,
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
    lines = [f"plan iteration to horizon {args.horizon}:"]
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


def _solve_team(model, args):
    caps = {
        "cap_plans": _given(args.cap_plans, DEFAULT_PLAN_CAP),
        "cap_joint": _given(args.cap_joint, DEFAULT_JOINT_CAP),
    }
    if isinstance(model, _cli.LiftedDecPomdp):
        result = _cli.lifted_exhaustive(
            model, args.horizon, peak_only=bool(args.peak_only), **caps
        )
        names = model.partition_names
        obs_ranges = model.partitioning.observation_ranges
        role = "partition"
    else:
        result = _cli.decpomdp_exhaustive(model, args.horizon, **caps)
        names = model.agents
        obs_ranges = tuple(model.observations[a] for a in model.agents)
        role = "agent"
    doc = {
        "kind": "solution",
        "model_kind": _kind_name(model),
        "horizon": args.horizon,
        "value": result.value,
        "policy": _policy_doc(result, names, obs_ranges, role),
        "statistics": result.statistics,
    }
    lines = [f"optimal value at horizon {args.horizon}: {float_text(result.value)}"]
    lines.extend(_policy_lines(result, names, obs_ranges))
    return doc, lines


# the optional flags `solve` reads for each model kind; the others default
# to None, so a given flag the kind does not read is refused
_SOLVE_FLAGS = {
    "mdp": ("epsilon",),
    "pomdp": ("horizon", "cap_plans"),
    "decpomdp": ("horizon", "cap_plans", "cap_joint"),
    "lifted-decpomdp": ("horizon", "peak_only", "cap_plans", "cap_joint"),
}


def _cmd_solve(args):
    model = _cli.parse_model(_read(args.input))
    kind = _kind_name(model)
    unread = [
        "--" + name.replace("_", "-")
        for name in ("horizon", "epsilon", "peak_only", "cap_plans", "cap_joint")
        if getattr(args, name) is not None and name not in _SOLVE_FLAGS[kind]
    ]
    if unread:
        raise InvalidParams(f"solve does not read {', '.join(unread)} on {kind} models")
    if kind == "mdp":
        doc, lines = _solve_mdp(model, args)
    elif args.horizon is None:
        raise InvalidParams("solve needs --horizon for this model kind")
    elif isinstance(model, _cli.Pomdp):
        doc, lines = _solve_pomdp(model, args)
    else:
        doc, lines = _solve_team(model, args)
    return 0, _with_document(args, doc, lines)


def _cmd_analyze_size(args):
    if args.preset:
        params = _cli.nano_size_params(_preset(args.preset))
    else:
        params = _cli.params_from_model(_cli.parse_model(_read(args.input)))
    report = _cli.size_report(params)
    lines = _size_table_lines(params, report)
    return 0, _with_document(args, _size_doc(params, report), lines)


def _cmd_verify_equivalence(args):
    result = _cli.verify_equivalence(
        _cli.parse_model(_read(args.input)),
        args.horizon,
        cap_plans=args.cap_plans,
        cap_joint=args.cap_joint,
    )
    doc = {
        "kind": "equivalence-report",
        "horizon": args.horizon,
        "ground_value": result.ground_value,
        "lifted_value": result.lifted_value,
        "delta": result.delta,
        "pass": result.passed,
        "size_comparison": _size_doc(result.size_params, result.size_comparison),
    }
    lines = [
        f"ground value:  {float_text(result.ground_value)}",
        f"lifted value:  {float_text(result.lifted_value)}",
        f"difference:    {float_text(result.delta)}",
        f"pass:          {'yes' if result.passed else 'no'}",
    ]
    return (0 if result.passed else 1), _with_document(args, doc, lines)


def _check_values(args) -> None:
    """The checks argparse cannot express, in the order they are reported.

    gen-nano builds its generator parameters first, so their own errors
    come before these.
    """
    if args.name == "gen-nano":
        args.nano = _nano_params_from_args(args)
    horizon = getattr(args, "horizon", None)
    if horizon is not None and horizon < 1:
        raise InvalidParams("horizon must be an integer >= 1")
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None and not epsilon > 0:
        raise InvalidParams("epsilon must be positive")
    caps = [getattr(args, name, None) for name in ("cap_plans", "cap_joint")]
    if any(cap is not None and cap < 1 for cap in caps):
        raise InvalidParams("caps must be positive")
    if args.name == "analyze-size" and bool(args.input) == bool(args.preset):
        raise InvalidParams("analyze-size needs a model path or --preset, not both")


def _exit_code(args) -> int:
    """The exit code of one parsed invocation; an error it raises is
    reported on stderr, its lines on stdout."""
    try:
        _check_values(args)
        code, lines = args.handler(args)
    except DecliftError as err:
        detail = ""
        if (
            isinstance(err, CapacityExceeded)
            and err.measured is not None
            and str(err.measured) not in str(err)
        ):
            detail = f" (measured {err.measured}, cap {err.cap})"
        print(f"error [{err.code}]: {err}{detail}", file=sys.stderr)
        return 2 if isinstance(err, CapacityExceeded) else 1
    except OSError as err:
        print(f"error [io]: {err}", file=sys.stderr)
        return 1
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout after taking what it wanted; the files are
        # written, and stdout now points at the null device so the
        # interpreter's last flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # keep the exit-code taxonomy: usage problems are ordinary errors (1),
    # exit 2 is reserved for capacity
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error [usage]: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_cap_joint(sub, default=DEFAULT_JOINT_CAP):
    sub.add_argument(
        "--cap-joint",
        type=int,
        default=default,
        help="joint enumeration cap",
    )


def _add_caps(sub, plans=DEFAULT_PLAN_CAP, joint=DEFAULT_JOINT_CAP):
    sub.add_argument(
        "--cap-plans",
        type=int,
        default=plans,
        help="per-range plan enumeration cap",
    )
    _add_cap_joint(sub, joint)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="declift", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="name", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("validate", help="check a model document")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("input", help="model file")

    p = sub.add_parser("gen-nano", help="generate a nano-delivery instance")
    p.set_defaults(handler=_cmd_gen_nano)
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
        "--preset", choices=_PRESETS, default=None, help="named instance"
    )
    p.add_argument("--out", required=True, help="output model file")
    _add_cap_joint(p)

    p = sub.add_parser("lift", help="rewrite a ground team model over counts")
    p.set_defaults(handler=_cmd_lift)
    p.add_argument("input", help="decpomdp file")
    p.add_argument("--out", required=True, help="output model file")

    p = sub.add_parser("ground", help="expand a lifted model to ground form")
    p.set_defaults(handler=_cmd_ground)
    p.add_argument("input", help="lifted-decpomdp file")
    p.add_argument("--out", required=True, help="output model file")
    _add_cap_joint(p)

    p = sub.add_parser("solve", help="solve any model kind")
    p.set_defaults(handler=_cmd_solve)
    p.add_argument("input", help="model file")
    # every optional flag defaults to None: `_cmd_solve` refuses one the
    # model kind does not read, and the solver call fills in its default
    p.add_argument("--horizon", type=int, default=None, help="plan depth")
    p.add_argument(
        "--epsilon", type=float, default=None, help="value-iteration accuracy"
    )
    p.add_argument(
        "--peak-only",
        action="store_true",
        default=None,
        help="restrict partitions to one shared plan each",
    )
    p.add_argument("--out", default=None, help="write the solution document here")
    _add_caps(p, plans=None, joint=None)

    p = sub.add_parser("analyze-size", help="compare table sizes across forms")
    p.set_defaults(handler=_cmd_analyze_size)
    p.add_argument("input", nargs="?", default=None, help="model file")
    p.add_argument(
        "--preset", choices=_PRESETS, default=None, help="named instance"
    )
    p.add_argument("--out", default=None, help="write the size report here")

    p = sub.add_parser(
        "verify-equivalence",
        help="solve ground and lifted forms and compare optima",
    )
    p.set_defaults(handler=_cmd_verify_equivalence)
    p.add_argument("input", help="decpomdp or lifted-decpomdp file")
    p.add_argument("--horizon", type=int, required=True, help="plan depth")
    p.add_argument("--out", default=None, help="write the report here")
    _add_caps(p)

    return parser


def _freeze_heap() -> None:
    """Run at exit: collect the young generations, then freeze the heap.

    The interpreter's shutdown collections would walk every object numpy
    and the parsed model left behind, 15-20 ms a process; frozen, they are
    skipped.  The library makes no reference cycles, so the young
    collection frees at most argparse's parser, and in a numpy-loading
    subcommand usually nothing; yet without it a `verify-equivalence`
    process peaks about 2.4 MiB higher, and a full or a generation-0
    collection in its place does not help either.  Why is not known.
    """
    gc.collect(1)
    gc.freeze()


def main(argv=None) -> int:
    # The collector stays on during the call: argparse's parser is the one
    # cyclic structure a call leaves, and an in-process caller owns its
    # collector.  Registering after unregistering keeps one exit hook
    # however often `main` runs.
    atexit.unregister(_freeze_heap)
    atexit.register(_freeze_heap)
    return _exit_code(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
