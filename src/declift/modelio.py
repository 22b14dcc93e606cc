"""Model interchange format: parsing, validation, canonical serialization.

One JSON document describes one model.  The `kind` field selects the
shape (mdp, pomdp, decpomdp, lifted-decpomdp); transition rows are listed
as {state, action, next}, sensing as {state, row}.  Joint action and
observation keys are comma-joined label tuples in ground form and
pipe-joined count vectors like "[2,0]|[1,1]" in counting form.

Serialization is canonical so that result files diff cleanly and tests
can compare bytes: object keys sorted, table entries sorted by state and
key, floats printed with 17 significant digits (lossless for doubles),
zero probability entries omitted.  Parsing a canonical document and
serializing the result reproduces the document byte for byte.

Error taxonomy: ParseError for text that is not JSON, SchemaError for
structure the grammar does not allow (unknown fields, malformed keys,
wrong arity, bad histogram sums), ValidationError when the assembled
model breaches a model invariant (reported via validate_model).
"""

from __future__ import annotations

import json

import numpy as np

from .counting import format_histogram_tuple_key, parse_histogram_tuple_key
from .errors import ParseError, SchemaError, ValidationError
from .lifting import LiftedDecPomdp, Partitioning
from .models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    Mdp,
    Pomdp,
    StateSpace,
    canonical_row,
    validate_model,
)

MODEL_KINDS = ("mdp", "pomdp", "decpomdp", "lifted-decpomdp")

_FIELDS = {
    "mdp": {"kind", "states", "actions", "discount", "transition", "reward"},
    "pomdp": {
        "kind",
        "states",
        "actions",
        "observations",
        "discount",
        "transition",
        "sensor",
        "reward",
    },
    "decpomdp": {
        "kind",
        "states",
        "agents",
        "actions",
        "observations",
        "discount",
        "initial_belief",
        "transition",
        "sensor",
        "reward",
    },
    "lifted-decpomdp": {
        "kind",
        "states",
        "agents",
        "partitions",
        "discount",
        "initial_belief",
        "transition",
        "sensor",
        "reward",
    },
}


# ---------------------------------------------------------------------------
# canonical emitter

def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # fold -0.0 into 0.0 so the text round-trips
        return format(float(value) + 0.0, ".17g")
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(value, indent: str, out: list):
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        inner = indent + "  "
        for i, key in enumerate(sorted(value)):
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(value[key], inner, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        inner = indent + "  "
        for i, item in enumerate(value):
            out.append(inner)
            _emit(item, inner, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(indent + "]")
    else:
        out.append(_format_scalar(value))


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, 2-space indent."""
    out: list = []
    _emit(value, "", out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing helpers

def _field(doc: dict, name: str, where: str):
    if name not in doc:
        raise SchemaError(f"{where}: missing field {name!r}")
    return doc[name]


def _no_unknown(doc: dict, allowed, where: str):
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown field {key!r}")


def _str_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: expected a list of strings")
    return tuple(value)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _range_map(value, where: str) -> dict[str, tuple[str, ...]]:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object of label lists")
    return {
        key: _str_list(ranges, f"{where}[{key!r}]") for key, ranges in value.items()
    }


def _state_space(doc: dict, where: str) -> StateSpace:
    labels = _str_list(_field(doc, "states", where), f"{where}.states")
    try:
        return StateSpace(labels)
    except ValueError as err:
        raise SchemaError(f"{where}.states: {err}") from None


def _dense_row(mapping, order, index: dict, where: str) -> np.ndarray:
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object of probabilities")
    row = np.zeros(len(order))
    for label, value in mapping.items():
        if label not in index:
            raise SchemaError(f"{where}: unknown label {label!r}")
        row[index[label]] = _number(value, f"{where}[{label!r}]")
    return row


def _distribution(row: np.ndarray) -> DiscreteDistribution:
    fixed, _reason = canonical_row(row)
    return DiscreteDistribution(row if fixed is None else fixed)


def _belief(doc: dict, states: StateSpace, where: str) -> Belief:
    index = {s: i for i, s in enumerate(states)}
    row = _dense_row(
        _field(doc, "initial_belief", where), states, index, f"{where}.initial_belief"
    )
    fixed, _reason = canonical_row(row)
    return Belief(states, row if fixed is None else fixed)


def _reward(doc: dict, where: str) -> dict[str, float]:
    value = _field(doc, "reward", where)
    if not isinstance(value, dict):
        raise SchemaError(f"{where}.reward: expected an object")
    return {
        state: _number(r, f"{where}.reward[{state!r}]") for state, r in value.items()
    }


def _table_entries(doc: dict, field: str, where: str):
    value = _field(doc, field, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{field}: expected a list of entries")
    for i, entry in enumerate(value):
        entry_where = f"{where}.{field}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{entry_where}: expected an object")
        yield entry_where, entry


def _transition_rows(doc: dict, states: StateSpace, where: str):
    index = {s: i for i, s in enumerate(states)}
    seen = set()
    for entry_where, entry in _table_entries(doc, "transition", where):
        _no_unknown(entry, {"state", "action", "next"}, entry_where)
        state = _field(entry, "state", entry_where)
        action = _field(entry, "action", entry_where)
        if not isinstance(state, str) or not isinstance(action, str):
            raise SchemaError(f"{entry_where}: state and action must be strings")
        if (state, action) in seen:
            raise SchemaError(
                f"{entry_where}: duplicate row for ({state!r}, {action!r})"
            )
        seen.add((state, action))
        row = _dense_row(
            _field(entry, "next", entry_where), states, index, f"{entry_where}.next"
        )
        yield state, action, _distribution(row)


def _sensor_entries(doc: dict, where: str):
    seen = set()
    for entry_where, entry in _table_entries(doc, "sensor", where):
        _no_unknown(entry, {"state", "row"}, entry_where)
        state = _field(entry, "state", entry_where)
        if not isinstance(state, str):
            raise SchemaError(f"{entry_where}: state must be a string")
        if state in seen:
            raise SchemaError(f"{entry_where}: duplicate sensor row for {state!r}")
        seen.add(state)
        row = _field(entry, "row", entry_where)
        if not isinstance(row, dict):
            raise SchemaError(f"{entry_where}.row: expected an object")
        yield entry_where, state, row


# ---------------------------------------------------------------------------
# per-kind parsers

def _parse_mdp(doc: dict, kind: str):
    where = kind
    states = _state_space(doc, where)
    actions = _range_map(_field(doc, "actions", where), f"{where}.actions")
    transition = {
        (state, action): dist
        for state, action, dist in _transition_rows(doc, states, where)
    }
    reward = _reward(doc, where)
    discount = _number(_field(doc, "discount", where), f"{where}.discount")
    if kind == "mdp":
        return Mdp(states, actions, transition, reward, discount)

    observations = _str_list(
        _field(doc, "observations", where), f"{where}.observations"
    )
    obs_index = {o: i for i, o in enumerate(observations)}
    sensor = {}
    for entry_where, state, row in _sensor_entries(doc, where):
        dense = _dense_row(row, observations, obs_index, f"{entry_where}.row")
        sensor[state] = _distribution(dense)
    return Pomdp(
        states, actions, transition, reward, discount, observations, sensor
    )


def _split_joint(key: str, arity: int, where: str) -> tuple[str, ...]:
    parts = tuple(key.split(","))
    if len(parts) != arity or not all(parts):
        raise SchemaError(
            f"{where}: joint key {key!r} must have {arity} comma-joined labels"
        )
    return parts


def _parse_decpomdp(doc: dict):
    where = "decpomdp"
    states = _state_space(doc, where)
    agents = _str_list(_field(doc, "agents", where), f"{where}.agents")
    actions = _range_map(_field(doc, "actions", where), f"{where}.actions")
    observations = _range_map(
        _field(doc, "observations", where), f"{where}.observations"
    )
    transition = {}
    for state, action, dist in _transition_rows(doc, states, where):
        joint = _split_joint(action, len(agents), f"{where}.transition")
        transition[(state, joint)] = dist
    sensor = {}
    for entry_where, state, row in _sensor_entries(doc, where):
        parsed = {}
        for key, value in row.items():
            joint = _split_joint(key, len(agents), f"{entry_where}.row")
            parsed[joint] = _number(value, f"{entry_where}.row[{key!r}]")
        sensor[state] = parsed
    return GroundDecPomdp(
        agents,
        states,
        actions,
        observations,
        transition,
        sensor,
        _reward(doc, where),
        _number(_field(doc, "discount", where), f"{where}.discount"),
        _belief(doc, states, where),
    )


def _parse_partitions(doc: dict, agents: tuple[str, ...], where: str):
    value = _field(doc, "partitions", where)
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}.partitions: expected a non-empty list")
    agent_index = {a: i for i, a in enumerate(agents)}
    names, blocks, action_ranges, observation_ranges = [], [], [], []
    for i, entry in enumerate(value):
        entry_where = f"{where}.partitions[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{entry_where}: expected an object")
        _no_unknown(
            entry, {"name", "members", "actions", "observations"}, entry_where
        )
        name = _field(entry, "name", entry_where)
        if not isinstance(name, str):
            raise SchemaError(f"{entry_where}.name: expected a string")
        members = _str_list(_field(entry, "members", entry_where), f"{entry_where}.members")
        for m in members:
            if m not in agent_index:
                raise SchemaError(f"{entry_where}.members: unknown agent {m!r}")
        names.append(name)
        blocks.append(tuple(agent_index[m] for m in members))
        action_ranges.append(
            _str_list(_field(entry, "actions", entry_where), f"{entry_where}.actions")
        )
        observation_ranges.append(
            _str_list(
                _field(entry, "observations", entry_where),
                f"{entry_where}.observations",
            )
        )
    try:
        partitioning = Partitioning(
            tuple(blocks), tuple(action_ranges), tuple(observation_ranges)
        )
    except ValueError as err:
        raise SchemaError(f"{where}.partitions: {err}") from None
    return tuple(names), partitioning


def _histogram_key(key: str, partitioning: Partitioning, where: str):
    parsed = parse_histogram_tuple_key(key)
    if len(parsed) != len(partitioning.blocks):
        raise SchemaError(
            f"{where}: key {key!r} has {len(parsed)} histograms, expected "
            f"{len(partitioning.blocks)}"
        )
    return parsed


def _check_histogram(counts, ranges, sizes, key: str, where: str):
    for k, c in enumerate(counts):
        if len(c) != len(ranges[k]):
            raise SchemaError(
                f"{where}: key {key!r} histogram {k} has {len(c)} counts, "
                f"expected {len(ranges[k])}"
            )
        if sum(c) != sizes[k]:
            raise SchemaError(
                f"{where}: key {key!r} histogram {k} sums to {sum(c)}, expected "
                f"partition size {sizes[k]}"
            )


def _parse_lifted(doc: dict):
    where = "lifted-decpomdp"
    states = _state_space(doc, where)
    agents = _str_list(_field(doc, "agents", where), f"{where}.agents")
    names, partitioning = _parse_partitions(doc, agents, where)
    sizes = partitioning.sizes
    transition = {}
    for state, action, dist in _transition_rows(doc, states, where):
        counts = _histogram_key(action, partitioning, f"{where}.transition")
        _check_histogram(
            counts, partitioning.action_ranges, sizes, action, f"{where}.transition"
        )
        transition[(state, counts)] = dist
    sensor = {}
    for entry_where, state, row in _sensor_entries(doc, where):
        parsed = {}
        for key, value in row.items():
            counts = _histogram_key(key, partitioning, f"{entry_where}.row")
            _check_histogram(
                counts,
                partitioning.observation_ranges,
                sizes,
                key,
                f"{entry_where}.row",
            )
            parsed[counts] = _number(value, f"{entry_where}.row[{key!r}]")
        sensor[state] = parsed
    return LiftedDecPomdp(
        agents,
        states,
        names,
        partitioning,
        transition,
        sensor,
        _reward(doc, where),
        _number(_field(doc, "discount", where), f"{where}.discount"),
        _belief(doc, states, where),
    )


def parse_model(text: str):
    """Parse one interchange document into a validated model.

    Raises ParseError, SchemaError, or ValidationError; the message names
    the offending field path (and the line for raw syntax errors).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"not valid JSON: {err.msg} at line {err.lineno} column {err.colno}"
        ) from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    kind = doc.get("kind")
    if kind is None:
        raise SchemaError("missing field 'kind'")
    if kind not in MODEL_KINDS:
        raise SchemaError(
            f"unknown kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}"
        )
    _no_unknown(doc, _FIELDS[kind], kind)

    if kind in ("mdp", "pomdp"):
        model = _parse_mdp(doc, kind)
    elif kind == "decpomdp":
        model = _parse_decpomdp(doc)
    else:
        model = _parse_lifted(doc)

    report = validate_model(model)
    if not report.ok:
        raise ValidationError(
            f"{kind} document breaks {len(report.violations)} invariant(s):\n"
            + str(report),
            report=report,
        )
    return model


# ---------------------------------------------------------------------------
# serialization

def _prob_map(labels, probs) -> dict:
    return {
        label: float(p) for label, p in zip(labels, probs) if float(p) != 0.0
    }


def _joint_key(joint: tuple[str, ...]) -> str:
    return ",".join(joint)


def _transition_list(model, states, key_fn) -> list:
    entries = []
    for (state, action), dist in model.transition.items():
        entries.append(
            {
                "state": state,
                "action": key_fn(action),
                "next": _prob_map(states, dist.probs),
            }
        )
    entries.sort(key=lambda e: (e["state"], e["action"]))
    return entries


def serialize_model(model) -> str:
    """Canonical interchange text for any supported model."""
    if isinstance(model, Pomdp):
        doc = {
            "kind": "pomdp",
            "states": list(model.states),
            "actions": {s: list(r) for s, r in model.actions.items()},
            "observations": list(model.observations),
            "discount": model.discount,
            "transition": _transition_list(model, model.states, lambda a: a),
            "sensor": [
                {
                    "state": s,
                    "row": _prob_map(model.observations, model.sensor[s].probs),
                }
                for s in sorted(model.sensor)
            ],
            "reward": dict(model.reward),
        }
    elif isinstance(model, Mdp):
        doc = {
            "kind": "mdp",
            "states": list(model.states),
            "actions": {s: list(r) for s, r in model.actions.items()},
            "discount": model.discount,
            "transition": _transition_list(model, model.states, lambda a: a),
            "reward": dict(model.reward),
        }
    elif isinstance(model, GroundDecPomdp):
        doc = {
            "kind": "decpomdp",
            "states": list(model.states),
            "agents": list(model.agents),
            "actions": {a: list(r) for a, r in model.actions.items()},
            "observations": {a: list(r) for a, r in model.observations.items()},
            "discount": model.discount,
            "initial_belief": _prob_map(model.states, model.initial_belief.probs),
            "transition": _transition_list(model, model.states, _joint_key),
            "sensor": [
                {
                    "state": s,
                    "row": {
                        _joint_key(jo): float(p)
                        for jo, p in model.sensor[s].items()
                        if float(p) != 0.0
                    },
                }
                for s in sorted(model.sensor)
            ],
            "reward": dict(model.reward),
        }
    elif isinstance(model, LiftedDecPomdp):
        part = model.partitioning
        doc = {
            "kind": "lifted-decpomdp",
            "states": list(model.states),
            "agents": list(model.agents),
            "partitions": [
                {
                    "name": model.partition_names[k],
                    "members": [model.agents[i] for i in part.blocks[k]],
                    "actions": list(part.action_ranges[k]),
                    "observations": list(part.observation_ranges[k]),
                }
                for k in range(len(part.blocks))
            ],
            "discount": model.discount,
            "initial_belief": _prob_map(model.states, model.initial_belief.probs),
            "transition": _transition_list(
                model, model.states, format_histogram_tuple_key
            ),
            "sensor": [
                {
                    "state": s,
                    "row": {
                        format_histogram_tuple_key(key): float(p)
                        for key, p in model.sensor[s].items()
                        if float(p) != 0.0
                    },
                }
                for s in sorted(model.sensor)
            ],
            "reward": dict(model.reward),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return canonical_json(doc)
