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

Both directions work a table at a time, and a table holds each distinct
row once.  The parser reads every entry of a transition or dense sensor
table first and screens each row object's labels and value types; it
then stacks only the distinct rows into one (distinct rows x width)
array, canonicalises them with one `canonical_rows` call, and gives every
entry whose row read to the same float64 bytes the same distribution
object (so 0.0 and -0.0 stay apart).  The initial belief is a one-row
table on the same path.  Key texts are parsed once per distinct text.
A transition entry passes one screen (exactly its three fields, string
state and action, a new key), and the text naming where an entry sits
is built only for an entry that fails it.  When an entry or a row object
is malformed, the first one is read again on its own, so the SchemaError
raised is the one a row-by-row reader would meet first.  The emitter
encodes each distinct string, float and key once; the objects of one
list share one head (indented key and colon) per key, built once per
key order met; a dict of floats is a row, written in one join once per
object and indent and reused by identity before its values are looked
at, so a row shared by many entries is encoded once.

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
from .models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    LiftedDecPomdp,
    Mdp,
    Partitioning,
    Pomdp,
    StateSpace,
    _plain_numbers,
    canonical_rows,
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
        return float_text(float(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def float_text(value: float) -> str:
    """A float in 17 significant digits; -0.0 becomes 0.0 so the text round-trips."""
    return format(value + 0.0, ".17g")


def _sorted_keys(value: dict) -> list:
    """The keys of an object in canonical order; each must be a string."""
    if not {str}.issuperset(map(type, value)):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"cannot serialize object key {key!r}")
    return sorted(value)


class _Memo(dict):
    """Results of a one-argument function, computed once per argument.

    A call that raises stores nothing, so it raises again next time.
    """

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, arg):
        text = self[arg] = self.fn(arg)
        return text


class _Emitter:
    """One canonical_json call: the caches behind its text.

    Strings and floats are encoded once per distinct value.  The objects
    of one list share their key heads (the indented, encoded key and its
    colon), built once per key order met.  An object whose values are all
    floats is a row: its text is kept per object and indent, and a row
    met again is written from that text before its values are looked at,
    so a row shared by many table entries is encoded once.
    """

    def __init__(self):
        self.strings = _Memo(json.encoder.encode_basestring_ascii)
        self.floats = _Memo(float_text)
        self.rows: dict = {}

    def key(self, key) -> str:
        return self.strings[key] if type(key) is str else json.dumps(key)

    def text(self, value, indent: str) -> str:
        if type(value) is str:
            return self.strings[value]
        if type(value) is float:
            return self.floats[value]
        if isinstance(value, dict):
            return self.rows.get((id(value), indent)) or self.object(value, indent, {})
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = indent + "  "
            heads: dict = {}  # shared by the list's objects
            rows, text, obj = self.rows, self.text, self.object
            body = ",\n".join(
                [
                    inner
                    + (
                        rows.get((id(item), inner)) or obj(item, inner, heads)
                        if isinstance(item, dict)
                        else text(item, inner)
                    )
                    for item in value
                ]
            )
            return f"[\n{body}\n{indent}]"
        return _format_scalar(value)

    def object(self, value: dict, indent: str, heads: dict) -> str:
        """The text of an object not yet written as a row at this indent.

        `heads` holds the key heads of each key order met.
        """
        if not value:
            return "{}"
        order = tuple(value)
        head = heads.get(order)
        if head is None:
            inner = indent + "  "
            head = heads[order] = [(k, f"{inner}{self.key(k)}: ") for k in _sorted_keys(value)]
        if {float}.issuperset(map(type, value.values())):
            floats = self.floats
            body = ",\n".join([h + floats[value[k]] for k, h in head])
            # the object is alive for the whole call, so its id cannot be reused
            text = self.rows[(id(value), indent)] = f"{{\n{body}\n{indent}}}"
            return text
        inner, text = indent + "  ", self.text
        body = ",\n".join([h + text(value[k], inner) for k, h in head])
        return f"{{\n{body}\n{indent}}}"


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, 2-space indent."""
    return _Emitter().text(value, "") + "\n"


# ---------------------------------------------------------------------------
# parsing helpers

def _field(doc: dict, name: str, where: str):
    if name not in doc:
        raise SchemaError(f"{where}: missing field {name!r}")
    return doc[name]


def _no_unknown(doc: dict, allowed: set, where: str):
    if doc.keys() <= allowed:
        return
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


def _check_dense_row(mapping, index: dict, where: str) -> None:
    """Raise the SchemaError a row-by-row reader meets first in this row."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object of probabilities")
    for label, value in mapping.items():
        if label not in index:
            raise SchemaError(f"{where}: unknown label {label!r}")
        _number(value, f"{where}[{label!r}]")


def _dense_table(mappings: list, labels, where) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table): {label: number} row objects as distinct dense rows.

    table holds one (labels-wide) row per distinct row and codes[i] is the
    row of mappings[i]; rows merge only when their float64 bytes are equal,
    so -0.0 stays apart from 0.0.  Labels and value types are screened for
    every object, and the first object that fails is read again on its own,
    so the error raised is the first a row-by-row reader meets; `where(i)`
    names object i in errors.
    """
    index = {label: i for i, label in enumerate(labels)}
    groups: dict = {}  # items of a row without zeros, or its position
    codes, firsts = [], []  # group of each row; first row of each group
    for i, mapping in enumerate(mappings):
        if not (
            isinstance(mapping, dict)
            and mapping.keys() <= index.keys()
            and _plain_numbers(mapping.values())
        ):
            _check_dense_row(mapping, index, where(i))
        # equal items give equal bytes, except a zero's sign: such rows are
        # left to the byte comparison below
        group = i if 0 in mapping.values() else tuple(mapping.items())
        code = groups.setdefault(group, len(groups))
        if code == len(firsts):
            firsts.append(mapping)
        codes.append(code)
    columns, values, counts = [], [], []
    for mapping in firsts:
        columns.extend(map(index.get, mapping))
        values.extend(mapping.values())
        counts.append(len(mapping))
    table = np.zeros((len(firsts), len(index)))
    table[np.repeat(np.arange(len(firsts)), counts), columns] = values
    byte_codes, table = _distinct_bytes(table)
    return byte_codes[codes], table


def _distinct_bytes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, distinct rows) of a table, merging bit-identical rows only."""
    if table.size == 0:
        return np.arange(len(table)), table
    rows = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    _, first, codes = np.unique(rows, return_index=True, return_inverse=True)
    return codes.ravel(), table[first]


def _distributions(table: np.ndarray) -> list[DiscreteDistribution]:
    """Canonical rows of a parsed table; failing rows are kept for validation."""
    probs, _reasons = canonical_rows(table)
    return [DiscreteDistribution(row) for row in probs]


def _belief(doc: dict, states: StateSpace, where: str) -> Belief:
    value = _field(doc, "initial_belief", where)
    (code,), table = _dense_table([value], states, lambda _: f"{where}.initial_belief")
    probs, _reasons = canonical_rows(table)
    return Belief(states, probs[code])


def _reward(doc: dict, where: str) -> dict[str, float]:
    value = _field(doc, "reward", where)
    if not isinstance(value, dict):
        raise SchemaError(f"{where}.reward: expected an object")
    return {
        state: _number(r, f"{where}.reward[{state!r}]") for state, r in value.items()
    }


def _table_entries(doc: dict, field: str, where: str):
    """(position, entry) of each object in a table field's list."""
    value = _field(doc, field, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{field}: expected a list of entries")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}.{field}[{i}]: expected an object")
        yield i, entry


def _dense_rows(entries, labels, parse_key, where) -> dict:
    """{parse_key(key): distribution} of (key, row object) entries.

    The entries are read first and their distinct rows converted as one
    table; entries with bit-identical rows share one distribution.  A
    key is parsed after its entry's row is taken, and when reading an entry
    fails the rows taken before it are checked first, so errors come in the
    order a row-by-row reader meets them.  `where(i)` names the row object
    of entry i in errors.
    """
    keys, rows = [], []
    try:
        for key, row in entries:
            rows.append(row)
            keys.append(parse_key(key))
    except SchemaError:
        _dense_table(rows, labels, where)
        raise
    codes, table = _dense_table(rows, labels, where)
    dists = _distributions(table)
    return dict(zip(keys, map(dists.__getitem__, codes.tolist())))


_TRANSITION_FIELDS = {"state", "action", "next"}


def _transition_entry(entry: dict, seen: set, where: str):
    """((state, action), next object) of one transition entry, checked field by field."""
    _no_unknown(entry, _TRANSITION_FIELDS, where)
    state = _field(entry, "state", where)
    action = _field(entry, "action", where)
    if not isinstance(state, str) or not isinstance(action, str):
        raise SchemaError(f"{where}: state and action must be strings")
    if (state, action) in seen:
        raise SchemaError(f"{where}: duplicate row for ({state!r}, {action!r})")
    seen.add((state, action))
    return (state, action), _field(entry, "next", where)


def _transition_entries(doc: dict, where: str):
    """((state, action), next object) of each transition entry.

    An entry with exactly the three fields, two strings and a new key
    passes one screen; any other is read again field by field, which
    raises the error a field-by-field reader meets first.
    """
    seen: set = set()
    for i, entry in _table_entries(doc, "transition", where):
        if entry.keys() == _TRANSITION_FIELDS:
            key = entry["state"], entry["action"]
            if type(key[0]) is str and type(key[1]) is str and key not in seen:
                seen.add(key)
                yield key, entry["next"]
                continue
        yield _transition_entry(entry, seen, f"{where}.transition[{i}]")


def _transition_table(doc: dict, states: StateSpace, where: str, action_key) -> dict:
    """{(state, action_key(action text)): distribution} of the transition entries."""
    return _dense_rows(
        _transition_entries(doc, where),
        states,
        lambda key: (key[0], action_key(key[1])),
        lambda i: f"{where}.transition[{i}].next",
    )


def _sensor_entries(doc: dict, where: str):
    seen = set()
    for i, entry in _table_entries(doc, "sensor", where):
        entry_where = f"{where}.sensor[{i}]"
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
        yield f"{entry_where}.row", state, row


def _sparse_sensor(doc: dict, where: str, parse_key) -> dict:
    """Team sensor rows as {state: {parsed key: probability}}.

    `parse_key(text, where)` runs once per distinct key text; its results
    are shared by every row that uses the text.
    """
    parsed: dict = {}
    sensor = {}
    for row_where, state, row in _sensor_entries(doc, where):
        keys = list(map(parsed.get, row))
        values = list(row.values())
        if None in keys or not _plain_numbers(values):
            keys = []
            for text, value in row.items():
                if text not in parsed:
                    parsed[text] = parse_key(text, row_where)
                keys.append(parsed[text])
                _number(value, f"{row_where}[{text!r}]")
        sensor[state] = dict(zip(keys, map(float, values)))
    return sensor


# ---------------------------------------------------------------------------
# per-kind parsers

def _parse_mdp(doc: dict, kind: str):
    where = kind
    states = _state_space(doc, where)
    actions = _range_map(_field(doc, "actions", where), f"{where}.actions")
    transition = _transition_table(doc, states, where, lambda action: action)
    reward = _reward(doc, where)
    discount = _number(_field(doc, "discount", where), f"{where}.discount")
    if kind == "mdp":
        return Mdp(states, actions, transition, reward, discount)

    observations = _str_list(
        _field(doc, "observations", where), f"{where}.observations"
    )
    sensor = _dense_rows(
        ((state, row) for _, state, row in _sensor_entries(doc, where)),
        observations,
        lambda state: state,
        lambda i: f"{where}.sensor[{i}].row",
    )
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
    arity = len(agents)
    split_action = _Memo(lambda text: _split_joint(text, arity, f"{where}.transition"))
    transition = _transition_table(doc, states, where, split_action.__getitem__)
    sensor = _sparse_sensor(
        doc, where, lambda key, key_where: _split_joint(key, arity, key_where)
    )
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


def _histogram_key(key: str, partitioning: Partitioning, ranges, where: str):
    """Parse a histogram-tuple key and check it against the partitions."""
    counts = parse_histogram_tuple_key(key)
    if len(counts) != len(partitioning.blocks):
        raise SchemaError(
            f"{where}: key {key!r} has {len(counts)} histograms, expected "
            f"{len(partitioning.blocks)}"
        )
    sizes = partitioning.sizes
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
    return counts


def _parse_lifted(doc: dict):
    where = "lifted-decpomdp"
    states = _state_space(doc, where)
    agents = _str_list(_field(doc, "agents", where), f"{where}.agents")
    names, partitioning = _parse_partitions(doc, agents, where)

    def action_key(text):
        return _histogram_key(
            text, partitioning, partitioning.action_ranges, f"{where}.transition"
        )

    def observation_key(text, key_where):
        return _histogram_key(
            text, partitioning, partitioning.observation_ranges, key_where
        )

    transition = _transition_table(doc, states, where, _Memo(action_key).__getitem__)
    sensor = _sparse_sensor(doc, where, observation_key)
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

def _prob_map(labels, probs: np.ndarray) -> dict:
    return {label: p for label, p in zip(labels, probs.tolist()) if p != 0.0}


def _joint_key(joint: tuple[str, ...]) -> str:
    return ",".join(joint)


def _transition_list(model, states, key_fn) -> list:
    key_text = _Memo(key_fn)  # one text per distinct action key
    entries = []
    maps: dict = {}  # one "next" object per distribution object, shared
    for (state, action), dist in model.transition.items():
        row = maps.get(id(dist))
        if row is None:
            row = maps[id(dist)] = _prob_map(states, dist.probs)
        entries.append({"state": state, "action": key_text[action], "next": row})
    entries.sort(key=lambda e: (e["state"], e["action"]))
    return entries


def _team_sensor_list(model, key_fn) -> list:
    """Sensor entries of a team model; `key_fn` runs once per distinct key."""
    key_text = _Memo(key_fn)
    return [
        {
            "state": s,
            "row": {
                key_text[key]: float(p)
                for key, p in model.sensor[s].items()
                if float(p) != 0.0
            },
        }
        for s in sorted(model.sensor)
    ]


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
            "sensor": _team_sensor_list(model, _joint_key),
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
            "sensor": _team_sensor_list(model, format_histogram_tuple_key),
            "reward": dict(model.reward),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return canonical_json(doc)
