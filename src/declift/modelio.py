"""Model interchange format: parsing, validation, canonical serialization.

One JSON document describes one model.  Its `kind` field is the `kind`
of one model type (mdp, pomdp, decpomdp, lifted-decpomdp); transition
rows are listed as {state, action, next}, sensing as {state, row}.  Joint
action and observation keys are comma-joined label tuples in ground form
and pipe-joined count vectors like "[2,0]|[1,1]" in counting form.  Both
team kinds are read by one parser, and the emitter writes the fields all
kinds share once, then each kind's own.

Serialization is canonical so that result files diff cleanly and tests
can compare bytes: object keys sorted, table entries sorted by state and
key, floats printed with 17 significant digits (lossless for doubles),
zero probability entries omitted.  Parsing a canonical document and
serializing the result reproduces the document byte for byte.

Both directions work a table at a time, and a table holds each distinct
row once.  The transition table, the POMDP sensor table and the initial
belief are each read in two steps.  A screen checks the whole table at
once and only says whether it is clean: transition entries are objects
of exactly their three fields with string states and actions and no
(state, action) pair twice, their action texts parse, and every row is
an object of known labels and int or float values, none of them an
int beyond the float range.  The screen reads
the row objects into dense arrays a chunk at a time, keeping each
chunk's distinct rows; the table's distinct rows are canonicalised with
one `canonical_rows` call, and every entry whose row read to the same
float64 bytes gets the same distribution object (so 0.0 and -0.0 stay
apart).  A transition table is built straight from those row codes and
the interned state and key texts (`models.TransitionTable`).  Only when
the screen fails does an error pass read the entries in order, checking
each entry's fields, then its row, then its key, and raise the first
SchemaError, the one a row-by-row reader meets first; the text naming
where an entry sits is built on this pass only.  Key texts are parsed
once per distinct text.  The emitter encodes each distinct string,
float and key once, and the objects of one list share one head
(indented key and colon) per key, built once per key order met.  A
transition table is written from its columns: each distinct state, key
text and row is encoded once, and each entry fills one template.

Error taxonomy: ParseError for text that is not JSON or is nested too
deep to read, SchemaError for structure the grammar does not allow
(unknown fields, malformed keys, wrong arity, bad histogram sums),
ValidationError when the assembled model breaches a model invariant
(reported via validate_model).
"""

from __future__ import annotations

import functools
import itertools
import json
from operator import itemgetter

import numpy as np

from .counting import float_text, format_histogram_tuple_key, parse_histogram_tuple_key
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
    TransitionTable,
    _plain_numbers,
    canonical_rows,
    first_groups,
    intern,
    validate_model,
    void_rows,
)

# the fields every document has, those every team document adds, and each
# kind's own; the keys are the document kinds in the order errors list them
_SHARED_FIELDS = {"kind", "states", "discount", "transition", "reward"}
_TEAM_FIELDS = _SHARED_FIELDS | {"agents", "initial_belief", "sensor"}
_FIELDS = {
    Mdp.kind: _SHARED_FIELDS | {"actions"},
    Pomdp.kind: _SHARED_FIELDS | {"actions", "observations", "sensor"},
    GroundDecPomdp.kind: _TEAM_FIELDS | {"actions", "observations"},
    LiftedDecPomdp.kind: _TEAM_FIELDS | {"partitions"},
}
MODEL_KINDS = tuple(_FIELDS)


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

    Strings and floats are encoded once per distinct value.  Objects share
    their key heads (the indented, encoded key and its colon), built once
    per key order and indent met.
    """

    def __init__(self):
        self.strings = _Memo(json.encoder.encode_basestring_ascii)
        self.floats = _Memo(float_text)
        self.heads: dict = {}

    def key(self, key) -> str:
        return self.strings[key] if type(key) is str else json.dumps(key)

    def text(self, value, indent: str) -> str:
        if type(value) is str:
            return self.strings[value]
        if type(value) is float:
            return self.floats[value]
        if isinstance(value, dict):
            return self.object(value, indent)
        if isinstance(value, _TableText):
            return value.text(self, indent)
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner, text = indent + "  ", self.text
            body = ",\n".join([inner + text(item, inner) for item in value])
            return f"[\n{body}\n{indent}]"
        return _format_scalar(value)

    def object(self, value: dict, indent: str) -> str:
        if not value:
            return "{}"
        order = tuple(value), indent
        inner = indent + "  "
        head = self.heads.get(order)
        if head is None:
            head = self.heads[order] = [
                (k, f"{inner}{self.key(k)}: ") for k in _sorted_keys(value)
            ]
        text = self.text
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
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: integer beyond the float range") from None


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


def _check_dense_row(mapping, labels, where: str) -> None:
    """Raise the SchemaError a row-by-row reader meets first in this row."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object of probabilities")
    for label, value in mapping.items():
        if label not in labels:
            raise SchemaError(f"{where}: unknown label {label!r}")
        _number(value, f"{where}[{label!r}]")


_CHUNK_CELLS = 1 << 13  # dense cells read at a time


def _dense_table(mappings: list, labels) -> tuple[np.ndarray, np.ndarray] | None:
    """(codes, table): {label: number} row objects as distinct dense rows,
    or None when some object is not one (`_check_dense_row` says which).

    table holds one (labels-wide) row per distinct row and codes[i] is the
    row of mappings[i]; rows merge only when their float64 bytes are equal,
    so -0.0 stays apart from 0.0.  The objects are read a chunk of about
    `_CHUNK_CELLS` cells at a time, so the dense arrays stay small: a chunk
    is screened all at once (each an object, every label known, every
    value an int or a float), read into one dense array (which refuses an
    int beyond the float range), and only its distinct rows are kept.
    """
    index = {label: i for i, label in enumerate(labels)}
    step = max(1, _CHUNK_CELLS // max(1, len(index)))
    codes, tables = [], []
    for start in range(0, max(1, len(mappings)), step):
        chunk = mappings[start : start + step]
        try:
            # an unknown label reads as None, which no int array takes
            columns = np.fromiter(map(index.get, itertools.chain.from_iterable(chunk)), np.intp)
            values = list(itertools.chain.from_iterable(map(dict.values, chunk)))
        except TypeError:  # some row is not an object, or has an unknown label
            return None
        if not _plain_numbers(values):
            return None
        table = np.zeros((len(chunk), len(index)))
        try:
            table[np.repeat(np.arange(len(chunk)), list(map(len, chunk))), columns] = values
        except OverflowError:
            return None
        chunk_codes, table = _distinct_bytes(table)
        codes.append(chunk_codes + sum(map(len, tables)))
        tables.append(table)
    byte_codes, table = _distinct_bytes(np.concatenate(tables))
    return byte_codes[np.concatenate(codes)], table


def _distinct_bytes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, distinct rows) of a table, merging bit-identical rows only;
    the rows of a table with no cells stay apart."""
    if table.size == 0:
        return np.arange(len(table)), table
    first, codes = first_groups(void_rows(table))
    return codes, table[first]


def _distributions(table: np.ndarray) -> list[DiscreteDistribution]:
    """Canonical rows of a parsed table; failing rows are kept for validation."""
    probs, _reasons = canonical_rows(table)
    return [DiscreteDistribution(row) for row in probs]


def _belief(doc: dict, states: StateSpace, where: str) -> Belief:
    value = _field(doc, "initial_belief", where)
    dense = _dense_table([value], states)
    if dense is None:
        _check_dense_row(value, set(states), f"{where}.initial_belief")
    probs, _reasons = canonical_rows(dense[1])
    return Belief(states, probs[0])


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


_TRANSITION_FIELDS = {"state", "action", "next"}


def _screened_transitions(doc: dict, states: StateSpace, action_key) -> TransitionTable | None:
    """The transition table when all entries pass one screen at once, else None.

    The screen asks for objects of exactly the three fields, string states
    and actions, no (state, action) pair twice, action texts that
    `action_key` parses (each once, in order of first use) and rows that
    `_dense_table` reads.
    """
    value = doc.get("transition")
    if not (
        type(value) is list
        and {dict}.issuperset(map(type, value))
        and {len(_TRANSITION_FIELDS)}.issuperset(map(len, value))
    ):
        return None
    try:
        state_texts, action_texts, rows = (
            list(map(itemgetter(name), value)) for name in ("state", "action", "next")
        )
    except KeyError:
        return None
    if not ({str}.issuperset(map(type, state_texts)) and {str}.issuperset(map(type, action_texts))):
        return None
    state_labels, state_codes = intern(state_texts)
    texts, action_codes = intern(action_texts)
    pairs = np.sort(state_codes * len(texts) + action_codes)
    if (pairs[1:] == pairs[:-1]).any():
        return None
    try:
        keys = list(map(action_key.__getitem__, texts))
    except SchemaError:
        return None
    dense = _dense_table(rows, states)
    if dense is None:
        return None
    row_codes, table = dense
    return TransitionTable(
        state_labels, keys, _distributions(table), state_codes, action_codes, row_codes
    )


def _read_transitions(doc: dict, where: str, states: StateSpace, action_key) -> None:
    """Raise the first SchemaError met reading the transition entries one by
    one: each entry's fields, then its row, then its action key."""
    labels, seen = set(states), set()
    for i, entry in _table_entries(doc, "transition", where):
        entry_where = f"{where}.transition[{i}]"
        _no_unknown(entry, _TRANSITION_FIELDS, entry_where)
        state = _field(entry, "state", entry_where)
        action = _field(entry, "action", entry_where)
        if not isinstance(state, str) or not isinstance(action, str):
            raise SchemaError(f"{entry_where}: state and action must be strings")
        if (state, action) in seen:
            raise SchemaError(f"{entry_where}: duplicate row for ({state!r}, {action!r})")
        seen.add((state, action))
        _check_dense_row(_field(entry, "next", entry_where), labels, f"{entry_where}.next")
        action_key[action]


def _transition_table(doc: dict, states: StateSpace, where: str, action_key) -> TransitionTable:
    """The transition entries as a table keyed by (state, action_key(action text)).

    The entries are screened as one table (`_screened_transitions`); only
    when the screen fails are they read one by one (`_read_transitions`),
    which raises the first error.  `action_key` runs once per distinct
    action text.
    """
    action_key = _Memo(action_key)
    table = _screened_transitions(doc, states, action_key)
    if table is None:
        _read_transitions(doc, where, states, action_key)
    return table


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


def _pomdp_sensor(doc: dict, where: str, observations) -> dict:
    """{state: distribution} of a POMDP's sensor entries.

    The entries and their rows are screened as one table; only when the
    screen fails are they read one by one, which raises the first error.
    """
    try:
        entries = list(_sensor_entries(doc, where))
        dense = _dense_table([row for *_, row in entries], observations)
    except SchemaError:
        dense = None
    if dense is None:
        labels = set(observations)
        for row_where, _, row in _sensor_entries(doc, where):
            _check_dense_row(row, labels, row_where)
    codes, table = dense
    dists = _distributions(table)
    return {state: dists[code] for (_, state, _), code in zip(entries, codes.tolist())}


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
        try:
            probs = list(map(float, values)) if _plain_numbers(values) else None
        except OverflowError:
            probs = None
        if None in keys or probs is None:
            keys, probs = [], []
            for text, value in row.items():
                if text not in parsed:
                    parsed[text] = parse_key(text, row_where)
                keys.append(parsed[text])
                probs.append(_number(value, f"{row_where}[{text!r}]"))
        sensor[state] = dict(zip(keys, probs))
    return sensor


# ---------------------------------------------------------------------------
# per-kind parsers

def _parse_mdp(doc: dict, where: str):
    states = _state_space(doc, where)
    actions = _range_map(_field(doc, "actions", where), f"{where}.actions")
    transition = _transition_table(doc, states, where, str)
    reward = _reward(doc, where)
    discount = _number(_field(doc, "discount", where), f"{where}.discount")
    if where == Mdp.kind:
        return Mdp(states, actions, transition, reward, discount)

    observations = _str_list(
        _field(doc, "observations", where), f"{where}.observations"
    )
    sensor = _pomdp_sensor(doc, where, observations)
    return Pomdp(
        states, actions, transition, reward, discount, observations, sensor
    )


def _split_joint(arity: int, key: str, where: str) -> tuple[str, ...]:
    parts = tuple(key.split(","))
    if len(parts) != arity or not all(parts):
        raise SchemaError(
            f"{where}: joint key {key!r} must have {arity} comma-joined labels"
        )
    return parts


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


def _histogram_key(partitioning: Partitioning, ranges, key: str, where: str):
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


def _parse_team(doc: dict, where: str):
    """A team document, ground or lifted.

    The two kinds differ only in their two range fields (per-agent actions
    and observations, or partition names and the partitioning), in how a
    key text parses, and in the type built; everything else is read in the
    same order.
    """
    states = _state_space(doc, where)
    agents = _str_list(_field(doc, "agents", where), f"{where}.agents")
    if where == GroundDecPomdp.kind:
        team = GroundDecPomdp
        ranges = (
            _range_map(_field(doc, "actions", where), f"{where}.actions"),
            _range_map(_field(doc, "observations", where), f"{where}.observations"),
        )
        action_key = observation_key = functools.partial(_split_joint, len(agents))
    else:
        team = LiftedDecPomdp
        ranges = _parse_partitions(doc, agents, where)
        partitioning = ranges[1]
        action_key, observation_key = (
            functools.partial(_histogram_key, partitioning, key_ranges)
            for key_ranges in (partitioning.action_ranges, partitioning.observation_ranges)
        )
    transition = _transition_table(
        doc, states, where, lambda text: action_key(text, f"{where}.transition")
    )
    sensor = _sparse_sensor(doc, where, observation_key)
    return team(
        agents,
        states,
        *ranges,
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
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply to read") from None
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

    parse = _parse_mdp if kind in (Mdp.kind, Pomdp.kind) else _parse_team
    model = parse(doc, kind)

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


def _ranks(values) -> np.ndarray:
    """Each value's rank in sorted order; equal values share a rank."""
    rank = {value: i for i, value in enumerate(sorted(set(values)))}
    return np.array([rank[value] for value in values], dtype=np.int64)


class _TableText:
    """A transition table in a document, written from its columns.

    The entries are {"action", "next", "state"} objects in order of state
    and then key text.  Each distinct state, key text and row is encoded
    once, entries are ordered by the ranks of their state and key codes,
    and each entry is one format of those texts.
    """

    def __init__(self, table, labels, key_text):
        self.table, self.labels, self.key_text = table, labels, key_text

    def text(self, emitter: _Emitter, indent: str) -> str:
        table = self.table
        if not len(table):
            return "[]"
        inner = indent + "  "
        field = inner + "  "
        texts = list(map(self.key_text, table.actions))
        order = np.argsort(
            _ranks(table.states)[table.state_codes] * len(texts)
            + _ranks(texts)[table.action_codes],
            kind="stable",
        )
        states = [emitter.text(state, field) for state in table.states]
        actions = [emitter.text(text, field) for text in texts]
        rows = [emitter.text(_prob_map(self.labels, row.probs), field) for row in table.rows]
        head = f'{inner}{{\n{field}"action": '
        next_head, state_head = f',\n{field}"next": ', f',\n{field}"state": '
        tail = f"\n{inner}}}"
        body = ",\n".join([
            f"{head}{actions[a]}{next_head}{rows[r]}{state_head}{states[s]}{tail}"
            for s, a, r in zip(
                table.state_codes[order].tolist(),
                table.action_codes[order].tolist(),
                table.row_codes[order].tolist(),
            )
        ])
        return f"[\n{body}\n{indent}]"


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
    if not isinstance(model, (Mdp, GroundDecPomdp, LiftedDecPomdp)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {
        "kind": model.kind,
        "states": list(model.states),
        "discount": model.discount,
        "reward": dict(model.reward),
    }
    if isinstance(model, Mdp):
        doc["actions"] = {s: list(r) for s, r in model.actions.items()}
        doc["transition"] = _TableText(model.transition, model.states, str)
        if isinstance(model, Pomdp):
            doc["observations"] = list(model.observations)
            doc["sensor"] = [
                {"state": s, "row": _prob_map(model.observations, model.sensor[s].probs)}
                for s in sorted(model.sensor)
            ]
        return canonical_json(doc)
    doc["agents"] = list(model.agents)
    doc["initial_belief"] = _prob_map(model.states, model.initial_belief.probs)
    if isinstance(model, GroundDecPomdp):
        key_text = _joint_key
        doc["actions"] = {a: list(r) for a, r in model.actions.items()}
        doc["observations"] = {a: list(r) for a, r in model.observations.items()}
    else:
        key_text = format_histogram_tuple_key
        part = model.partitioning
        doc["partitions"] = [
            {
                "name": model.partition_names[k],
                "members": [model.agents[i] for i in part.blocks[k]],
                "actions": list(part.action_ranges[k]),
                "observations": list(part.observation_ranges[k]),
            }
            for k in range(len(part.blocks))
        ]
    doc["transition"] = _TableText(model.transition, model.states, key_text)
    doc["sensor"] = _team_sensor_list(model, key_text)
    return canonical_json(doc)
