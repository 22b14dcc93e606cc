"""Interchange format: round trips, canonical form, error taxonomy."""

import dataclasses
import functools
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declift.counting import format_histogram_tuple_key, parse_histogram_tuple_key
from declift.errors import ParseError, SchemaError, ValidationError
from declift.lifting import ground
from declift.modelio import canonical_json, parse_model, serialize_model
from declift.models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    LiftedDecPomdp,
    TransitionTable,
    canonical_rows,
    validate_model,
)
from declift.nano import NanoParams, generate_nano, nano_desk_preset

from test_models import reference_report
from test_solvers import (
    count_based_team,
    lift_chain,
    random_lifted,
    random_mdp,
    random_pomdp,
    random_team,
)


def sample_models():
    rng = np.random.default_rng(7)
    team = count_based_team()
    return {
        "mdp": random_mdp(rng),
        "pomdp": random_pomdp(rng),
        "decpomdp": team,
        "lifted-decpomdp": lift_chain(team),
    }


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("kind", ["mdp", "pomdp", "decpomdp", "lifted-decpomdp"])
def test_round_trip_is_byte_identical(kind):
    model = sample_models()[kind]
    text = serialize_model(model)
    parsed = parse_model(text)
    assert type(parsed) is type(model)
    assert serialize_model(parsed) == text


def reference_transition_entries(model) -> list:
    """The transition entries of a model's document, built entry by entry
    from the table's items and sorted by state and key text."""
    if isinstance(model, LiftedDecPomdp):
        key_text = format_histogram_tuple_key
    elif isinstance(model, GroundDecPomdp):
        key_text = ",".join
    else:
        key_text = str
    entries = [
        {
            "action": key_text(key),
            "next": {s: p for s, p in zip(model.states, row.probs.tolist()) if p != 0.0},
            "state": state,
        }
        for (state, key), row in model.transition.items()
    ]
    return sorted(entries, key=lambda entry: (entry["state"], entry["action"]))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["mdp", "pomdp", "decpomdp", "lifted-decpomdp"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_tables_are_written_entry_for_entry(kind, seed, data):
    # a table written from its columns reads as the entry-by-entry
    # document, whatever order its entries were built in
    rng = np.random.default_rng(seed)
    model = {
        "mdp": lambda: random_mdp(rng, n_states=data.draw(st.integers(1, 4))),
        "pomdp": lambda: random_pomdp(rng, n_states=data.draw(st.integers(1, 3))),
        "decpomdp": lambda: random_team(rng, n_states=data.draw(st.integers(1, 3))),
        "lifted-decpomdp": lambda: random_lifted(
            rng, sizes=data.draw(st.sampled_from([(1,), (2,), (2, 1), (3,)]))
        ),
    }[kind]()
    entries = data.draw(st.permutations(list(model.transition.items())))
    if data.draw(st.booleans()):
        # equal rows as one object, as a parsed table holds them
        shared = {}
        entries = [(key, shared.setdefault(row.probs.tobytes(), row)) for key, row in entries]
    shuffled = dataclasses.replace(model, transition=dict(entries))
    text = serialize_model(shuffled)
    assert text == serialize_model(model)
    assert json.loads(text)["transition"] == reference_transition_entries(model)
    assert serialize_model(parse_model(text)) == text


def test_round_trip_random_lifted():
    rng = np.random.default_rng(21)
    model = random_lifted(rng, sizes=(2, 1))
    text = serialize_model(model)
    again = parse_model(text)
    assert serialize_model(again) == text
    assert validate_model(again).ok


def test_round_trip_nano_desk():
    model = generate_nano(nano_desk_preset())
    text = serialize_model(model)
    again = parse_model(text)
    assert serialize_model(again) == text
    assert again.transition.keys() == model.transition.keys()
    assert again.partitioning == model.partitioning


MODELS = Path(__file__).resolve().parent.parent / "models"


def _bundled(name):
    return (MODELS / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", ["nano_desk.json", "nano_desk_ground.json"])
def test_bundled_model_round_trips_byte_for_byte(name):
    text = _bundled(name)
    assert serialize_model(parse_model(text)) == text


def test_bundled_ground_model_is_the_expansion_of_the_lifted_one():
    lifted = parse_model(_bundled("nano_desk.json"))
    assert serialize_model(ground(lifted)) == _bundled("nano_desk_ground.json")


def test_bundled_lifted_model_is_the_desk_preset():
    text = serialize_model(generate_nano(nano_desk_preset()))
    assert text == _bundled("nano_desk.json")


def test_parsed_model_matches_original_tables():
    model = sample_models()["decpomdp"]
    again = parse_model(serialize_model(model))
    assert again.agents == model.agents
    assert again.states.labels == model.states.labels
    for key, dist in model.transition.items():
        assert np.allclose(again.transition[key].probs, dist.probs, atol=0)
    for state, row in model.sensor.items():
        for jo, p in row.items():
            assert again.sensor[state].get(jo, 0.0) == pytest.approx(p, abs=0)


def test_kind_field_selects_the_parser():
    models = sample_models()
    for kind, model in models.items():
        doc = json.loads(serialize_model(model))
        assert doc["kind"] == kind


# ---------------------------------------------------------------------------
# canonical emitter


def test_canonical_json_sorts_keys_and_keeps_list_order():
    text = canonical_json({"b": 1, "a": [3, 1, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.index("3") < text.index("1")


def test_canonical_json_float_formatting():
    assert canonical_json(0.1).strip() == "0.10000000000000001"
    assert canonical_json(1.0).strip() == "1"
    assert canonical_json(True).strip() == "true"
    # 17 significant digits reproduce the double exactly
    value = 0.1 + 0.2
    assert json.loads(canonical_json(value)) == value


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


@pytest.mark.parametrize(
    "value, key",
    [
        ({1: 2.0}, "1"),
        ({(1, 2): "a"}, "(1, 2)"),
        ({"a": {None: [1]}}, "None"),
        ({"a": 1.0, 2: 3.0}, "2"),
        ([{"b": 0.5}, {"c": {1.5: 1.0}}], "1.5"),
    ],
)
def test_canonical_json_rejects_keys_that_are_not_strings(value, key):
    # JSON object keys are strings; `1: 2` would not parse back
    with pytest.raises(TypeError, match=re.escape(f"key {key}")):
        canonical_json(value)


# ---------------------------------------------------------------------------
# error taxonomy


def test_malformed_json_is_a_parse_error_with_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_model('{"kind": "mdp",\n  "states": [}')


def test_top_level_must_be_object():
    with pytest.raises(SchemaError, match="top level"):
        parse_model("[1, 2]")


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError, match="unknown kind"):
        parse_model('{"kind": "hmm"}')
    with pytest.raises(SchemaError, match="kind"):
        parse_model("{}")


def test_unknown_field_rejected_by_name():
    doc = json.loads(serialize_model(sample_models()["mdp"]))
    doc["solver_hint"] = "fast"
    with pytest.raises(SchemaError, match="solver_hint"):
        parse_model(json.dumps(doc))


def test_initial_belief_not_allowed_on_single_agent_kinds():
    doc = json.loads(serialize_model(sample_models()["pomdp"]))
    doc["initial_belief"] = {"s0": 1.0}
    with pytest.raises(SchemaError, match="initial_belief"):
        parse_model(json.dumps(doc))


def test_missing_field_rejected():
    doc = json.loads(serialize_model(sample_models()["mdp"]))
    del doc["reward"]
    with pytest.raises(SchemaError, match="reward"):
        parse_model(json.dumps(doc))


def test_duplicate_transition_row_rejected():
    doc = json.loads(serialize_model(sample_models()["mdp"]))
    doc["transition"].append(dict(doc["transition"][0]))
    with pytest.raises(SchemaError, match="duplicate"):
        parse_model(json.dumps(doc))


def test_unknown_next_state_rejected():
    doc = json.loads(serialize_model(sample_models()["mdp"]))
    doc["transition"][0]["next"] = {"nowhere": 1.0}
    with pytest.raises(SchemaError, match="nowhere"):
        parse_model(json.dumps(doc))


def test_joint_key_arity_checked():
    doc = json.loads(serialize_model(sample_models()["decpomdp"]))
    entry = doc["transition"][0]
    entry["action"] = entry["action"].split(",")[0]  # drop one agent
    with pytest.raises(SchemaError, match="comma-joined"):
        parse_model(json.dumps(doc))


def test_histogram_key_with_wrong_sum_rejected():
    doc = json.loads(serialize_model(sample_models()["lifted-decpomdp"]))
    entry = doc["transition"][0]
    key = entry["action"]
    # bump the first count so the histogram no longer sums to the block size
    first = int(key[1:].split(",")[0].rstrip("]"))
    entry["action"] = key.replace(f"[{first}", f"[{first + 1}", 1)
    with pytest.raises(SchemaError, match="sums to"):
        parse_model(json.dumps(doc))


def test_histogram_key_with_wrong_width_rejected():
    doc = json.loads(serialize_model(sample_models()["lifted-decpomdp"]))
    entry = doc["transition"][0]
    entry["action"] = "[2,0,0]|" + entry["action"].split("|", 1)[1] \
        if "|" in entry["action"] else "[2,0,0]"
    with pytest.raises(SchemaError):
        parse_model(json.dumps(doc))


def test_malformed_histogram_key_rejected():
    doc = json.loads(serialize_model(sample_models()["lifted-decpomdp"]))
    doc["transition"][0]["action"] = "[2,]"
    with pytest.raises(SchemaError):
        parse_model(json.dumps(doc))


def test_unknown_partition_member_rejected():
    doc = json.loads(serialize_model(sample_models()["lifted-decpomdp"]))
    doc["partitions"][0]["members"][0] = "ghost"
    with pytest.raises(SchemaError, match="ghost"):
        parse_model(json.dumps(doc))


def _put(path, value):
    """An edit of a document that sets the field at `path` to `value`."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


GROUND, LIFTED = "nano_desk_ground.json", "nano_desk.json"


@pytest.mark.parametrize(
    "name, edit, message",
    [
        (
            GROUND,
            _put(["transition", 0, "state"], 3),
            "decpomdp.transition[0]: state and action must be strings",
        ),
        (GROUND, _put(["sensor", 0, "state"], 3), "decpomdp.sensor[0]: state must be a string"),
        (
            GROUND,
            lambda doc: doc["sensor"].insert(8, doc["sensor"][0]),
            "decpomdp.sensor[8]: duplicate sensor row for 'mk0_ms0_rl0'",
        ),
        (GROUND, _put(["sensor", 0, "row"], [1]), "decpomdp.sensor[0].row: expected an object"),
        (
            LIFTED,
            _put(["partitions"], []),
            "lifted-decpomdp.partitions: expected a non-empty list",
        ),
        (LIFTED, _put(["partitions", 0], 3), "lifted-decpomdp.partitions[0]: expected an object"),
        (
            LIFTED,
            _put(["partitions", 0, "name"], 3),
            "lifted-decpomdp.partitions[0].name: expected a string",
        ),
        (
            LIFTED,
            _put(["partitions", 1, "members"], ["sensor0_0"]),
            "lifted-decpomdp.partitions: partition blocks must be disjoint",
        ),
        (
            LIFTED,
            _put(["transition", 0, "action"], "[1,0]"),
            "lifted-decpomdp.transition: key '[1,0]' has 1 histograms, expected 2",
        ),
        (LIFTED, _put(["states"], [1, 2]), "lifted-decpomdp.states: expected a list of strings"),
        (
            LIFTED,
            lambda doc: doc["states"].append(doc["states"][0]),
            "lifted-decpomdp.states: state labels must be unique",
        ),
        (LIFTED, _put(["reward"], [1]), "lifted-decpomdp.reward: expected an object"),
        (
            LIFTED,
            _put(["transition"], {}),
            "lifted-decpomdp.transition: expected a list of entries",
        ),
        (LIFTED, _put(["transition", 0], 3), "lifted-decpomdp.transition[0]: expected an object"),
        (GROUND, _put(["actions"], []), "decpomdp.actions: expected an object of label lists"),
    ],
)
def test_a_bundled_model_with_one_broken_field_is_a_schema_error(name, edit, message):
    doc = json.loads(_bundled(name))
    edit(doc)
    with pytest.raises(SchemaError) as err:
        parse_model(json.dumps(doc))
    assert str(err.value) == message


def test_discount_out_of_range_is_a_validation_error():
    doc = json.loads(serialize_model(sample_models()["mdp"]))
    doc["discount"] = 1.5
    with pytest.raises(ValidationError, match="discount"):
        parse_model(json.dumps(doc))


def test_validation_error_carries_the_report():
    doc = json.loads(serialize_model(sample_models()["mdp"]))
    doc["discount"] = 1.5
    try:
        parse_model(json.dumps(doc))
    except ValidationError as err:
        assert err.report is not None
        assert any(v.code == "discount" for v in err.report.violations)
    else:
        pytest.fail("expected a ValidationError")


# ---------------------------------------------------------------------------
# row normalization on load


def _tiny_mdp_doc(p0, p1):
    return json.dumps(
        {
            "kind": "mdp",
            "states": ["s0", "s1"],
            "actions": {"s0": ["go"], "s1": ["go"]},
            "discount": 0.9,
            "transition": [
                {"state": "s0", "action": "go", "next": {"s0": p0, "s1": p1}},
                {"state": "s1", "action": "go", "next": {"s1": 1.0}},
            ],
            "reward": {"s0": 1.0, "s1": 0.0},
        }
    )


def test_near_normalized_row_is_renormalized():
    model = parse_model(_tiny_mdp_doc(0.5, 0.5 + 2e-10))
    row = model.transition[("s0", "go")]
    assert row.mass() == pytest.approx(1.0, abs=1e-15)


def test_row_off_by_too_much_is_rejected():
    with pytest.raises(ValidationError, match="normalization|row"):
        parse_model(_tiny_mdp_doc(0.5, 0.4))


def test_negative_probability_rejected():
    with pytest.raises(ValidationError):
        parse_model(_tiny_mdp_doc(1.1, -0.1))


# ---------------------------------------------------------------------------
# table-at-a-time I/O against the row-by-row originals


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["mdp", "pomdp", "decpomdp", "decpomdp-lifted", "lifted-decpomdp"]),
    n_states=st.integers(1, 4),
    sizes=st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 1, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_serialize_parse_serialize_is_byte_identical(kind, n_states, sizes, seed):
    rng = np.random.default_rng(seed)
    model = {
        "mdp": lambda: random_mdp(rng, n_states=n_states, n_actions=1 + seed % 3),
        "pomdp": lambda: random_pomdp(rng, n_states=n_states, n_obs=1 + seed % 3),
        "decpomdp": lambda: random_team(rng, n_states=n_states),
        "decpomdp-lifted": lambda: ground(random_lifted(rng, sizes=sizes)),
        "lifted-decpomdp": lambda: random_lifted(
            rng, sizes=sizes, observations=("o", "n", "m")[: 1 + seed % 3]
        ),
    }[kind]()
    text = serialize_model(model)
    assert serialize_model(parse_model(text)) == text


def _reference_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value) + 0.0, ".17g")
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_emit(value, indent, out):
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"cannot serialize object key {key!r}")
        out.append("{\n")
        inner = indent + "  "
        for i, key in enumerate(sorted(value)):
            out.append(f"{inner}{json.dumps(key)}: ")
            _reference_emit(value[key], inner, out)
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
            _reference_emit(item, inner, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(indent + "]")
    else:
        out.append(_reference_scalar(value))


def reference_json(value) -> str:
    """The recursive emitter `canonical_json` replaced, kept as its reference."""
    out = []
    _reference_emit(value, "", out)
    out.append("\n")
    return "".join(out)


json_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]
)
json_scalars = (
    st.booleans()
    | st.none()
    | st.integers(-(2**70), 2**70)
    | st.integers(-(2**62), 2**62).map(np.int64)
    | json_floats
    | json_floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.text()
    | st.sampled_from(
        ['"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f", "ünï 日本 🎲"]
    )
)
json_keys = st.text() | st.sampled_from(["", '"', "\\", "é", "\n"])
float_rows = st.dictionaries(json_keys, json_floats, max_size=6)
json_values = st.recursive(
    json_scalars | float_rows,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(value=json_values, shared=float_rows)
def test_canonical_json_matches_the_recursive_emitter(value, shared):
    assert canonical_json(value) == reference_json(value)
    # one float row object at several places and indents is emitted once
    # per indent, with the same text as emitting each occurrence
    doc = {"a": shared, "b": [shared, {"c": shared}], "d": value, "e": [[shared]]}
    assert canonical_json(doc) == reference_json(doc)


record_keys = st.lists(
    st.sampled_from(["state", "action", "next", "row", "", "é"]), max_size=4, unique=True
)


@st.composite
def record_lists(draw):
    """Documents whose lists hold objects over a few key sets.

    Objects of one key set come with their keys inserted in different
    orders; the lists also hold empty objects, scalars and one float row
    object that appears at two indents, and one row holds a non-float.
    One object may get a key that is not a string.
    """
    shared = draw(float_rows.filter(bool))
    key_sets = draw(st.lists(record_keys, min_size=1, max_size=3))
    values = json_scalars | float_rows | st.just(shared)
    items = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["object", "object", "empty", "scalar", "row"]))
        if kind == "object":
            keys = draw(st.permutations(draw(st.sampled_from(key_sets))))
            items.append({key: draw(values) for key in keys})
        elif kind == "empty":
            items.append({})
        elif kind == "scalar":
            items.append(draw(json_scalars))
        else:
            items.append(shared)
    mixed = dict(shared)
    mixed[draw(json_keys)] = draw(st.integers(-5, 5) | st.none() | st.text(max_size=3))
    doc = {"list": items, "rows": [shared, {"next": shared}], "mixed": [mixed, shared]}
    if draw(st.booleans()):
        objects = [item for item in items if isinstance(item, dict) and item is not shared]
        target = draw(st.sampled_from(objects)) if objects else mixed
        entries = list(target.items())
        bad = draw(st.sampled_from([1, 1.5, None, (1, 2)]))
        entries.insert(draw(st.integers(0, len(entries))), (bad, 0.5))
        target.clear()
        target.update(entries)
    return doc


def emitted(emit, value):
    """The text an emitter writes, or the TypeError it raises."""
    try:
        return emit(value)
    except TypeError as err:
        return "TypeError", str(err)


@settings(max_examples=150, deadline=None)
@given(doc=record_lists())
def test_canonical_json_lists_of_objects_match_the_recursive_emitter(doc):
    assert emitted(canonical_json, doc) == emitted(reference_json, doc)


def test_canonical_json_edge_values_match_the_recursive_emitter():
    row = {"p": 0.25, "q": -0.0, "r": 5e-324}
    values = [
        True, False, None, 0, -7, 2**80, np.int64(-3), np.uint8(200), 0.0, -0.0,
        5e-324, 1e308, -1e308, float("inf"), np.float64(0.1), np.float32(0.1),
        "ünïcode ✓", 'q"uote\\', "\t\n\x01", [], {}, (), [[]], {"": {}},
        {"n": [row, row, {"x": row}], "m": row}, (1, "two", 3.0, None),
    ]
    for value in values:
        assert canonical_json(value) == reference_json(value)
    assert canonical_json(values) == reference_json(values)


@pytest.mark.parametrize(
    "edits, message",
    [
        # a bad row before a bad entry is reported first, and the reverse
        (
            {1: {"next": {"s0": 0.5, "zz": 0.5}}, 3: {"extra": 1}},
            "transition[1].next: unknown label 'zz'",
        ),
        (
            {1: {"extra": 1}, 3: {"next": {"s0": 0.5, "zz": 0.5}}},
            "transition[1]: unknown field 'extra'",
        ),
        ({2: {"next": {"s0": "half"}}}, "transition[2].next['s0']: expected a number, got 'half'"),
        ({2: {"next": {"s0": True}}}, "transition[2].next['s0']: expected a number, got True"),
        ({2: {"next": [0.5]}}, "transition[2].next: expected an object of probabilities"),
        # within one row, the first bad entry wins
        ({0: {"next": {"s0": "x", "zz": 1.0}}}, "transition[0].next['s0']: expected a number"),
        ({0: {"next": {"zz": 1.0, "s0": "x"}}}, "transition[0].next: unknown label 'zz'"),
        # a bad row is reported before a later entry's malformed action key
        ({0: {"next": {"zz": 1.0}}, 1: {"action": "x"}}, "transition[0].next: unknown label 'zz'"),
        (
            {0: {"action": "x"}, 1: {"next": {"zz": 1.0}}},
            "joint key 'x' must have 2 comma-joined labels",
        ),
        # an entry's own row comes before its action key
        ({0: {"action": "x", "next": {"zz": 1.0}}}, "transition[0].next: unknown label 'zz'"),
        ({0: {"next": None}}, "transition[0].next: expected an object of probabilities"),
        # a value that cannot be hashed cannot join a group of equal rows
        ({2: {"next": {"s0": [0.5]}}}, "transition[2].next['s0']: expected a number, got [0.5]"),
        # a field name replaces that field of the document
        ({"initial_belief": {"zz": 1.0}}, "decpomdp.initial_belief: unknown label 'zz'"),
        ({"initial_belief": [1.0]}, "decpomdp.initial_belief: expected an object of probabilities"),
        # an int beyond the float range is a schema error where it is met first
        ({2: {"next": {"s0": 10**400}}}, "transition[2].next['s0']: integer beyond the float range"),
        (
            {1: {"next": {"s0": 10**400}}, 3: {"extra": 1}},
            "transition[1].next['s0']: integer beyond the float range",
        ),
        ({1: {"extra": 1}, 3: {"next": {"s0": 10**400}}}, "transition[1]: unknown field 'extra'"),
        ({"initial_belief": {"s0": 10**400}}, "decpomdp.initial_belief['s0']: integer beyond"),
        ({"reward": {"s0": 0.0, "s1": -(10**400)}}, "decpomdp.reward['s1']: integer beyond"),
        ({"discount": 10**400}, "decpomdp.discount: integer beyond the float range"),
    ],
)
def test_schema_errors_come_in_row_by_row_order(edits, message):
    doc = json.loads(serialize_model(random_team(np.random.default_rng(3))))
    for i, change in edits.items():
        if isinstance(i, str):
            doc[i] = change
        else:
            doc["transition"][i].update(change)
    with pytest.raises(SchemaError) as err:
        parse_model(json.dumps(doc))
    assert message in str(err.value)


@pytest.mark.parametrize(
    "row, message",
    [
        ({"o,o": "x", "q": 0.5}, "sensor[1].row['o,o']: expected a number"),
        ({"q": "x", "o,o": 0.5}, "sensor[1].row: joint key 'q' must have 2"),
        ({"o,o": 0.5, "o,n": None}, "sensor[1].row['o,n']: expected a number, got None"),
        ({"o,o": 10**400, "q": 0.5}, "sensor[1].row['o,o']: integer beyond the float range"),
    ],
)
def test_sensor_schema_errors_come_in_entry_order(row, message):
    # the second row, whose keys the first row has already parsed
    doc = json.loads(serialize_model(random_team(np.random.default_rng(3))))
    doc["sensor"][1]["row"] = row
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize(
    "edits, message",
    [
        # a bad row before a bad entry is reported first, and the reverse
        ({0: {"row": {"zz": 1}}, 1: {"extra": 1}}, "pomdp.sensor[0].row: unknown label 'zz'"),
        ({0: {"extra": 1}, 1: {"row": {"zz": 1}}}, "pomdp.sensor[0]: unknown field 'extra'"),
        ({0: {"row": {"zz": 1}}, 1: {"row": {"z0": 10**400}}}, "pomdp.sensor[0].row: unknown label 'zz'"),
        ({1: {"row": {"z0": 10**400}}}, "pomdp.sensor[1].row['z0']: integer beyond the float range"),
    ],
)
def test_pomdp_sensor_schema_errors_come_in_entry_order(edits, message):
    doc = json.loads(serialize_model(sample_models()["pomdp"]))
    for i, change in edits.items():
        doc["sensor"][i].update(change)
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse_model(json.dumps(doc))


def test_lifted_sensor_schema_errors_come_in_entry_order():
    doc = json.loads(serialize_model(random_lifted(np.random.default_rng(3), sizes=(2,))))
    doc["sensor"][1]["row"] = {"[2,0]": False, "[3,0]": 0.5}
    with pytest.raises(SchemaError, match=re.escape("sensor[1].row['[2,0]']: expected a number")):
        parse_model(json.dumps(doc))
    doc["sensor"][1]["row"] = {"[3,0]": 0.5, "[2,0]": False}
    with pytest.raises(SchemaError, match="sums to 3, expected partition size 2"):
        parse_model(json.dumps(doc))


# The cli-session chain, in process: gen-nano with two marker types, one
# message type, partitions of three and these fixed rates, then ground,
# serialise, parse, lift and serialise.  The ground and re-lifted digests
# were recorded with the row-by-row implementation this module replaced,
# the generated one with the dict tables that preceded TransitionTable.
CHAIN_RATES = {
    "marker_appear": 0.15,
    "marker_persist": 0.85,
    "assemble_prob": 0.8,
    "false_positive": 0.05,
    "cross_type": 0.03,
    "false_negative": 0.1,
    "marker_initial": 0.4,
    "discount": 0.9,
    "reward_good": 9.0,
    "reward_bad": 21.0,
    "release_cost": 1.5,
}
GENERATED_SHA256 = "6de83a03ac4fad40413819568cf224983aed652224a9fe2c9d9e8c4b2d9d19a9"
GROUND_SHA256 = "9abdab8763c8f329911e677f610198d14c6a6edba04b94841e921edbd901a6e2"
RELIFTED_SHA256 = "e18da4c57da1eadd088d57b38b71aa56ccd08fff04e0a07362c8931c07caf536"


def test_cli_session_chain_documents_are_pinned():
    generated, grounded = chain_documents()
    assert len(generated.encode()) == 335_200
    assert hashlib.sha256(generated.encode()).hexdigest() == GENERATED_SHA256
    assert len(grounded.encode()) == 3_290_994
    assert hashlib.sha256(grounded.encode()).hexdigest() == GROUND_SHA256
    relifted = serialize_model(lift_chain(parse_model(grounded)))
    assert hashlib.sha256(relifted.encode()).hexdigest() == RELIFTED_SHA256


# ---------------------------------------------------------------------------
# interned rows: entries with equal rows share one distribution


def _reference_row(mapping, labels, where) -> np.ndarray:
    """One row object read on its own, as a row-by-row parser reads it.

    The row is returned as read, before it is canonicalised.
    """
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object of probabilities")
    row = np.zeros(len(labels))
    for label, value in mapping.items():
        if label not in labels:
            raise SchemaError(f"{where}: unknown label {label!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}[{label!r}]: expected a number, got {value!r}")
        row[labels.index(label)] = value
    return row


def _reference_dist(mapping, labels, where) -> DiscreteDistribution:
    probs, _reasons = canonical_rows(_reference_row(mapping, labels, where)[np.newaxis])
    return DiscreteDistribution(probs[0])


def _reference_parse(text: str, base):
    """The model of `text`, every row read alone into its own distribution.

    `base` is the model the document was serialised from; the test edits
    only the rows of its transition table, POMDP sensor and initial
    belief, in the order the parser reads them.
    """
    doc = json.loads(text)
    kind, states = doc["kind"], doc["states"]
    key = {
        "pomdp": lambda text: text,
        "decpomdp": lambda text: tuple(text.split(",")),
        "lifted-decpomdp": parse_histogram_tuple_key,
    }[kind]
    transition = {
        (entry["state"], key(entry["action"])): _reference_dist(
            entry["next"], states, f"{kind}.transition[{i}].next"
        )
        for i, entry in enumerate(doc["transition"])
    }
    if kind == "pomdp":
        sensor = {
            entry["state"]: _reference_dist(
                entry["row"], doc["observations"], f"pomdp.sensor[{i}].row"
            )
            for i, entry in enumerate(doc["sensor"])
        }
        return dataclasses.replace(base, transition=transition, sensor=sensor)
    sensor = {
        entry["state"]: {key(k): float(p) for k, p in entry["row"].items()}
        for entry in doc["sensor"]
    }
    belief = _reference_dist(doc["initial_belief"], states, f"{kind}.initial_belief")
    return dataclasses.replace(
        base,
        transition=transition,
        sensor=sensor,
        initial_belief=Belief(base.states, belief.probs),
    )


def _copy_of(data, row: dict, labels) -> dict:
    """A copy of a row object that reads as the same row, or nearly so."""
    edit = data.draw(
        st.sampled_from(["same", "same", "reorder", "zero", "negative-zero", "int", "near"])
    )
    row = dict(row)
    absent = [label for label in labels if label not in row]
    if edit == "reorder":
        row = dict(reversed(row.items()))
    elif edit in ("zero", "negative-zero") and absent:
        row[absent[0]] = 0.0 if edit == "zero" else -0.0
    elif edit == "int":
        row = {k: int(v) if float(v).is_integer() else v for k, v in row.items()}
    elif edit == "near":
        row[data.draw(st.sampled_from(sorted(row)))] += 2e-11
    return row


def _break_copy(data, row: dict) -> None:
    """Maybe put a fault into one row object: a non-finite, a bool or a label."""
    edit = data.draw(st.sampled_from(["none", "none", "none", "nan", "inf", "true", "unknown"]))
    label = data.draw(st.sampled_from(sorted(row)))
    if edit in ("nan", "inf", "true"):
        row[label] = {"nan": float("nan"), "inf": float("inf"), "true": True}[edit]
    elif edit == "unknown":
        row["zz"] = 0.0


def _repeat_rows(data, entries, field, labels):
    """Give each entry a drawn copy of one of a few shared rows."""
    half = {labels[0]: 0.5, labels[-1]: 0.5} if len(labels) > 1 else {labels[0]: 1}
    pool = [{labels[0]: 1.0}, half, entries[0][field]]
    sources = pool[: data.draw(st.integers(1, len(pool)))]
    for entry in entries:
        entry[field] = _copy_of(data, data.draw(st.sampled_from(sources)), labels)
    _break_copy(data, entries[data.draw(st.integers(0, len(entries) - 1))][field])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["pomdp", "decpomdp", "decpomdp-lifted", "lifted-decpomdp"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_interned_parse_matches_an_uninterned_reference(kind, seed, data):
    rng = np.random.default_rng(seed)
    base = {
        "pomdp": lambda: random_pomdp(rng, n_states=1 + seed % 3, n_obs=1 + seed % 2),
        "decpomdp": lambda: random_team(rng, n_states=1 + seed % 3),
        "decpomdp-lifted": lambda: ground(random_lifted(rng, sizes=(2, 1))),
        "lifted-decpomdp": lambda: random_lifted(rng, sizes=(2,)),
    }[kind]()
    doc = json.loads(serialize_model(base))
    _repeat_rows(data, doc["transition"], "next", doc["states"])
    if doc["kind"] == "pomdp":
        _repeat_rows(data, doc["sensor"], "row", doc["observations"])
    elif data.draw(st.booleans()):
        doc["initial_belief"] = _copy_of(data, doc["initial_belief"], doc["states"])
    text = json.dumps(doc)

    try:
        expected = _reference_parse(text, base)
    except SchemaError as err:
        with pytest.raises(SchemaError) as got:
            parse_model(text)
        assert str(got.value) == str(err)
        return
    report = reference_report(expected)
    assert str(validate_model(expected)) == report
    if report != "ok":
        with pytest.raises(ValidationError) as got:
            parse_model(text)
        n = len(report.splitlines())
        assert str(got.value) == f"{doc['kind']} document breaks {n} invariant(s):\n{report}"
        return
    model = parse_model(text)
    assert list(model.transition) == list(expected.transition)
    for key, dist in expected.transition.items():
        assert model.transition[key].probs.tobytes() == dist.probs.tobytes()
    if doc["kind"] == "pomdp":
        for state, dist in expected.sensor.items():
            assert model.sensor[state].probs.tobytes() == dist.probs.tobytes()
    else:
        assert model.initial_belief.probs.tobytes() == expected.initial_belief.probs.tobytes()
    assert serialize_model(model) == serialize_model(expected)
    # two entries share one distribution exactly when their rows were read
    # to the same bytes
    read = [_reference_row(e["next"], doc["states"], "").tobytes() for e in doc["transition"]]
    ids = [id(dist) for dist in model.transition.values()]
    assert len(set(zip(read, ids))) == len(set(read)) == len(set(ids))


def test_rows_merge_only_when_their_bytes_agree():
    doc = {
        "kind": "mdp",
        "states": ["s0", "s1"],
        "actions": {"s0": ["a", "b", "c", "d"], "s1": ["a"]},
        "discount": 0.9,
        "transition": [
            {"state": "s0", "action": "a", "next": {"s0": 1.0, "s1": 0.0}},
            {"state": "s0", "action": "b", "next": {"s0": 1.0, "s1": -0.0}},
            {"state": "s0", "action": "c", "next": {"s0": 1}},
            {"state": "s0", "action": "d", "next": {"s1": -0.0, "s0": 1.0}},
            {"state": "s1", "action": "a", "next": {"s0": 1.0}},
        ],
        "reward": {"s0": 0.0, "s1": 1.0},
    }
    model = parse_model(json.dumps(doc))
    rows = [model.transition[key] for key in [("s0", a) for a in "abcd"] + [("s1", "a")]]
    assert rows[0] is rows[2] is rows[4]
    assert rows[1] is rows[3]
    assert rows[0] is not rows[1]
    assert np.signbit(rows[1].probs[1]) and not np.signbit(rows[0].probs[1])
    # the emitter omits zeros of either sign, so the text does not change
    assert serialize_model(model) == serialize_model(parse_model(serialize_model(model)))


def test_a_bad_copy_of_a_repeated_row_is_reported_at_its_own_entry():
    doc = json.loads(serialize_model(random_team(np.random.default_rng(3))))
    row = doc["transition"][0]["next"]
    for entry in doc["transition"]:
        entry["next"] = dict(row)
    label = next(iter(row))
    doc["transition"][5]["next"][label] = True
    with pytest.raises(SchemaError, match=re.escape(f"transition[5].next['{label}']")):
        parse_model(json.dumps(doc))
    doc["transition"][5]["next"] = dict(row, zz=0.0)
    doc["transition"][3]["next"][label] = float(row[label])  # equal to the others
    with pytest.raises(SchemaError, match=re.escape("transition[5].next: unknown label 'zz'")):
        parse_model(json.dumps(doc))
    # `true` equals 1 and hashes like it, yet a copy of a certain row that
    # holds it is refused at its own entry, whichever number came first
    for one in (1, 1.0):
        for entry in doc["transition"]:
            entry["next"] = {label: one}
        doc["transition"][5]["next"] = {label: True}
        with pytest.raises(SchemaError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value).endswith(f"transition[5].next['{label}']: expected a number, got True")


def test_rows_are_shared_and_reported_across_read_chunks():
    # 2 x 5,000 entries of a 2-state table span several of the parser's chunks
    rows = [{"a": 0.25, "b": 0.75}, {"b": 1}, {"a": 1.0, "b": -0.0}, {"a": 1.0}]
    actions = [f"x{k}" for k in range(5000)]
    entries = [{"state": s, "action": x} for s in "ab" for x in actions]
    for n, entry in enumerate(entries):
        entry["next"] = dict(rows[n % 2 + 2 * (n >= 4500)])
    doc = {
        "kind": "mdp", "states": ["a", "b"], "actions": {"a": actions, "b": actions},
        "discount": 0.9, "transition": entries, "reward": {"a": 0.0, "b": 1.0},
    }
    model = parse_model(json.dumps(doc))
    table = model.transition
    assert len(table.rows) == 4
    for entry in entries:
        row = table[(entry["state"], entry["action"])]
        expected = [float(entry["next"].get(label, 0.0)) for label in ("a", "b")]
        assert row.probs.tobytes() == np.array(expected).tobytes()
    entries[9000]["next"] = {"a": 0.5, "c": 0.5}
    with pytest.raises(SchemaError, match=re.escape("transition[9000].next: unknown label 'c'")):
        parse_model(json.dumps(doc))
    entries[6000]["next"] = {"a": "0.5"}
    with pytest.raises(SchemaError, match=re.escape("transition[6000].next['a']")):
        parse_model(json.dumps(doc))


def test_a_shared_broken_row_is_reported_at_every_entry():
    doc = json.loads(serialize_model(random_mdp(np.random.default_rng(4), n_states=2)))
    for entry in doc["transition"]:
        entry["next"] = {"s0": 0.5, "s1": 0.25}
    with pytest.raises(ValidationError) as err:
        parse_model(json.dumps(doc))
    assert str(err.value).count("sums to 0.75, expected 1") == len(doc["transition"])


@pytest.mark.parametrize("kind", ["mdp", "pomdp"])
def test_empty_transition_table_reports_missing_rows(kind):
    model = sample_models()[kind]
    doc = json.loads(serialize_model(model))
    doc["transition"] = []
    with pytest.raises(ValidationError, match="no transition row for") as err:
        parse_model(json.dumps(doc))
    empty = dataclasses.replace(model, transition={})
    assert err.value.report.codes() == validate_model(empty).codes()


def test_transition_table_of_an_empty_dict():
    table = TransitionTable.of({})
    assert len(table) == 0 and table == {} and not table.rows
    assert table.find(["s"], ["a"]).tolist() == [[-1]]


@functools.lru_cache(maxsize=1)
def chain_documents() -> tuple[str, str]:
    """(generated, grounded) texts of the cli-session chain's nano model."""
    params = NanoParams(marker_types=2, message_types=1, partition_size=3, **CHAIN_RATES)
    generated = serialize_model(generate_nano(params))
    return generated, serialize_model(ground(parse_model(generated)))


def test_parsed_ground_document_holds_each_distinct_row_once():
    _generated, grounded = chain_documents()
    tracemalloc.start()
    try:
        model = parse_model(grounded)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.transition) == 8192
    assert len({id(dist) for dist in model.transition.values()}) == 10
    # one distribution per entry and the full (entries x states) table
    # peaked at 18.4 MiB
    assert peak < 12 * 2**20
