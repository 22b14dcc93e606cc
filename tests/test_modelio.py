"""Interchange format: round trips, canonical form, error taxonomy."""

import json
from pathlib import Path

import numpy as np
import pytest

from declift.errors import ParseError, SchemaError, ValidationError
from declift.lifting import ground
from declift.modelio import canonical_json, parse_model, serialize_model
from declift.models import validate_model
from declift.nano import generate_nano, nano_desk_preset

from test_solvers import (
    count_based_team,
    lift_chain,
    random_lifted,
    random_mdp,
    random_pomdp,
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
