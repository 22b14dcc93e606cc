"""Core model type checks: validation reporting and the belief filter."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declift.counting import enumerate_histograms
from declift.errors import ZeroProbabilityObservation
from declift.lifting import lift, range_partition
from declift.modelio import parse_model
from declift.models import (
    DEFAULT_JOINT_CAP,
    EXACT_SUM_TOL,
    PROB_TOL,
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    LiftedDecPomdp,
    Mdp,
    Partitioning,
    Pomdp,
    StateSpace,
    TransitionTable,
    ValidationReport,
    Violation,
    _check_belief,
    _check_discount,
    _check_range,
    _check_reward,
    _check_row,
    _check_sparse_row,
    belief_update,
    canonical_rows,
    label_ok,
    validate_model,
)

from test_lifting import insert_at
from test_solvers import random_lifted, random_mdp, random_pomdp, random_row, random_team


def two_state_pomdp():
    states = StateSpace(("healthy", "ill"))
    return Pomdp(
        states=states,
        actions={"healthy": ("wait", "probe"), "ill": ("wait", "probe")},
        transition={
            ("healthy", "wait"): DiscreteDistribution([0.7, 0.3]),
            ("healthy", "probe"): DiscreteDistribution([1.0, 0.0]),
            ("ill", "wait"): DiscreteDistribution([0.2, 0.8]),
            ("ill", "probe"): DiscreteDistribution([0.0, 1.0]),
        },
        reward={"healthy": 1.0, "ill": -1.0},
        discount=0.9,
        observations=("clear", "marker"),
        sensor={
            "healthy": DiscreteDistribution([0.9, 0.1]),
            "ill": DiscreteDistribution([0.25, 0.75]),
        },
    )


def test_belief_update_matches_direct_bayes():
    model = two_state_pomdp()
    belief = Belief(model.states, np.array([0.5, 0.5]))
    updated = belief_update(model, belief, "wait", "clear")

    # oracle: write the numerator and normalizer out by hand
    predicted = [0.5 * 0.7 + 0.5 * 0.2, 0.5 * 0.3 + 0.5 * 0.8]
    numer = [0.9 * predicted[0], 0.25 * predicted[1]]
    norm = numer[0] + numer[1]
    expected = [numer[0] / norm, numer[1] / norm]
    assert np.allclose(updated.probs, expected, atol=1e-12)
    assert abs(updated.mass() - 1.0) < 1e-12


def test_belief_update_exhaustive_consistency():
    # over every (action, observation) pair and a sweep of beliefs, the
    # filter must agree with the brute-force Bayes rule
    model = two_state_pomdp()
    for t in np.linspace(0.0, 1.0, 11):
        belief = Belief(model.states, np.array([t, 1.0 - t]))
        for action in ("wait", "probe"):
            for obs in ("clear", "marker"):
                pred = np.zeros(2)
                for i, s in enumerate(model.states):
                    pred += belief.probs[i] * model.transition[(s, action)].probs
                o = model.observations.index(obs)
                numer = np.array(
                    [model.sensor[s].probs[o] for s in model.states]
                ) * pred
                if numer.sum() == 0.0:
                    with pytest.raises(ZeroProbabilityObservation):
                        belief_update(model, belief, action, obs)
                else:
                    updated = belief_update(model, belief, action, obs)
                    assert np.allclose(updated.probs, numer / numer.sum(), atol=1e-12)


def test_belief_update_zero_probability_observation():
    model = two_state_pomdp()
    belief = Belief(model.states, np.array([1.0, 0.0]))
    # probing from a certainly-healthy belief keeps the state healthy, and
    # a "marker" observation still has mass 0.1 there; make it impossible
    impossible = Pomdp(
        states=model.states,
        actions=model.actions,
        transition=model.transition,
        reward=model.reward,
        discount=model.discount,
        observations=model.observations,
        sensor={
            "healthy": DiscreteDistribution([1.0, 0.0]),
            "ill": DiscreteDistribution([0.25, 0.75]),
        },
    )
    with pytest.raises(ZeroProbabilityObservation):
        belief_update(impossible, belief, "probe", "marker")


def test_validate_clean_pomdp():
    assert validate_model(two_state_pomdp()).ok


def test_validate_reports_normalization_with_offender():
    states = StateSpace(("a", "b"))
    model = Mdp(
        states=states,
        actions={"a": ("go",), "b": ("go",)},
        transition={
            ("a", "go"): DiscreteDistribution([0.6, 0.3]),  # mass 0.9
            ("b", "go"): DiscreteDistribution([0.5, 0.5]),
        },
        reward={"a": 0.0, "b": 1.0},
        discount=0.9,
    )
    report = validate_model(model)
    assert not report.ok
    assert report.codes() == ["normalization"]
    assert "('a', 'go')" in str(report)


def test_validate_reports_missing_and_undeclared_rows():
    states = StateSpace(("a", "b"))
    model = Mdp(
        states=states,
        actions={"a": ("go", "stay"), "b": ("go",)},
        transition={
            ("a", "go"): DiscreteDistribution([1.0, 0.0]),
            ("b", "go"): DiscreteDistribution([0.0, 1.0]),
            ("b", "stay"): DiscreteDistribution([0.0, 1.0]),
        },
        reward={"a": 0.0, "b": 0.0},
        discount=1.0,
    )
    report = validate_model(model)
    codes = report.codes()
    assert "missing-row" in codes  # ('a', 'stay') has no row
    assert "undeclared-row" in codes  # ('b', 'stay') is not declared


def test_validate_discount_and_reward():
    states = StateSpace(("a",))
    model = Mdp(
        states=states,
        actions={"a": ("go",)},
        transition={("a", "go"): DiscreteDistribution([1.0])},
        reward={},
        discount=1.5,
    )
    codes = validate_model(model).codes()
    assert "discount" in codes
    assert "reward" in codes


def tiny_ground(sensor_row=None):
    states = StateSpace(("s0", "s1"))
    agents = ("a0", "a1")
    actions = {"a0": ("x", "y"), "a1": ("x", "y")}
    observations = {"a0": ("o", "n"), "a1": ("o", "n")}
    transition = {}
    for s in states:
        for joint in itertools.product(("x", "y"), repeat=2):
            transition[(s, joint)] = DiscreteDistribution([0.5, 0.5])
    if sensor_row is None:
        sensor_row = {
            ("o", "o"): 0.25,
            ("o", "n"): 0.25,
            ("n", "o"): 0.25,
            ("n", "n"): 0.25,
        }
    sensor = {s: dict(sensor_row) for s in states}
    return GroundDecPomdp(
        agents=agents,
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        sensor=sensor,
        reward={"s0": 0.0, "s1": 1.0},
        discount=0.95,
        initial_belief=Belief(states, np.array([1.0, 0.0])),
    )


def test_validate_clean_ground():
    assert validate_model(tiny_ground()).ok


def test_validate_ground_bad_sensor_key_and_mass():
    model = tiny_ground(sensor_row={("o", "o"): 0.5, ("o", "zzz"): 0.2})
    codes = validate_model(model).codes()
    assert "key" in codes
    assert "normalization" in codes


def canonical_row(values):
    """`canonical_rows` on a table of one row: (probs, None) or (None, reason)."""
    probs, (reason,) = canonical_rows(np.array([values], dtype=float))
    return (None, reason) if reason else (probs[0], None)


def test_canonical_row_rules():
    # far off: rejected
    probs, problem = canonical_row([0.5, 0.4])
    assert probs is None and "mass" in problem
    # within 1e-9 but off by more than 1e-12: divided by the mass
    probs, problem = canonical_row([0.5, 0.5 + 5e-10])
    assert problem is None
    assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-15)
    assert probs[1] != 0.5 + 5e-10
    # already exact: stored bit for bit
    probs, problem = canonical_row([0.25, 0.75])
    assert problem is None
    assert probs[0] == 0.25 and probs[1] == 0.75
    # negative entries are never probabilities
    probs, problem = canonical_row([1.1, -0.1])
    assert probs is None and "negative" in problem


def test_state_space_rejects_duplicates():
    with pytest.raises(ValueError):
        StateSpace(("a", "a"))
    with pytest.raises(ValueError):
        StateSpace(())


# ---------------------------------------------------------------------------
# table-wide row checks against the row-by-row originals


def reference_canonical_row(values):
    """The single-row check the table version replaced."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        return None, "empty row"
    if not np.all(np.isfinite(arr)):
        return None, "non-finite entry"
    if np.any(arr < 0.0):
        return None, "negative entry"
    mass = math.fsum(arr.tolist())
    deviation = abs(mass - 1.0)
    if deviation > PROB_TOL:
        return None, f"mass {mass!r} is off by more than {PROB_TOL}"
    if deviation > EXACT_SUM_TOL:
        arr = arr / mass
    return arr, None


# deviations around both tolerances; the middle band is renormalised
deviations = st.sampled_from(
    [0.0, 0.5, 0.99, 1.01, 2.0, 10.0, 100.0, 999.0, 1001.0, 2000.0]
).map(lambda f: f * EXACT_SUM_TOL) | st.floats(-2.0 * PROB_TOL, 2.0 * PROB_TOL)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 6),
    rows=st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),
            deviations,
            st.sampled_from(["clean", "nan", "inf", "negative"]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_canonical_rows_match_the_single_row_rules_bit_for_bit(width, rows):
    table = []
    for seed, deviation, kind in rows:
        row = np.random.default_rng(seed).random(width) + 0.1
        row = row / math.fsum(row.tolist())
        row[0] += deviation
        if kind == "nan":
            row[-1] = np.nan
        elif kind == "inf":
            row[-1] = np.inf
        elif kind == "negative" and width > 1:
            row[-1] = -row[-1]
        table.append(row)
    probs, reasons = canonical_rows(np.array(table))
    assert not probs.flags.writeable
    for i, row in enumerate(table):
        expected, reason = reference_canonical_row(row)
        assert reasons[i] == reason
        kept = row if expected is None else expected
        assert probs[i].tobytes() == kept.tobytes()
        fixed, single_reason = canonical_row(row)
        assert single_reason == reason
        assert (fixed is None) == (expected is None)
        if fixed is not None:
            assert fixed.tobytes() == expected.tobytes()


def test_parsed_rows_renormalise_like_canonical_row():
    # every deviation in (EXACT_SUM_TOL, PROB_TOL] is divided out, bit for bit
    rows = {}
    for k, factor in enumerate([1.5, 10.0, 250.0, 999.0, -3.0, -999.0]):
        raw = [0.25, 0.75 + factor * EXACT_SUM_TOL]
        rows[f"s{k}"] = raw
    doc = {
        "kind": "mdp",
        "states": sorted(rows),
        "actions": {s: ["go"] for s in rows},
        "discount": 0.9,
        "transition": [
            {"state": s, "action": "go", "next": {"s0": raw[0], "s1": raw[1]}}
            for s, raw in rows.items()
        ],
        "reward": {s: 0.0 for s in rows},
    }
    model = parse_model(json.dumps(doc))
    for s, raw in rows.items():
        expected, reason = reference_canonical_row(raw + [0.0] * (len(rows) - 2))
        assert reason is None
        got = model.transition[(s, "go")].probs
        assert got.tobytes() == expected.tobytes()
        assert got[1] != raw[1]


def reference_report(model, cap=DEFAULT_JOINT_CAP) -> str:
    """`validate_model`'s text as the row-by-row validators produced it.

    The per-row checkers are shared with the library; the loops over the
    tables are written out row by row, as they were.
    """
    out = []
    if isinstance(model, Pomdp) or type(model) is Mdp:
        _check_discount(out, model)
        _check_reward(out, model)
        for state in model.states:
            if state not in model.actions:
                out.append(Violation("range", f"state {state!r} declares no action range"))
                continue
            _check_range(out, f"state {state!r}", "actions", model.actions[state])
        for state in model.actions:
            if state not in model.states.labels:
                out.append(Violation("range", f"action range for unknown state {state!r}"))
        # missing rows in declaration order, not the hash order of a set
        declared = dict.fromkeys((s, a) for s in model.states for a in model.actions.get(s, ()))
        for key in declared:
            if key not in model.transition:
                out.append(Violation("missing-row", f"no transition row for {key!r}"))
        for key, dist in model.transition.items():
            if key not in declared:
                out.append(Violation("undeclared-row", f"transition row for undeclared {key!r}"))
            _check_row(out, f"transition row {key!r}", dist, len(model.states))
        if isinstance(model, Pomdp):
            _check_range(out, "model", "observations", model.observations)
            for state in model.states:
                if state not in model.sensor:
                    out.append(Violation("missing-row", f"no sensor row for state {state!r}"))
            for state, dist in model.sensor.items():
                if state not in model.states.labels:
                    out.append(
                        Violation("undeclared-row", f"sensor row for unknown state {state!r}")
                    )
                    continue
                _check_row(out, f"sensor row {state!r}", dist, len(model.observations))
        return str(ValidationReport(out))

    ground = isinstance(model, GroundDecPomdp)
    _check_discount(out, model)
    _check_reward(out, model)
    if ground:
        if len(model.agents) == 0:
            out.append(Violation("range", "no agents declared"))
            return str(ValidationReport(out))
        if len(set(model.agents)) != len(model.agents):
            out.append(Violation("range", "duplicate agent names"))
        for agent in model.agents:
            if not label_ok(agent):
                out.append(Violation("label", f"agent name {agent!r} is not allowed"))
            _check_range(out, f"agent {agent!r}", "actions", model.actions.get(agent, ()))
            _check_range(
                out, f"agent {agent!r}", "observations", model.observations.get(agent, ())
            )
    else:
        _check_belief(out, model.initial_belief, model.states)
        part = model.partitioning
        if len(set(model.partition_names)) != len(model.partition_names):
            out.append(Violation("partition", "duplicate partition names"))
        if len(model.partition_names) != len(part.blocks):
            out.append(Violation("partition", "partition names do not match the blocks"))
            return str(ValidationReport(out))
        if len(model.agents) != len(set(model.agents)):
            out.append(Violation("range", "duplicate agent names"))
        if sorted(i for b in part.blocks for i in b) != list(range(len(model.agents))):
            out.append(Violation("partition", "blocks do not cover the agents exactly"))
            return str(ValidationReport(out))
        for name, block, acts, obs in zip(
            model.partition_names, part.blocks, part.action_ranges, part.observation_ranges
        ):
            if len(block) < 1:
                out.append(Violation("partition", f"partition {name!r} is empty"))
            if not label_ok(name):
                out.append(Violation("label", f"partition name {name!r} is not allowed"))
            _check_range(out, f"partition {name!r}", "actions", acts)
            _check_range(out, f"partition {name!r}", "observations", obs)
    states = model.states
    if ground:
        action_ranges = [model.actions.get(a, ()) for a in model.agents]
        obs_ranges = [model.observations.get(a, ()) for a in model.agents]

        def action_ok(joint):
            return (
                isinstance(joint, tuple)
                and len(joint) == len(model.agents)
                and all(v in r for v, r in zip(joint, action_ranges))
            )

        def obs_ok(joint):
            return (
                isinstance(joint, tuple)
                and len(joint) == len(model.agents)
                and all(v in r for v, r in zip(joint, obs_ranges))
            )

        row_name, key_text, prefix = "transition row", "joint action outside the ranges", ""
        n_keys = math.prod(len(r) for r in action_ranges)
        space = list(itertools.product(*action_ranges))
    else:
        part = model.partitioning

        def key_ok(key, ranges):
            if not isinstance(key, tuple) or len(key) != len(part.blocks):
                return False
            for counts, n, rng in zip(key, part.sizes, ranges):
                if not isinstance(counts, tuple) or len(counts) != len(rng):
                    return False
                if any((not isinstance(c, int)) or c < 0 for c in counts):
                    return False
                if sum(counts) != n:
                    return False
            return True

        def action_ok(key):
            return key_ok(key, part.action_ranges)

        def obs_ok(key):
            return key_ok(key, part.observation_ranges)

        row_name, key_text, prefix = "lifted transition row", "malformed histogram key", "lifted "
        n_keys = model.action_key_count()
        space = list(
            itertools.product(
                *(
                    enumerate_histograms(len(b), len(r))
                    for b, r in zip(part.blocks, part.action_ranges)
                )
            )
        ) if n_keys <= cap else []
    for (state, joint), dist in model.transition.items():
        name = f"{row_name} ({state!r}, {joint!r})"
        if state not in states.labels:
            out.append(Violation("undeclared-row", f"{name}: unknown state"))
        if not action_ok(joint):
            out.append(Violation("key", f"{name}: {key_text}"))
        _check_row(out, name, dist, len(states))
    if n_keys <= cap:
        for state in states:
            for joint in space:
                if (state, joint) not in model.transition:
                    out.append(
                        Violation(
                            "missing-row",
                            f"no {prefix}transition row for ({state!r}, {joint!r})",
                        )
                    )
    for state in states:
        if state not in model.sensor:
            out.append(Violation("missing-row", f"no sensor row for state {state!r}"))
    for state, row in model.sensor.items():
        if state not in states.labels:
            out.append(Violation("undeclared-row", f"sensor row for unknown state {state!r}"))
            continue
        _check_sparse_row(out, f"{prefix}sensor row {state!r}", row, obs_ok)
    if ground:
        _check_belief(out, model.initial_belief, states)
    return str(ValidationReport(out))


def _break_dense(data, probs):
    edit = data.draw(st.sampled_from(["nan", "negative", "mass", "near", "width"]))
    probs = probs.copy()
    j = data.draw(st.integers(0, len(probs) - 1))
    if edit == "nan":
        probs[j] = np.nan
    elif edit == "negative":
        # mass kept where there is a second entry to carry it
        probs[j] = -probs[j]
        probs[j - 1] -= 2.0 * probs[j]
    elif edit == "mass":
        probs[j] += 2.0 * PROB_TOL
    elif edit == "near":
        probs[j] += 0.5 * PROB_TOL
    else:
        probs = np.append(probs, 0.0)
    return DiscreteDistribution(probs)


def _break_sparse(data, row, foreign):
    row = dict(row)
    edit = data.draw(
        st.sampled_from(["nan", "negative", "mass", "near", "string", "bool", "foreign"])
    )
    # an earlier edit may have left a string or a bool in the row; only
    # numeric entries take the arithmetic edits
    keys = [k for k, v in row.items() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if edit == "foreign" or not keys:
        row[foreign] = data.draw(st.sampled_from([0.0, 0.25]))
        return row
    i = data.draw(st.integers(0, len(keys) - 1))
    key = keys[i]
    if edit == "negative":
        # mass kept by the entry before it (or itself, in a one-entry row)
        row[keys[i - 1]] += 2.0 * row[key]
        row[key] -= 2.0 * row[key]
        return row
    row[key] = {
        "nan": float("nan"),
        "mass": row[key] + 2.0 * PROB_TOL,
        "near": row[key] + 0.5 * PROB_TOL,
        "string": "x",
        "bool": True,
    }[edit]
    return row


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["mdp", "pomdp", "decpomdp", "lifted-decpomdp"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_broken_models_report_like_the_row_by_row_validators(kind, seed, data):
    rng = np.random.default_rng(seed)
    if kind == "mdp":
        model = random_mdp(rng, n_states=data.draw(st.integers(1, 3)))
    elif kind == "pomdp":
        model = random_pomdp(rng, n_states=data.draw(st.integers(1, 3)))
    elif kind == "decpomdp":
        model = random_team(rng, n_states=data.draw(st.integers(1, 3)))
    else:
        model = random_lifted(rng, sizes=data.draw(st.sampled_from([(1,), (2,), (2, 1)])))
    team = kind in ("decpomdp", "lifted-decpomdp")
    if kind == "decpomdp":
        foreign_action, foreign_obs = ("q", "x"), ("o", "q", "n")
    elif kind == "lifted-decpomdp":
        sizes = model.partitioning.sizes
        foreign_action = tuple((n + 1, 0) for n in sizes)
        foreign_obs = tuple((n, 1) for n in sizes)
    else:
        foreign_action, foreign_obs = "q", None
    transition = dict(model.transition)
    sensor = dict(getattr(model, "sensor", {}))
    for _ in range(data.draw(st.integers(1, 4))):
        edit = data.draw(
            st.sampled_from(["row", "row", "sensor", "sensor", "unknown", "foreign", "drop"])
        )
        state = data.draw(st.sampled_from(model.states.labels))
        if edit == "row" and transition:
            key = data.draw(st.sampled_from(list(transition)))
            transition[key] = _break_dense(data, transition[key].probs)
        elif edit == "sensor" and kind != "mdp" and state in sensor:
            if team:
                sensor[state] = _break_sparse(data, sensor[state], foreign_obs)
            else:
                sensor[state] = _break_dense(data, sensor[state].probs)
        elif edit == "unknown":
            if kind != "mdp" and data.draw(st.booleans()):
                sensor = insert_at(data, sensor, "zz", next(iter(model.sensor.values())))
            else:
                (_, key), row = next(iter(model.transition.items()))
                transition = insert_at(data, transition, ("zz", key), row)
        elif edit == "foreign":
            row = next(iter(model.transition.values()))
            transition = insert_at(data, transition, (state, foreign_action), row)
        elif edit == "drop":
            if kind != "mdp" and data.draw(st.booleans()):
                sensor.pop(state, None)
            elif transition:
                del transition[data.draw(st.sampled_from(list(transition)))]
    changes = {"transition": transition}
    if kind != "mdp":
        changes["sensor"] = sensor
    broken = dataclasses.replace(model, **changes)
    assert str(validate_model(broken)) == reference_report(broken)


@pytest.mark.parametrize("kind", ["decpomdp", "lifted-decpomdp"])
@pytest.mark.parametrize("edit", ["foreign", "negative"])
def test_sparse_rows_with_unit_mass_are_still_checked_entry_by_entry(kind, edit):
    # the mass is exactly right, so only the key and sign checks can tell
    rng = np.random.default_rng(11)
    if kind == "decpomdp":
        model, foreign = random_team(rng), ("o", "q")
    else:
        model, foreign = random_lifted(rng, sizes=(2,)), ((3, 0),)
    sensor = {s: dict(row) for s, row in model.sensor.items()}
    row = sensor[model.states.labels[-1]]
    if edit == "foreign":
        row[foreign] = 0.0
    else:
        first, second = list(row)[:2]
        row[first], row[second] = -row[first], row[second] + 2.0 * row[first]
    broken = dataclasses.replace(model, sensor=sensor)
    report = str(validate_model(broken))
    assert report == reference_report(broken)
    assert ("out-of-range key" if edit == "foreign" else "is negative") in report


@pytest.mark.parametrize("kind", ["mdp", "decpomdp", "lifted-decpomdp"])
def test_a_reward_int_beyond_the_float_range_is_a_violation(kind):
    # math.isfinite raises OverflowError on such an int
    rng = np.random.default_rng(3)
    model = {"mdp": random_mdp, "decpomdp": random_team, "lifted-decpomdp": random_lifted}[
        kind
    ](rng)
    state = model.states.labels[0]
    broken = dataclasses.replace(model, reward={**model.reward, state: 10**400})
    report = str(validate_model(broken))
    assert report == reference_report(broken)
    assert report == f"[reward] reward for {state!r} is not finite"


@pytest.mark.parametrize("kind", ["decpomdp", "lifted-decpomdp"])
def test_a_sparse_sensor_int_beyond_the_float_range_is_a_row_violation(kind):
    # the screen's float array and the row check's math.isfinite both
    # overflow on such an int
    rng = np.random.default_rng(3)
    model = random_team(rng) if kind == "decpomdp" else random_lifted(rng)
    state = model.states.labels[-1]
    sensor = {s: dict(row) for s, row in model.sensor.items()}
    key = next(iter(sensor[state]))
    sensor[state][key] = 10**400
    broken = dataclasses.replace(model, sensor=sensor)
    report = str(validate_model(broken))
    assert report == reference_report(broken)
    assert report.endswith(f"{state!r} entry {key!r} is not a finite number")
    assert report.count("[") == 1 and report.startswith("[row] ")


@pytest.mark.parametrize("kind", ["decpomdp", "lifted-decpomdp"])
def test_team_validators_report_a_dropped_transition_row(kind):
    # a foreign row in its place keeps the row count, so only the
    # enumeration of (state, key) pairs can find the gap
    rng = np.random.default_rng(12)
    if kind == "decpomdp":
        model, foreign = random_team(rng), ("q", "x")
    else:
        model, foreign = random_lifted(rng, sizes=(2,)), ((3, 0),)
    transition = dict(model.transition)
    (state, key), row = next(iter(transition.items()))
    del transition[(state, key)]
    transition[(state, foreign)] = row
    broken = dataclasses.replace(model, transition=transition)
    report = validate_model(broken)
    assert str(report) == reference_report(broken)
    assert report.codes().count("missing-row") == 1


def tiny_lifted():
    """`tiny_ground` lifted under its one block of two agents."""
    model = tiny_ground()
    return lift(model, range_partition(model))


BROKEN_BASES = {
    "mdp": lambda: random_mdp(np.random.default_rng(0)),
    "pomdp": two_state_pomdp,
    "ground": tiny_ground,
    "lifted": tiny_lifted,
}
SINGLETON_BLOCKS = Partitioning(((0,), (1,)), (("x", "y"),) * 2, (("o", "n"),) * 2)


@pytest.mark.parametrize(
    "kind, changes, detail",
    [
        (
            "ground",
            lambda m: {"initial_belief": Belief(StateSpace(("x", "y")), np.array([1.0, 0.0]))},
            "initial belief indexes a different state space",
        ),
        (
            "ground",
            lambda m: {"initial_belief": Belief(m.states, np.array([1.0]))},
            "initial belief has the wrong dimension",
        ),
        (
            "lifted",
            lambda m: {"initial_belief": Belief(m.states, np.array([1.5, -0.5]))},
            "initial belief entries must be finite and non-negative",
        ),
        (
            "ground",
            lambda m: {"initial_belief": Belief(m.states, np.array([0.5, 0.2]))},
            "initial belief sums to 0.7",
        ),
        (
            "ground",
            lambda m: {"actions": {"a0": (), "a1": ("x", "y")}},
            "agent 'a0' declares no actions",
        ),
        (
            "ground",
            lambda m: {"observations": {"a0": ("o", "o"), "a1": ("o", "n")}},
            "agent 'a0' has duplicate observations",
        ),
        (
            "lifted",
            lambda m: {
                "partitioning": dataclasses.replace(m.partitioning, action_ranges=(("x", "y z"),))
            },
            "partition 'p0' actions label 'y z' is not allowed",
        ),
        ("mdp", lambda m: {"reward": {**m.reward, "zz": 0.0}}, "reward for unknown state 'zz'"),
        (
            "mdp",
            lambda m: {"actions": {s: m.actions[s] for s in ("s1", "s2")}},
            "state 's0' declares no action range",
        ),
        (
            "mdp",
            lambda m: {"actions": {**m.actions, "zz": ("a0",)}},
            "action range for unknown state 'zz'",
        ),
        (
            "pomdp",
            lambda m: {"sensor": {"healthy": m.sensor["healthy"]}},
            "no sensor row for state 'ill'",
        ),
        (
            "pomdp",
            lambda m: {"sensor": {**m.sensor, "zz": m.sensor["ill"]}},
            "sensor row for unknown state 'zz'",
        ),
        ("ground", lambda m: {"agents": ()}, "no agents declared"),
        ("ground", lambda m: {"agents": ("a0", "a0")}, "duplicate agent names"),
        ("ground", lambda m: {"agents": ("a0", "a 1")}, "agent name 'a 1' is not allowed"),
        (
            "lifted",
            lambda m: {"partition_names": ("p0", "p0"), "partitioning": SINGLETON_BLOCKS},
            "duplicate partition names",
        ),
        (
            "lifted",
            lambda m: {"partition_names": ("p0", "p1")},
            "partition names do not match the blocks",
        ),
        ("lifted", lambda m: {"agents": ("a0", "a0")}, "duplicate agent names"),
        (
            "lifted",
            lambda m: {"partitioning": dataclasses.replace(m.partitioning, blocks=((0,),))},
            "blocks do not cover the agents exactly",
        ),
        ("lifted", lambda m: {"partition_names": ("p 0",)}, "partition name 'p 0' is not allowed"),
        (
            "lifted",
            lambda m: {
                "transition": {
                    **m.transition,
                    ("s0", ((1, 1), (0, 0))): m.transition[("s0", ((2, 0),))],
                }
            },
            "lifted transition row ('s0', ((1, 1), (0, 0))): malformed histogram key",
        ),
        (
            "lifted",
            lambda m: {"sensor": {**m.sensor, "s1": {((2, 0, 0),): 1.0}}},
            "lifted sensor row 's1' has out-of-range key ((2, 0, 0),)",
        ),
        (
            "lifted",
            lambda m: {"sensor": {**m.sensor, "s0": {((3, -1),): 1.0}}},
            "lifted sensor row 's0' has out-of-range key ((3, -1),)",
        ),
    ],
)
def test_validate_reports_each_broken_field(kind, changes, detail):
    model = BROKEN_BASES[kind]()
    broken = dataclasses.replace(model, **changes(model))
    assert detail in [v.detail for v in validate_model(broken).violations]
    assert str(validate_model(broken)) == reference_report(broken)


# ---------------------------------------------------------------------------
# transition tables: columns that read like the dict they were built from


def own_actions_mdp(rng, n_states):
    """An MDP whose every state declares two actions of its own: as many
    keys as entries, a sparse (states x keys) table."""
    states = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    actions = {s: (f"go{i}", f"stay{i}") for i, s in enumerate(states)}
    transition = {
        (s, a): DiscreteDistribution(random_row(rng, n_states))
        for s in states
        for a in actions[s]
    }
    return Mdp(states, actions, transition, {s: 0.0 for s in states}, 0.9)


def table_model(kind, rng, data):
    if kind == "mdp":
        return random_mdp(rng, n_states=data.draw(st.integers(1, 3)))
    if kind == "own-actions":
        return own_actions_mdp(rng, data.draw(st.integers(1, 9)))
    if kind == "pomdp":
        return random_pomdp(rng, n_states=data.draw(st.integers(1, 3)))
    if kind == "decpomdp":
        return random_team(rng, n_states=data.draw(st.integers(1, 3)))
    return random_lifted(rng, sizes=data.draw(st.sampled_from([(1,), (2,), (2, 1)])))


def foreign_key(model):
    """A key outside the model's declared ranges."""
    if isinstance(model, GroundDecPomdp):
        return ("q", "x")
    if isinstance(model, LiftedDecPomdp):
        return tuple((n + 1, 0) for n in model.partitioning.sizes)
    return "q"


def drawn_table(data, model) -> dict:
    """A {(state, key): row} dict drawn from a model's table: entries
    reordered, dropped, holding a copy of their row or another entry's row
    object, and malformed ones added (unknown states, out-of-range keys,
    rows of another width)."""
    entries = list(model.transition.items())
    if data.draw(st.booleans()):
        entries = data.draw(st.permutations(entries))
    table: dict = {}
    edits = ["keep", "keep", "copy", "share", "drop", "width", "unknown", "foreign"]
    for (state, key), row in entries:
        edit = data.draw(st.sampled_from(edits))
        if edit == "drop":
            continue
        if edit == "copy":
            row = DiscreteDistribution(row.probs.copy())
        elif edit == "share" and table:
            row = data.draw(st.sampled_from(list(table.values())))
        elif edit == "width":
            row = DiscreteDistribution(np.append(row.probs, 0.0))
        table[(state, key)] = row
        if edit == "unknown":
            table[("zz", key)] = row
        elif edit == "foreign":
            table[(state, foreign_key(model))] = row
    return table


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["mdp", "own-actions", "pomdp", "decpomdp", "lifted-decpomdp"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_transition_table_reads_like_its_dict(kind, seed, data):
    model = table_model(kind, np.random.default_rng(seed), data)
    table = drawn_table(data, model)
    columns = TransitionTable.of(table)
    assert len(columns) == len(table)
    assert list(columns) == list(table)
    assert list(columns.keys()) == list(table.keys())
    assert [(key, id(row)) for key, row in columns.items()] == [
        (key, id(row)) for key, row in table.items()
    ]
    assert list(map(id, columns.values())) == list(map(id, table.values()))
    for key, row in table.items():
        assert columns[key] is row and columns.get(key) is row and key in columns
    state, key = next(iter(model.transition))
    for absent in [("nowhere", key), (state, "nowhere"), (state, key, 0), "ab", state]:
        assert absent not in columns and columns.get(absent) is None
        with pytest.raises(KeyError):
            columns[absent]
    assert columns == table and table == columns
    assert columns == TransitionTable.of(dict(reversed(table.items())))
    if table:
        changed = dict(table)
        first = next(iter(table))
        changed[first] = DiscreteDistribution(np.append(table[first].probs, 1.0))
        assert columns != changed and changed != columns
    # each distinct state, key and row object once, in order of first use
    assert columns.states == tuple(dict.fromkeys(state for state, _ in table))
    assert columns.actions == tuple(dict.fromkeys(key for _, key in table))
    assert list(map(id, columns.rows)) == list(dict.fromkeys(map(id, table.values())))
    entry = columns.find(columns.states + ("nowhere",), columns.actions)
    for i, state in enumerate(columns.states + ("nowhere",)):
        for k, key in enumerate(columns.actions):
            found = entry[i, k]
            assert (found >= 0) == ((state, key) in table)
            if found >= 0:
                assert columns.rows[columns.row_codes[found]] is table[(state, key)]
    # a model holds the table, and validates it as the row-by-row
    # validators validate the dict itself
    broken = dataclasses.replace(model, transition=table)
    assert broken.transition == table
    reference = dataclasses.replace(model, transition=table)
    object.__setattr__(reference, "transition", table)
    assert str(validate_model(broken)) == reference_report(reference)


def test_transition_tables_are_read_only():
    model = random_mdp(np.random.default_rng(0))
    key = next(iter(model.transition))
    with pytest.raises(TypeError):
        model.transition[key] = model.transition[key]
    with pytest.raises(ValueError):
        model.transition.state_codes[0] = 1
    with pytest.raises(TypeError, match="not a .state, key. pair"):
        TransitionTable.of({"s0": model.transition[key]})
    with pytest.raises(ValueError, match="twice"):
        TransitionTable(("s",), ("a",), (model.transition[key],), [0, 0], [0, 0], [0, 0])


def test_transition_table_numbers_columns_in_order_of_first_use():
    rows = [DiscreteDistribution(np.array([1.0])) for _ in range(3)]
    table = TransitionTable(("s", "t", "u"), ("a", "b"), rows, [2, 0, 2], [1, 1, 0], [2, 2, 0])
    assert table.states == ("u", "s") and table.actions == ("b", "a")
    assert [row is want for row, want in zip(table.rows, (rows[2], rows[0]))] == [True, True]
    assert table.state_codes.tolist() == [0, 1, 0]
    assert table.action_codes.tolist() == [0, 0, 1]
    assert table.row_codes.tolist() == [0, 0, 1]
    assert list(table) == [("u", "b"), ("s", "b"), ("u", "a")]
    assert table[("u", "a")] is rows[0] and table.get(("t", "a")) is None
