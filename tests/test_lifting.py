"""Lifting checks: partition discovery, aggregation, and round trips."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declift.counting import range_positions
from declift.errors import CapacityExceeded, NotLiftable, RangeMismatch
from declift.lifting import (
    LiftedDecPomdp,
    Partitioning,
    _check_partitioning,
    _joint_to_key,
    _SwapCheck,
    ground,
    key_multiplicity,
    lift,
    range_partition,
    symmetry_refine,
)
from declift.models import (
    PROB_TOL,
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    StateSpace,
    validate_model,
)

from test_solvers import random_row


def symmetric_pair(sensor=None, transition_rule=None):
    """Two interchangeable agents over two states."""
    states = StateSpace(("lo", "hi"))
    agents = ("a0", "a1")
    actions = {a: ("x", "y") for a in agents}
    observations = {a: ("o", "n") for a in agents}
    transition = {}
    for s in states:
        for joint in itertools.product(("x", "y"), repeat=2):
            if transition_rule is None:
                row = [0.5, 0.5] if joint.count("x") == 1 else [1.0, 0.0]
            else:
                row = transition_rule(s, joint)
            transition[(s, joint)] = DiscreteDistribution(row)
    if sensor is None:
        sensor = {
            ("o", "o"): 0.25,
            ("o", "n"): 0.25,
            ("n", "o"): 0.25,
            ("n", "n"): 0.25,
        }
    return GroundDecPomdp(
        agents=agents,
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        sensor={s: dict(sensor) for s in states},
        reward={"lo": 0.0, "hi": 1.0},
        discount=0.9,
        initial_belief=Belief(states, np.array([1.0, 0.0])),
    )


def test_range_partition_groups_by_ranges():
    model = symmetric_pair()
    part = range_partition(model)
    assert part.blocks == ((0, 1),)
    assert part.action_ranges == (("x", "y"),)

    # give the second agent a different observation range: two partitions
    model2 = GroundDecPomdp(
        agents=model.agents,
        states=model.states,
        actions=model.actions,
        observations={"a0": ("o", "n"), "a1": ("n", "o")},
        transition=model.transition,
        sensor=model.sensor,
        reward=model.reward,
        discount=model.discount,
        initial_belief=model.initial_belief,
    )
    part2 = range_partition(model2)
    assert part2.blocks == ((0,), (1,))


def test_symmetry_refine_keeps_symmetric_model_whole():
    model = symmetric_pair()
    part = symmetry_refine(model, range_partition(model))
    assert part.blocks == ((0, 1),)


def test_symmetry_refine_splits_on_asymmetric_transition():
    def rule(state, joint):
        # agent 0's action alone decides the next state: not interchangeable
        return [1.0, 0.0] if joint[0] == "x" else [0.0, 1.0]

    model = symmetric_pair(transition_rule=rule)
    part = symmetry_refine(model, range_partition(model))
    assert part.blocks == ((0,), (1,))


def test_symmetry_refine_regroups_nonadjacent_members():
    # three agents where 0 and 2 are interchangeable but 1 is special;
    # every swap with 1 fails, yet {0, 2} must survive as one block
    states = StateSpace(("g", "b"))
    agents = ("a0", "a1", "a2")
    actions = {a: ("x", "y") for a in agents}
    observations = {a: ("o",) for a in agents}
    transition = {}
    for s in states:
        for joint in itertools.product(("x", "y"), repeat=3):
            row = [1.0, 0.0] if joint[1] == "x" else [0.0, 1.0]
            transition[(s, joint)] = DiscreteDistribution(row)
    model = GroundDecPomdp(
        agents=agents,
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        sensor={s: {("o", "o", "o"): 1.0} for s in states},
        reward={"g": 1.0, "b": 0.0},
        discount=0.9,
        initial_belief=Belief(states, np.array([1.0, 0.0])),
    )
    part = symmetry_refine(model, range_partition(model))
    assert part.blocks == ((0, 2), (1,))


def test_symmetry_refine_splits_on_missing_swapped_row():
    # agent 1 only ever plays x: swapping it with 0 or 2 maps (y, x, x)
    # onto (x, y, x), which has no row, while 0 and 2 stay interchangeable;
    # all rows are equal, so only the missing row can split the block
    states = StateSpace(("g", "b"))
    agents = ("a0", "a1", "a2")
    transition = {
        (s, joint): DiscreteDistribution([1.0, 0.0])
        for s in states
        for joint in itertools.product(("x", "y"), repeat=3)
        if joint[1] == "x"
    }
    model = GroundDecPomdp(
        agents=agents,
        states=states,
        actions={a: ("x", "y") for a in agents},
        observations={a: ("o",) for a in agents},
        transition=transition,
        sensor={s: {("o", "o", "o"): 1.0} for s in states},
        reward={"g": 1.0, "b": 0.0},
        discount=0.9,
        initial_belief=Belief(states, np.array([1.0, 0.0])),
    )
    part = symmetry_refine(model, range_partition(model))
    assert part.blocks == ((0, 2), (1,))


@pytest.mark.parametrize("factor, blocks", [(1.01, ((0,), (1,))), (0.99, ((0, 1),))])
def test_symmetry_refine_transition_tolerance(factor, blocks):
    shift = factor * PROB_TOL

    def rule(state, joint):
        return [0.5 + shift, 0.5 - shift] if joint == ("x", "y") else [0.5, 0.5]

    model = symmetric_pair(transition_rule=rule)
    assert symmetry_refine(model, range_partition(model)).blocks == blocks


@pytest.mark.parametrize(
    "sensor",
    [
        {("o", "n"): 0.3, ("n", "o"): 0.2, ("o", "o"): 0.25, ("n", "n"): 0.25},
        # the swapped entry is missing, so it reads as probability 0
        {("o", "n"): 0.5, ("o", "o"): 0.5},
    ],
)
def test_symmetry_refine_splits_on_sensor_only_asymmetry(sensor):
    model = symmetric_pair(sensor=sensor)
    assert symmetry_refine(model, range_partition(model)).blocks == ((0,), (1,))


@pytest.mark.parametrize(
    "sensor, blocks",
    [
        ({("o", "n"): 0.5, ("o", "o"): 0.5}, ((0,), (1,))),
        ({("o", "n"): 0.5, ("n", "o"): 0.5}, ((0, 1),)),
    ],
)
def test_symmetry_refine_without_transition_rows(sensor, blocks):
    model = dataclasses.replace(symmetric_pair(sensor=sensor), transition={})
    assert symmetry_refine(model, range_partition(model)).blocks == blocks


def swapped(values, i, j):
    """values with the entries at positions i and j traded."""
    out = list(values)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def loop_swap_invariant(model, i, j, tol):
    """Row-by-row form of the swap check behind `symmetry_refine`."""
    for (state, joint), dist in model.transition.items():
        other = model.transition.get((state, swapped(joint, i, j)))
        if other is None or np.max(np.abs(dist.probs - other.probs)) > tol:
            return False
    for row in model.sensor.values():
        for joint, prob in row.items():
            if abs(prob - row.get(swapped(joint, i, j), 0.0)) > tol:
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_swap_check_matches_row_by_row_loop(data):
    # a count-symmetric three-agent model, then edits that break symmetry
    # by a missing row, a joint tuple missing from every state, a shift
    # around the tolerance or a foreign label
    states = StateSpace(data.draw(st.sampled_from([("lo", "hi"), ("x", "hi")])))
    agents = ("a0", "a1", "a2")
    # the last agent shares the label "x" with the others, at either position
    last_actions = data.draw(st.sampled_from([("x", "y"), ("x", "z"), ("z", "x")]))
    actions = {"a0": ("x", "y"), "a1": ("x", "y"), "a2": last_actions}
    observations = {a: ("o", "n") for a in agents}
    # with a zero slope all rows are equal, so only a missing row can tell
    slope = data.draw(st.sampled_from([0.0, 0.1]))
    transition = {}
    for s in states:
        for joint in itertools.product(*(actions[a] for a in agents)):
            p = 0.2 + slope * (joint.count("x") + (s == "hi"))
            transition[(s, joint)] = np.array([p, 1.0 - p])
    sensor = {
        s: {jo: 0.125 for jo in itertools.product(("o", "n"), repeat=3)} for s in states
    }
    shift = st.sampled_from([0.5, 0.99, 1.01, 3.0]).map(lambda f: f * PROB_TOL)
    edits = [
        "drop-row", "shift-row", "drop-joint", "orphan", "drop-obs", "shift-obs", "drop-obs-joint"
    ]
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(edits))
        if edit == "orphan" and transition:
            # a joint action kept in one state only, whose agent swaps have
            # no row in any state
            state, joint = data.draw(st.sampled_from(sorted(transition)))
            swaps = {swapped(joint, i, j) for i, j in itertools.combinations(range(3), 2)}
            swaps.discard(joint)
            transition = {
                (s, jt): row
                for (s, jt), row in transition.items()
                if jt not in swaps and (jt != joint or s == state)
            }
        elif edit == "drop-joint" and transition:
            # no state keeps a row for this joint action, so its swap is
            # missing from the table's distinct tuples
            _, joint = data.draw(st.sampled_from(sorted(transition)))
            transition = {key: row for key, row in transition.items() if key[1] != joint}
        elif edit == "drop-obs-joint":
            joint = data.draw(st.sampled_from(sorted(itertools.product(("o", "n"), repeat=3))))
            for row in sensor.values():
                row.pop(joint, None)
        elif edit.endswith("row") and transition:
            key = data.draw(st.sampled_from(sorted(transition)))
            if edit == "drop-row":
                del transition[key]
            else:
                transition[key] = transition[key] + data.draw(shift) * np.array([1.0, -1.0])
        elif edit.endswith("obs"):
            row = sensor[data.draw(st.sampled_from(states.labels))]
            if row:
                joint = data.draw(st.sampled_from(sorted(row)))
                if edit == "drop-obs":
                    del row[joint]
                else:
                    row[joint] += data.draw(shift)
    if data.draw(st.booleans()):
        # entries in any order, so codes given in order of first use vary
        transition = dict(data.draw(st.permutations(list(transition.items()))))
    # equal joint tuples as one object, as in a parsed model, or each key
    # with its own copy
    if data.draw(st.booleans()):
        one = {}
        transition = {(s, one.setdefault(j, j)): row for (s, j), row in transition.items()}
        sensor = {s: {one.setdefault(j, j): p for j, p in r.items()} for s, r in sensor.items()}
    else:
        transition = {(s, tuple(list(j))): row for (s, j), row in transition.items()}
        sensor = {s: {tuple(list(j)): p for j, p in r.items()} for s, r in sensor.items()}
    # equal rows share one object, as in a parsed model, or none do
    rows = {} if data.draw(st.booleans()) else None
    for key, row in transition.items():
        dist = DiscreteDistribution(row)
        if rows is not None:
            dist = rows.setdefault(row.tobytes(), dist)
        transition[key] = dist
    model = GroundDecPomdp(
        agents=agents,
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        sensor=sensor,
        reward={s: float(i) for i, s in enumerate(states)},
        discount=0.9,
        initial_belief=Belief(states, np.array([1.0, 0.0])),
    )
    check = _SwapCheck(model)
    for i, j in itertools.combinations(range(3), 2):
        assert check.invariant(i, j, PROB_TOL) == loop_swap_invariant(model, i, j, PROB_TOL)


def test_symmetry_refine_rejects_short_joint_tuples():
    model = symmetric_pair()
    transition = dict(model.transition)
    transition[("lo", ("x",))] = DiscreteDistribution([1.0, 0.0])
    short = dataclasses.replace(model, transition=transition)
    with pytest.raises(RangeMismatch, match="1 values for 2 agents"):
        symmetry_refine(short, range_partition(short))
    sensor = {s: dict(row) for s, row in model.sensor.items()}
    sensor["lo"][("o",)] = 0.0
    short = dataclasses.replace(model, sensor=sensor)
    message = "row for state 'lo': joint tuple ('o',) has 1 values for 2 agents"
    with pytest.raises(RangeMismatch, match=re.escape(message)):
        symmetry_refine(short, range_partition(short))


def swap_team(data):
    """A three-agent model drawn like those of
    `test_swap_check_matches_row_by_row_loop`: count-symmetric, then edited
    to break symmetry by missing rows or joint tuples and by shifts around
    the tolerance."""
    return swap_tables(data)[0]


def swap_tables(data):
    """(model, transition, sensor): a `swap_team` model and the dicts it
    was built from."""
    states = StateSpace(data.draw(st.sampled_from([("lo", "hi"), ("x", "hi")])))
    agents = ("a0", "a1", "a2")
    last_actions = data.draw(st.sampled_from([("x", "y"), ("x", "z"), ("z", "x")]))
    actions = {"a0": ("x", "y"), "a1": ("x", "y"), "a2": last_actions}
    slope = data.draw(st.sampled_from([0.0, 0.1]))
    transition = {}
    for s in states:
        for joint in itertools.product(*(actions[a] for a in agents)):
            p = 0.2 + slope * (joint.count("x") + (s == "hi"))
            transition[(s, joint)] = np.array([p, 1.0 - p])
    sensor = {
        s: {jo: 0.125 for jo in itertools.product(("o", "n"), repeat=3)} for s in states
    }
    shift = st.sampled_from([0.5, 0.99, 1.01, 3.0]).map(lambda f: f * PROB_TOL)
    edits = [
        "drop-row", "shift-row", "drop-joint", "orphan", "drop-obs", "shift-obs", "drop-obs-joint"
    ]
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(edits))
        if edit == "orphan" and transition:
            state, joint = data.draw(st.sampled_from(sorted(transition)))
            swaps = {swapped(joint, i, j) for i, j in itertools.combinations(range(3), 2)}
            swaps.discard(joint)
            transition = {
                (s, jt): row
                for (s, jt), row in transition.items()
                if jt not in swaps and (jt != joint or s == state)
            }
        elif edit == "drop-joint" and transition:
            _, joint = data.draw(st.sampled_from(sorted(transition)))
            transition = {key: row for key, row in transition.items() if key[1] != joint}
        elif edit == "drop-obs-joint":
            joint = data.draw(st.sampled_from(sorted(itertools.product(("o", "n"), repeat=3))))
            for row in sensor.values():
                row.pop(joint, None)
        elif edit.endswith("row") and transition:
            key = data.draw(st.sampled_from(sorted(transition)))
            if edit == "drop-row":
                del transition[key]
            else:
                transition[key] = transition[key] + data.draw(shift) * np.array([1.0, -1.0])
        elif edit.endswith("obs"):
            row = sensor[data.draw(st.sampled_from(states.labels))]
            if row:
                joint = data.draw(st.sampled_from(sorted(row)))
                if edit == "drop-obs":
                    del row[joint]
                else:
                    row[joint] += data.draw(shift)
    if data.draw(st.booleans()):
        transition = dict(data.draw(st.permutations(list(transition.items()))))
    rows = {} if data.draw(st.booleans()) else None
    for key, row in transition.items():
        dist = DiscreteDistribution(row)
        if rows is not None:
            dist = rows.setdefault(row.tobytes(), dist)
        transition[key] = dist
    model = GroundDecPomdp(
        agents=agents,
        states=states,
        actions=actions,
        observations={a: ("o", "n") for a in agents},
        transition=transition,
        sensor=sensor,
        reward={s: float(i) for i, s in enumerate(states)},
        discount=0.9,
        initial_belief=Belief(states, np.array([1.0, 0.0])),
    )
    return model, transition, sensor


def oracle_swap_invariant(transition: dict, sensor: dict, i, j, tol) -> bool:
    """Brute-force swap check, by lookups in the dicts a model was built from."""
    for (state, joint), dist in transition.items():
        other = transition.get((state, swapped(joint, i, j)))
        if other is None or np.max(np.abs(dist.probs - other.probs)) > tol:
            return False
    for row in sensor.values():
        for joint, prob in row.items():
            if abs(prob - row.get(swapped(joint, i, j), 0.0)) > tol:
                return False
    return True


def oracle_refine(transition: dict, sensor: dict, candidate: Partitioning, tol) -> tuple:
    """The blocks of `symmetry_refine`, each agent joining the first
    sub-block whose first member it swaps with under the oracle."""
    blocks = []
    for block in candidate.blocks:
        subgroups = []
        for idx in block:
            for sub in subgroups:
                if oracle_swap_invariant(transition, sensor, sub[0], idx, tol):
                    sub.append(idx)
                    break
            else:
                subgroups.append([idx])
        blocks.extend(tuple(sub) for sub in subgroups)
    return tuple(sorted(blocks))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), tol=st.sampled_from([PROB_TOL, 2 * PROB_TOL]))
def test_symmetry_refine_matches_a_brute_force_swap_oracle(data, tol):
    # missing swap partners, rows within and just beyond the tolerance and
    # sensor entries missing on one side, judged from the dicts themselves
    model, transition, sensor = swap_tables(data)
    check = _SwapCheck(model)
    for i, j in itertools.combinations(range(3), 2):
        assert check.invariant(i, j, tol) == oracle_swap_invariant(transition, sensor, i, j, tol)
    candidate = range_partition(model)
    refined = symmetry_refine(model, candidate, tol)
    assert refined.blocks == oracle_refine(transition, sensor, candidate, tol)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_swap_check_agrees_with_lift_of_the_pair(data):
    # agents i and j are interchangeable exactly when the model lifts under
    # the pair block (i, j) with every other agent on its own
    model = swap_team(data)
    check = _SwapCheck(model)
    for i, j in itertools.combinations(range(3), 2):
        agent_i, agent_j = model.agents[i], model.agents[j]
        if model.actions[agent_i] != model.actions[agent_j]:
            continue
        blocks = ((i, j),) + tuple((k,) for k in range(3) if k not in (i, j))
        part = Partitioning(
            blocks,
            tuple(model.actions[model.agents[b[0]]] for b in blocks),
            tuple(model.observations[model.agents[b[0]]] for b in blocks),
        )
        try:
            lift(model, part)
        except NotLiftable:
            liftable = False
        else:
            liftable = True
        assert check.invariant(i, j, PROB_TOL) == liftable


def test_lift_aggregates_sensor_mass():
    model = symmetric_pair()
    lifted = lift(model, symmetry_refine(model, range_partition(model)))
    row = lifted.sensor["lo"]
    assert row[((2, 0),)] == pytest.approx(0.25, abs=1e-15)
    assert row[((1, 1),)] == pytest.approx(0.5, abs=1e-15)
    assert row[((0, 2),)] == pytest.approx(0.75 - 0.5, abs=1e-15)
    # transition keeps one representative row per histogram
    assert np.allclose(
        lifted.transition[("lo", ((1, 1),))].probs, [0.5, 0.5]
    )
    assert validate_model(lifted).ok


def test_lift_accepts_correlated_symmetric_sensor():
    sensor = {("o", "o"): 0.5, ("n", "n"): 0.5}
    model = symmetric_pair(sensor=sensor)
    lifted = lift(model, range_partition(model))
    assert lifted.sensor["lo"] == {((2, 0),): 0.5, ((0, 2),): 0.5}


def test_lift_rejects_asymmetric_transition():
    def rule(state, joint):
        if joint == ("x", "y"):
            return [1.0, 0.0]
        if joint == ("y", "x"):
            return [0.0, 1.0]
        return [0.5, 0.5]

    model = symmetric_pair(transition_rule=rule)
    with pytest.raises(NotLiftable) as err:
        lift(model, range_partition(model))
    message = str(err.value)
    assert "('x', 'y')" in message and "('y', 'x')" in message


def test_lift_rejects_missing_counterpart_row():
    model = symmetric_pair()
    transition = dict(model.transition)
    del transition[("lo", ("x", "y"))]
    broken = GroundDecPomdp(
        agents=model.agents,
        states=model.states,
        actions=model.actions,
        observations=model.observations,
        transition=transition,
        sensor=model.sensor,
        reward=model.reward,
        discount=model.discount,
        initial_belief=model.initial_belief,
    )
    with pytest.raises(NotLiftable):
        lift(broken, range_partition(broken))


def test_lift_rejects_asymmetric_sensor():
    sensor = {("o", "n"): 0.6, ("n", "o"): 0.4}
    model = symmetric_pair(sensor=sensor)
    with pytest.raises(NotLiftable) as err:
        lift(model, range_partition(model))
    assert "sensor" in str(err.value)


def test_lift_checks_partitioning_against_model():
    model = symmetric_pair()
    bad = Partitioning(
        blocks=((0,), (1,)),
        action_ranges=(("x", "y"), ("y", "x")),
        observation_ranges=(("o", "n"), ("o", "n")),
    )
    with pytest.raises(RangeMismatch):
        lift(model, bad)


@pytest.mark.parametrize("blocks", [((0,),), ((0,), (2,)), ((0, 1, 2),)])
def test_lift_rejects_a_partitioning_that_does_not_cover_the_agents(blocks):
    # an agent missing, one in its place, or one too many
    model = symmetric_pair()
    part = Partitioning(blocks, (("x", "y"),) * len(blocks), (("o", "n"),) * len(blocks))
    with pytest.raises(RangeMismatch, match="^partitioning does not cover the agents exactly$"):
        lift(model, part)


@pytest.mark.parametrize("table", ["transition", "sensor"])
def test_lift_rejects_joint_values_outside_the_declared_range(table):
    model = symmetric_pair()
    if table == "transition":
        transition = {**model.transition, ("lo", ("zz", "x")): DiscreteDistribution([1.0, 0.0])}
        model = dataclasses.replace(model, transition=transition)
    else:
        model.sensor["lo"][("zz", "o")] = 0.0
    with pytest.raises(RangeMismatch, match="'zz'"):
        lift(model, range_partition(model))


@pytest.mark.parametrize("bad, message", [(("zz", "o"), "'zz'"), (("o",), "1 values for 2")])
def test_lift_reads_a_whole_sensor_row_before_judging_its_keys(bad, message):
    # the bad tuple sits between the two tuples behind key (1, 1), so a pass
    # that stopped at it would see that key short of a tuple
    model = symmetric_pair()
    row = list(model.sensor["lo"].items())
    row.insert(2, (bad, 0.0))
    model.sensor["lo"] = dict(row)
    with pytest.raises(RangeMismatch, match=message):
        lift(model, range_partition(model))


@pytest.mark.parametrize("table", ["transition", "sensor"])
def test_lift_rejects_joint_tuples_shorter_than_the_agent_list(table):
    model = symmetric_pair()
    if table == "transition":
        transition = {**model.transition, ("lo", ("x",)): DiscreteDistribution([1.0, 0.0])}
        model = dataclasses.replace(model, transition=transition)
        row = "transition row for state 'lo'"
    else:
        model.sensor["lo"][("o",)] = 0.0
        row = "sensor row 'lo'"
    with pytest.raises(RangeMismatch, match=re.escape(row) + ".*1 values for 2 agents"):
        lift(model, range_partition(model))


def test_ground_splits_mass_uniformly():
    model = symmetric_pair()
    lifted = lift(model, range_partition(model))
    back = ground(lifted)
    assert back.sensor["lo"][("o", "n")] == pytest.approx(0.25, abs=1e-15)
    assert back.sensor["lo"][("n", "o")] == pytest.approx(0.25, abs=1e-15)


def test_round_trip_ground_lift_ground():
    model = symmetric_pair()
    part = symmetry_refine(model, range_partition(model))
    lifted = lift(model, part)
    back = ground(lifted)
    assert back.agents == model.agents
    assert back.transition == model.transition
    assert back.sensor == model.sensor
    assert back.reward == model.reward
    again = lift(back, part)
    assert again.transition == lifted.transition
    assert again.sensor == lifted.sensor


def test_ground_capacity_cap():
    model = symmetric_pair()
    lifted = lift(model, range_partition(model))
    with pytest.raises(CapacityExceeded) as err:
        ground(lifted, cap=3)
    assert err.value.cap == 3


def test_validate_lifted_missing_row_and_bad_key():
    model = symmetric_pair()
    lifted = lift(model, range_partition(model))
    transition = dict(lifted.transition)
    del transition[("lo", ((2, 0),))]
    transition[("hi", ((3, 0),))] = DiscreteDistribution([0.5, 0.5])
    broken = LiftedDecPomdp(
        agents=lifted.agents,
        states=lifted.states,
        partition_names=lifted.partition_names,
        partitioning=lifted.partitioning,
        transition=transition,
        sensor=lifted.sensor,
        reward=lifted.reward,
        discount=lifted.discount,
        initial_belief=lifted.initial_belief,
    )
    codes = validate_model(broken).codes()
    assert "missing-row" in codes
    assert "key" in codes


def test_validate_lifted_rejects_empty_partition():
    model = symmetric_pair()
    lifted = lift(model, range_partition(model))
    broken = LiftedDecPomdp(
        agents=lifted.agents,
        states=lifted.states,
        partition_names=("p0", "p1"),
        partitioning=Partitioning(
            blocks=((0, 1), ()),
            action_ranges=(("x", "y"), ("x", "y")),
            observation_ranges=(("o", "n"), ("o", "n")),
        ),
        transition=lifted.transition,
        sensor=lifted.sensor,
        reward=lifted.reward,
        discount=lifted.discount,
        initial_belief=lifted.initial_belief,
    )
    codes = validate_model(broken).codes()
    assert "partition" in codes


# ---------------------------------------------------------------------------
# table-at-a-time lift and ground against the row-by-row originals


def reference_lift(model, partitioning, tol=PROB_TOL):
    """The row-by-row `lift` the table version replaced, kept as its reference."""
    _check_partitioning(model, partitioning)
    blocks = partitioning.blocks
    action_positions = [range_positions(r) for r in partitioning.action_ranges]
    obs_positions = [range_positions(r) for r in partitioning.observation_ranges]

    def joint_key(joint, positions, row):
        if len(joint) != len(model.agents):
            raise RangeMismatch(
                f"{row}: joint tuple {joint!r} has {len(joint)} values for "
                f"{len(model.agents)} agents"
            )
        return _joint_to_key(joint, blocks, positions)

    transition, witness, seen_count = {}, {}, {}
    for (state, joint), dist in model.transition.items():
        key = (
            state,
            joint_key(joint, action_positions, f"transition row for state {state!r}"),
        )
        seen_count[key] = seen_count.get(key, 0) + 1
        if key not in transition:
            transition[key] = dist
            witness[key] = joint
        else:
            diff = float(np.max(np.abs(transition[key].probs - dist.probs)))
            if diff > tol:
                raise NotLiftable(
                    f"transition rows for {witness[key]!r} and {joint!r} in state "
                    f"{state!r} differ by {diff:g}",
                    detail={"state": state, "first": witness[key], "second": joint},
                )
    for (state, key), count in seen_count.items():
        expected = key_multiplicity(key)
        if count != expected:
            raise NotLiftable(
                f"state {state!r} has transition rows for {count} of the "
                f"{expected} joint actions behind key {key!r}",
                detail={"state": state, "key": key},
            )
    sensor = {}
    for state, row in model.sensor.items():
        sums, bounds, first = {}, {}, {}
        for joint, prob in row.items():
            key = joint_key(joint, obs_positions, f"sensor row {state!r}")
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + prob, count + 1)
            lo, hi = bounds.get(key, (prob, prob))
            bounds[key] = (min(lo, prob), max(hi, prob))
            first.setdefault(key, joint)
        lifted_row = {}
        for key, (total, count) in sums.items():
            lo, hi = bounds[key]
            if count < key_multiplicity(key):
                lo = min(lo, 0.0)
            if hi - lo > tol:
                raise NotLiftable(
                    f"sensor probabilities behind key {key!r} in state {state!r} "
                    f"spread over [{lo:g}, {hi:g}] (first tuple {first[key]!r})",
                    detail={"state": state, "key": key},
                )
            if total != 0.0:
                lifted_row[key] = total
        sensor[state] = lifted_row
    return transition, sensor


def reference_ground(model):
    """The row-by-row `ground` tables: every joint tuple keyed once per state."""
    part = model.partitioning
    ranges = {}
    for block, acts, obs in zip(part.blocks, part.action_ranges, part.observation_ranges):
        for idx in block:
            ranges[idx] = (acts, obs)
    action_ranges = [ranges[i][0] for i in range(len(model.agents))]
    obs_ranges = [ranges[i][1] for i in range(len(model.agents))]
    action_positions = [range_positions(r) for r in part.action_ranges]
    obs_positions = [range_positions(r) for r in part.observation_ranges]
    transition = {}
    for state in model.states:
        for joint in itertools.product(*action_ranges):
            row = model.transition.get(
                (state, _joint_to_key(joint, part.blocks, action_positions))
            )
            if row is not None:
                transition[(state, joint)] = row
    sensor = {}
    for state in model.states:
        split = {
            key: value / key_multiplicity(key)
            for key, value in model.sensor.get(state, {}).items()
        }
        row = {}
        for joint in itertools.product(*obs_ranges):
            prob = split.get(_joint_to_key(joint, part.blocks, obs_positions))
            if prob is not None and prob != 0.0:
                row[joint] = prob
        sensor[state] = row
    return transition, sensor


def interchangeable_team(rng, sizes, n_states, actions):
    """Ground team whose rows depend on each block's counts only.

    Built tuple by tuple: every joint tuple with the same per-block counts
    gets the same transition row, and each key's sensor mass is shared
    equally by its tuples.  Returns the model and its partitioning.
    """
    agents = tuple(f"a{i}" for i in range(sum(sizes)))
    blocks, start = [], 0
    for n_k in sizes:
        blocks.append(tuple(range(start, start + n_k)))
        start += n_k
    observations = ("o", "n")
    states = StateSpace(tuple(f"s{i}" for i in range(n_states)))

    def counts(joint, labels):
        return tuple(tuple(joint[i] for i in b).count(v) for b in blocks for v in labels)

    rows = {}
    transition = {}
    for s in states:
        for joint in itertools.product(actions, repeat=len(agents)):
            key = (s, counts(joint, actions))
            if key not in rows:
                rows[key] = DiscreteDistribution(random_row(rng, n_states))
            transition[(s, joint)] = rows[key]
    sensor = {}
    for s in states:
        by_key = {}
        for joint in itertools.product(observations, repeat=len(agents)):
            by_key.setdefault(counts(joint, observations), []).append(joint)
        mass = random_row(rng, len(by_key))
        sensor[s] = {
            joint: float(m) / len(joints)
            for m, joints in zip(mass, by_key.values())
            for joint in joints
        }
    model = GroundDecPomdp(
        agents=agents,
        states=states,
        actions={a: actions for a in agents},
        observations={a: observations for a in agents},
        transition=transition,
        sensor=sensor,
        reward={s: float(rng.uniform(-1.0, 1.0)) for s in states},
        discount=0.9,
        initial_belief=Belief(states, random_row(rng, n_states)),
    )
    part = Partitioning(
        tuple(blocks), tuple(actions for _ in sizes), tuple(observations for _ in sizes)
    )
    return model, part


team_shapes = st.tuples(
    st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2)]),
    st.integers(1, 3),
    st.sampled_from([("x", "y"), ("x", "y", "z")]),
    st.integers(0, 2**32 - 1),
)


def same_tables(ours, theirs):
    """Equal keys in the same order and equal values, bit for bit."""
    transition, sensor = theirs
    assert list(ours.transition) == list(transition)
    assert all(ours.transition[k] is transition[k] for k in transition)
    assert list(ours.sensor) == list(sensor)
    for state, row in sensor.items():
        assert list(ours.sensor[state].items()) == list(row.items())


@settings(max_examples=40, deadline=None)
@given(shape=team_shapes)
def test_ground_of_lift_equals_the_model_table_for_table(shape):
    sizes, n_states, actions, seed = shape
    model, part = interchangeable_team(
        np.random.default_rng(seed), sizes, n_states, actions
    )
    lifted = lift(model, part)
    same_tables(lifted, reference_lift(model, part))
    back = ground(lifted)
    same_tables(back, reference_ground(lifted))
    assert back.agents == model.agents
    assert back.actions == model.actions
    assert back.observations == model.observations
    assert back.transition == model.transition
    assert list(back.sensor) == list(model.sensor)
    for state, row in model.sensor.items():
        # lifting sums a key's equal shares and grounding divides them again
        assert back.sensor[state].keys() == row.keys()
        for joint, prob in row.items():
            assert back.sensor[state][joint] == pytest.approx(prob, rel=1e-15, abs=0)


def test_lift_and_ground_round_trip_a_team_without_agents():
    # the one joint tuple () is one collapsed group, in both directions
    model, part = interchangeable_team(np.random.default_rng(0), (), 2, ("x", "y"))
    lifted = lift(model, part)
    same_tables(lifted, reference_lift(model, part))
    back = ground(lifted)
    same_tables(back, reference_ground(lifted))
    assert back.transition == model.transition
    assert back.sensor == model.sensor


def outcome(fn, *args):
    """The tables a call returns, or the type, text and detail of its error."""
    try:
        result = fn(*args)
    except (NotLiftable, RangeMismatch) as err:
        return type(err), str(err), getattr(err, "detail", None)
    if isinstance(result, LiftedDecPomdp):
        return result.transition, result.sensor
    return result


def insert_at(data, table: dict, key, value) -> dict:
    """A copy of `table` with `key` inserted at a drawn position."""
    items = list(table.items())
    items.insert(data.draw(st.integers(0, len(items))), (key, value))
    return dict(items)


@settings(max_examples=80, deadline=None)
@given(shape=team_shapes, data=st.data())
def test_lift_reports_the_row_by_row_witness(shape, data):
    sizes, n_states, actions, seed = shape
    model, part = interchangeable_team(
        np.random.default_rng(seed), sizes, n_states, actions
    )
    transition, sensor = dict(model.transition), {s: dict(r) for s, r in model.sensor.items()}
    shift = st.sampled_from([0.5, 2.0, 1e6]).map(lambda f: f * PROB_TOL)
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(
            st.sampled_from(
                ["shift-row", "drop-row", "drop-joint", "shift-obs", "drop-obs", "foreign", "short"]
            )
        )
        if edit == "drop-joint" and transition:
            # a joint action without a row in any state
            _, joint = data.draw(st.sampled_from(list(transition)))
            transition = {key: row for key, row in transition.items() if key[1] != joint}
        elif edit in ("shift-row", "drop-row") and transition:
            key = data.draw(st.sampled_from(list(transition)))
            if edit == "drop-row":
                del transition[key]
            else:
                probs = transition[key].probs.copy()
                probs[:2] += data.draw(shift) * np.array([1.0, -1.0])[: len(probs)]
                transition[key] = DiscreteDistribution(probs)
        elif edit in ("shift-obs", "drop-obs"):
            row = sensor[data.draw(st.sampled_from(model.states.labels))]
            if row:
                joint = data.draw(st.sampled_from(list(row)))
                if edit == "drop-obs":
                    del row[joint]
                else:
                    row[joint] += data.draw(shift)
        else:
            joint = ("q",) + ("x",) * (len(model.agents) - 1)
            if edit == "short":
                joint = joint[1:]
            state = data.draw(st.sampled_from(model.states.labels))
            if data.draw(st.booleans()):
                row = DiscreteDistribution(np.full(n_states, 1.0 / n_states))
                transition = insert_at(data, transition, (state, joint), row)
            else:
                sensor[state] = insert_at(data, sensor[state], joint, 0.0)
    if data.draw(st.booleans()):
        # equal rows in separate objects: every row is compared on its own
        transition = {
            key: DiscreteDistribution(dist.probs.copy()) for key, dist in transition.items()
        }
    if data.draw(st.booleans()):
        # equal joint tuples as one object, as in a parsed model
        one = {}
        transition = {(s, one.setdefault(j, j)): row for (s, j), row in transition.items()}
        sensor = {s: {one.setdefault(j, j): p for j, p in r.items()} for s, r in sensor.items()}
    broken = dataclasses.replace(model, transition=transition, sensor=sensor)
    partitioning = data.draw(st.sampled_from([part, range_partition(model)]))
    assert outcome(lift, broken, partitioning) == outcome(reference_lift, broken, partitioning)
