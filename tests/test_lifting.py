"""Lifting checks: partition discovery, aggregation, and round trips."""

import itertools
import re

import numpy as np
import pytest

from declift.errors import CapacityExceeded, NotLiftable, RangeMismatch
from declift.lifting import (
    LiftedDecPomdp,
    Partitioning,
    ground,
    lift,
    range_partition,
    symmetry_refine,
)
from declift.models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    StateSpace,
    validate_model,
)


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


@pytest.mark.parametrize("table", ["transition", "sensor"])
def test_lift_rejects_joint_values_outside_the_declared_range(table):
    model = symmetric_pair()
    if table == "transition":
        model.transition[("lo", ("zz", "x"))] = DiscreteDistribution([1.0, 0.0])
    else:
        model.sensor["lo"][("zz", "o")] = 0.0
    with pytest.raises(RangeMismatch, match="'zz'"):
        lift(model, range_partition(model))


@pytest.mark.parametrize("table", ["transition", "sensor"])
def test_lift_rejects_joint_tuples_shorter_than_the_agent_list(table):
    model = symmetric_pair()
    if table == "transition":
        model.transition[("lo", ("x",))] = DiscreteDistribution([1.0, 0.0])
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
