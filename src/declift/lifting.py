"""Aggregation of interchangeable agents into counting form, and back.

A team model whose dynamics and sensing are invariant under permuting some
agents does not need per-agent joint tuples for those agents: a histogram
of how many of them take each value carries the same information.  This
module finds maximal groups of interchangeable agents (range_partition +
symmetry_refine), rewrites a ground model over histogram keys (lift), and
expands a histogram-keyed model back out (ground).

Keys of lifted tables are tuples of per-partition count vectors, e.g.
((2, 0), (1, 1)) for two partitions; the serialized form is "[2,0]|[1,1]".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .counting import (
    enumerate_histograms,
    histogram_count,
    histogram_multiplicity,
    range_positions,
    tuple_to_histogram,
)
from .errors import CapacityExceeded, NotLiftable, RangeMismatch
from .models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    StateSpace,
    Violation,
    label_ok,
    DEFAULT_JOINT_CAP,
    PROB_TOL,
    _check_belief,
    _check_discount,
    _check_range,
    _check_reward,
    _check_row,
    _check_sparse_row,
)


@dataclass(frozen=True)
class Partitioning:
    """Disjoint agent-index blocks, each with shared action/observation ranges."""

    blocks: tuple[tuple[int, ...], ...]
    action_ranges: tuple[tuple[str, ...], ...]
    observation_ranges: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not (len(self.blocks) == len(self.action_ranges) == len(self.observation_ranges)):
            raise ValueError("blocks and ranges must align")
        # empty blocks are representable; model validation rejects them
        seen = set()
        for block in self.blocks:
            if any(i in seen for i in block):
                raise ValueError("partition blocks must be disjoint")
            seen.update(block)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def agent_count(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class LiftedDecPomdp:
    """Team model over counting variables instead of per-agent tuples.

    Transition rows are keyed by (state, action-histogram tuple) and give a
    distribution over next states; sensor rows map each state to a sparse
    distribution over observation-histogram tuples.  The agent list and the
    partitioning are kept so the model can be expanded back to ground form
    with the original agent order.
    """

    agents: tuple[str, ...]
    states: StateSpace
    partition_names: tuple[str, ...]
    partitioning: Partitioning
    transition: dict[tuple[str, tuple[tuple[int, ...], ...]], DiscreteDistribution]
    sensor: dict[str, dict[tuple[tuple[int, ...], ...], float]]
    reward: dict[str, float]
    discount: float
    initial_belief: Belief

    def action_key_count(self) -> int:
        return math.prod(
            histogram_count(len(b), len(r))
            for b, r in zip(self.partitioning.blocks, self.partitioning.action_ranges)
        )


def key_multiplicity(key: tuple[tuple[int, ...], ...]) -> int:
    """Ground tuples collapsing onto a histogram-tuple key, exactly."""
    return math.prod(histogram_multiplicity(c) for c in key)


def _joint_to_key(joint: tuple, blocks, positions) -> tuple[tuple[int, ...], ...]:
    """Histogram-tuple key of a joint action or observation tuple.

    `positions` holds one `range_positions` map per block.
    """
    return tuple(
        tuple_to_histogram(joint, pos, block) for block, pos in zip(blocks, positions)
    )


def range_partition(model: GroundDecPomdp) -> Partitioning:
    """Coarsest grouping of agents by identical declared ranges.

    Two agents land in one block exactly when their action ranges and their
    observation ranges are equal as ordered tuples.  Blocks are ordered by
    their first member, members ascending.
    """
    groups: dict[tuple, list[int]] = {}
    for idx, agent in enumerate(model.agents):
        signature = (model.actions[agent], model.observations[agent])
        groups.setdefault(signature, []).append(idx)
    blocks = sorted(groups.values(), key=lambda b: b[0])
    return Partitioning(
        blocks=tuple(tuple(b) for b in blocks),
        action_ranges=tuple(model.actions[model.agents[b[0]]] for b in blocks),
        observation_ranges=tuple(model.observations[model.agents[b[0]]] for b in blocks),
    )


def _swap(values: tuple, i: int, j: int) -> tuple:
    out = list(values)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _swap_invariant(model: GroundDecPomdp, i: int, j: int, tol: float) -> bool:
    """Is the model unchanged when agents at positions i and j trade places?"""
    for (state, joint), dist in model.transition.items():
        other = model.transition.get((state, _swap(joint, i, j)))
        if other is None:
            return False
        if np.max(np.abs(dist.probs - other.probs)) > tol:
            return False
    for row in model.sensor.values():
        for joint, prob in row.items():
            if abs(prob - row.get(_swap(joint, i, j), 0.0)) > tol:
                return False
    return True


def symmetry_refine(
    model: GroundDecPomdp, candidate: Partitioning, tol: float = PROB_TOL
) -> Partitioning:
    """Split candidate blocks until every within-block swap leaves the model fixed.

    Swap invariance is transitive (the swap of two agents lies in the group
    generated by their swaps with a shared third), so grouping members
    against one representative per emerging sub-block reaches the fixed
    point in a single pass with O(block size) swap checks per block in the
    fully symmetric case.
    """
    blocks: list[tuple[int, ...]] = []
    action_ranges: list[tuple[str, ...]] = []
    observation_ranges: list[tuple[str, ...]] = []
    for block, acts, obs in zip(
        candidate.blocks, candidate.action_ranges, candidate.observation_ranges
    ):
        subgroups: list[list[int]] = []
        for idx in block:
            for sub in subgroups:
                if _swap_invariant(model, sub[0], idx, tol):
                    sub.append(idx)
                    break
            else:
                subgroups.append([idx])
        for sub in subgroups:
            blocks.append(tuple(sub))
            action_ranges.append(acts)
            observation_ranges.append(obs)
    order = sorted(range(len(blocks)), key=lambda k: blocks[k][0])
    return Partitioning(
        blocks=tuple(blocks[k] for k in order),
        action_ranges=tuple(action_ranges[k] for k in order),
        observation_ranges=tuple(observation_ranges[k] for k in order),
    )


def _check_partitioning(model: GroundDecPomdp, partitioning: Partitioning):
    indices = sorted(i for b in partitioning.blocks for i in b)
    if indices != list(range(len(model.agents))):
        raise RangeMismatch("partitioning does not cover the agents exactly")
    for block, acts, obs in zip(
        partitioning.blocks, partitioning.action_ranges, partitioning.observation_ranges
    ):
        for idx in block:
            agent = model.agents[idx]
            if model.actions[agent] != acts or model.observations[agent] != obs:
                raise RangeMismatch(
                    f"agent {agent!r} does not share its partition's ranges"
                )


def lift(
    model: GroundDecPomdp, partitioning: Partitioning, tol: float = PROB_TOL
) -> LiftedDecPomdp:
    """Rewrite a ground model over histogram keys.

    Transition rows keep the value of one ground representative per
    histogram key; sensor rows aggregate the probability mass of all
    ground observation tuples behind each key.  Whenever two ground
    entries that collapse onto the same key differ by more than `tol`
    (a missing entry counts as zero), the model is not interchangeable
    under the partitioning and NotLiftable is raised with the witnesses.
    """
    _check_partitioning(model, partitioning)
    names = tuple(f"p{k}" for k in range(len(partitioning.blocks)))
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

    transition: dict = {}
    witness: dict = {}
    seen_count: dict = {}
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

    sensor: dict = {}
    for state, row in model.sensor.items():
        sums: dict = {}
        bounds: dict = {}
        first: dict = {}
        for joint, prob in row.items():
            key = joint_key(joint, obs_positions, f"sensor row {state!r}")
            sums[key] = sums.get(key, (0.0, 0))
            total, count = sums[key]
            sums[key] = (total + prob, count + 1)
            lo, hi = bounds.get(key, (prob, prob))
            bounds[key] = (min(lo, prob), max(hi, prob))
            first.setdefault(key, joint)
        lifted_row = {}
        for key, (total, count) in sums.items():
            lo, hi = bounds[key]
            expected = key_multiplicity(key)
            if count < expected:
                lo = min(lo, 0.0)  # absent tuples carry zero mass
            if hi - lo > tol:
                raise NotLiftable(
                    f"sensor probabilities behind key {key!r} in state {state!r} "
                    f"spread over [{lo:g}, {hi:g}] (first tuple {first[key]!r})",
                    detail={"state": state, "key": key},
                )
            if total != 0.0:
                lifted_row[key] = total
        sensor[state] = lifted_row

    return LiftedDecPomdp(
        agents=model.agents,
        states=model.states,
        partition_names=names,
        partitioning=partitioning,
        transition=transition,
        sensor=sensor,
        reward=dict(model.reward),
        discount=model.discount,
        initial_belief=model.initial_belief,
    )


def ground(model: LiftedDecPomdp, cap: int = DEFAULT_JOINT_CAP) -> GroundDecPomdp:
    """Expand a lifted model back to per-agent joint tuples.

    Transition rows are replicated across every joint action behind a key;
    sensor mass is split uniformly over the multiplicity of each key, so
    grounding after lifting reproduces the original interchangeable model.
    Row counts are checked against `cap` before anything is materialized.
    """
    part = model.partitioning
    n_agents = part.agent_count()
    agent_actions: dict[str, tuple[str, ...]] = {}
    agent_observations: dict[str, tuple[str, ...]] = {}
    for block, acts, obs in zip(part.blocks, part.action_ranges, part.observation_ranges):
        for idx in block:
            agent_actions[model.agents[idx]] = acts
            agent_observations[model.agents[idx]] = obs

    action_ranges = [agent_actions[a] for a in model.agents]
    obs_ranges = [agent_observations[a] for a in model.agents]
    n_joint_actions = math.prod(len(r) for r in action_ranges)
    n_joint_obs = math.prod(len(r) for r in obs_ranges)
    n_states = len(model.states)
    for what, count in (
        ("transition rows", n_states * n_joint_actions),
        ("sensor entries", n_states * n_joint_obs),
    ):
        if count > cap:
            raise CapacityExceeded(
                f"grounding would materialize {count} {what}, cap is {cap}",
                measured=count,
                cap=cap,
            )

    action_positions = [range_positions(r) for r in part.action_ranges]
    obs_positions = [range_positions(r) for r in part.observation_ranges]
    transition: dict = {}
    for state in model.states:
        for joint in itertools.product(*action_ranges):
            row = model.transition.get(
                (state, _joint_to_key(joint, part.blocks, action_positions))
            )
            if row is not None:
                transition[(state, joint)] = row

    sensor: dict = {}
    for state in model.states:
        lifted_row = model.sensor.get(state, {})
        split = {key: value / key_multiplicity(key) for key, value in lifted_row.items()}
        row = {}
        for joint in itertools.product(*obs_ranges):
            prob = split.get(
                _joint_to_key(joint, part.blocks, obs_positions)
            )
            if prob is not None and prob != 0.0:
                row[joint] = prob
        sensor[state] = row

    return GroundDecPomdp(
        agents=model.agents,
        states=model.states,
        actions=agent_actions,
        observations=agent_observations,
        transition=transition,
        sensor=sensor,
        reward=dict(model.reward),
        discount=model.discount,
        initial_belief=model.initial_belief,
    )


def validate_lifted(model: LiftedDecPomdp, out: list, cap: int = DEFAULT_JOINT_CAP):
    """Append every violated invariant of a lifted model to `out`."""
    _check_discount(out, model)
    _check_reward(out, model)
    _check_belief(out, model.initial_belief, model.states)

    part = model.partitioning
    if len(set(model.partition_names)) != len(model.partition_names):
        out.append(Violation("partition", "duplicate partition names"))
    if len(model.partition_names) != len(part.blocks):
        out.append(Violation("partition", "partition names do not match the blocks"))
        return
    if len(model.agents) != len(set(model.agents)):
        out.append(Violation("range", "duplicate agent names"))
    covered = sorted(i for b in part.blocks for i in b)
    if covered != list(range(len(model.agents))):
        out.append(Violation("partition", "blocks do not cover the agents exactly"))
        return
    for name, block, acts, obs in zip(
        model.partition_names, part.blocks, part.action_ranges, part.observation_ranges
    ):
        if len(block) < 1:
            out.append(Violation("partition", f"partition {name!r} is empty"))
        if not label_ok(name):
            out.append(Violation("label", f"partition name {name!r} is not allowed"))
        _check_range(out, f"partition {name!r}", "actions", acts)
        _check_range(out, f"partition {name!r}", "observations", obs)

    sizes = part.sizes

    def key_ok(key, ranges):
        if not isinstance(key, tuple) or len(key) != len(part.blocks):
            return False
        for counts, n, rng in zip(key, sizes, ranges):
            if not isinstance(counts, tuple) or len(counts) != len(rng):
                return False
            if any((not isinstance(c, int)) or c < 0 for c in counts):
                return False
            if sum(counts) != n:
                return False
        return True

    for (state, key), dist in model.transition.items():
        name = f"lifted transition row ({state!r}, {key!r})"
        if state not in model.states.labels:
            out.append(Violation("undeclared-row", f"{name}: unknown state"))
        if not key_ok(key, part.action_ranges):
            out.append(Violation("key", f"{name}: malformed histogram key"))
        _check_row(out, name, dist, len(model.states))

    n_action_keys = model.action_key_count()
    if n_action_keys <= cap:
        action_spaces = [
            list(enumerate_histograms(len(b), len(r)))
            for b, r in zip(part.blocks, part.action_ranges)
        ]
        for state in model.states:
            for key in itertools.product(*action_spaces):
                if (state, key) not in model.transition:
                    out.append(
                        Violation(
                            "missing-row",
                            f"no lifted transition row for ({state!r}, {key!r})",
                        )
                    )

    for state in model.states:
        if state not in model.sensor:
            out.append(Violation("missing-row", f"no sensor row for state {state!r}"))
    for state, row in model.sensor.items():
        if state not in model.states.labels:
            out.append(Violation("undeclared-row", f"sensor row for unknown state {state!r}"))
            continue
        _check_sparse_row(
            out,
            f"lifted sensor row {state!r}",
            row,
            lambda key: key_ok(key, part.observation_ranges),
        )

