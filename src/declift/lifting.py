"""Aggregation of interchangeable agents into counting form, and back.

A team model whose dynamics and sensing are invariant under permuting some
agents does not need per-agent joint tuples for those agents: a histogram
of how many of them take each value carries the same information.  This
module finds maximal groups of interchangeable agents (range_partition +
symmetry_refine), rewrites a ground model over histogram keys (lift), and
expands a histogram-keyed model back out (ground).

Keys of lifted tables are tuples of per-partition count vectors, e.g.
((2, 0), (1, 1)) for two partitions; the serialized form is "[2,0]|[1,1]".

Transition tables hold one distribution object per distinct row (the
parser and `ground` share them), and the swap checks of symmetry_refine
and the row checks of lift work on those objects: entries holding the
same object agree, and two different objects are compared once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .counting import (
    histogram_multiplicity,
    range_positions,
    tuple_to_histogram,
)
from .errors import CapacityExceeded, NotLiftable, RangeMismatch
# the lifted types and their validator live in models; importing them here
# keeps `declift.lifting.LiftedDecPomdp` and the like working
from .models import (
    DEFAULT_JOINT_CAP,
    PROB_TOL,
    GroundDecPomdp,
    LiftedDecPomdp,
    Partitioning,
    distinct_rows,
    validate_lifted,
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


def _joint_keys(joints, blocks, ranges) -> list:
    """Histogram-tuple keys of joint tuples over the given block ranges."""
    positions = [range_positions(r) for r in ranges]
    return [_joint_to_key(joint, blocks, positions) for joint in joints]


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


class _KeyTable:
    """(state, joint tuple) keys as rows of integer label codes.

    Every label has one code, so exchanging two joint columns of a code row
    gives the codes of the swapped key.  Rows are found again by a binary
    search over their raw bytes, with no Python loop over the rows.
    """

    def __init__(self, keys, n_agents: int):
        for state, joint in keys:
            if len(joint) != n_agents:
                raise RangeMismatch(
                    f"row for state {state!r}: joint tuple {joint!r} has "
                    f"{len(joint)} values for {n_agents} agents"
                )
        labels = [lbl for state, joint in keys for lbl in (state, *joint)]
        codes = {lbl: k for k, lbl in enumerate(dict.fromkeys(labels))}
        self.rows = np.fromiter(
            map(codes.__getitem__, labels), dtype=np.int32, count=len(labels)
        ).reshape(-1, n_agents + 1)
        self._row_bytes = np.dtype((np.void, self.rows.itemsize * (n_agents + 1)))
        row_bytes = self._as_bytes(self.rows)
        self._order = np.argsort(row_bytes)
        self._sorted = row_bytes[self._order]

    def _as_bytes(self, rows: np.ndarray) -> np.ndarray:
        return rows.view(self._row_bytes).ravel()

    def swapped(self, i: int, j: int) -> np.ndarray:
        """Row of each key with agents i and j traded, or -1 where there is none."""
        query = self.rows.copy()
        query[:, [i + 1, j + 1]] = self.rows[:, [j + 1, i + 1]]
        query = self._as_bytes(query)
        pos = np.searchsorted(self._sorted, query).clip(max=len(query) - 1)
        return np.where(self._sorted[pos] == query, self._order[pos], -1)


class _SwapCheck:
    """A ground model's tables, stacked once for testing agent swaps."""

    def __init__(self, model: GroundDecPomdp):
        n_agents = len(model.agents)
        self.transition = _KeyTable(model.transition, n_agents)
        self.codes, self.rows = distinct_rows(list(model.transition.values()))
        entries = [
            ((state, joint), prob)
            for state, row in model.sensor.items()
            for joint, prob in row.items()
        ]
        self.sensor = _KeyTable([key for key, _ in entries], n_agents)
        self.sensor_probs = np.array([prob for _, prob in entries], dtype=float)

    def invariant(self, i: int, j: int, tol: float) -> bool:
        """Is the model unchanged when agents at positions i and j trade places?

        A transition row without a swapped counterpart breaks invariance; a
        missing sensor entry reads as probability 0.
        """
        perm = self.transition.swapped(i, j)
        if (perm < 0).any():
            return False
        if (_row_gaps(self.rows, self.codes[perm], self.codes) > tol).any():
            return False
        perm = self.sensor.swapped(i, j)
        other = np.where(perm >= 0, self.sensor_probs[perm], 0.0)
        return not (np.abs(self.sensor_probs - other) > tol).any()


def symmetry_refine(
    model: GroundDecPomdp, candidate: Partitioning, tol: float = PROB_TOL
) -> Partitioning:
    """Split candidate blocks until every within-block swap leaves the model fixed.

    Swap invariance is transitive (the swap of two agents lies in the group
    generated by their swaps with a shared third), so grouping members
    against one representative per emerging sub-block reaches the fixed
    point in a single pass with O(block size) swap checks per block in the
    fully symmetric case.  The tables are stacked once per call; each swap
    check is then one key lookup and one array comparison.
    """
    check = _SwapCheck(model)
    blocks: list[tuple[int, ...]] = []
    action_ranges: list[tuple[str, ...]] = []
    observation_ranges: list[tuple[str, ...]] = []
    for block, acts, obs in zip(
        candidate.blocks, candidate.action_ranges, candidate.observation_ranges
    ):
        subgroups: list[list[int]] = []
        for idx in block:
            for sub in subgroups:
                if check.invariant(sub[0], idx, tol):
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


def _row_gaps(rows: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """max |rows[left[k]] - rows[right[k]]| for every k.

    Equal codes differ by 0; the gap of two different codes is computed
    once per distinct pair, so no (distinct x distinct) matrix is built.
    """
    gaps = np.zeros(len(left))
    differ = np.flatnonzero(left != right)
    if differ.size:
        pairs, inverse = np.unique(
            left[differ] * len(rows) + right[differ], return_inverse=True
        )
        a, b = np.divmod(pairs, len(rows))
        gaps[differ] = np.abs(rows[a] - rows[b]).max(axis=1)[inverse.ravel()]
    return gaps


def _check_same_rows(rows: list, first: list[int], tol: float) -> None:
    """Raise NotLiftable at the first transition row off its key's first row.

    rows are ((state, joint), distribution) items and first[i] the position
    of the first row with row i's key; rows holding the same distribution
    object agree, and each distinct pair of row objects is compared once.
    """
    if not rows:
        return
    codes, table = distinct_rows([dist for _, dist in rows])
    diff = _row_gaps(table, codes, codes[first])
    over = np.flatnonzero(diff > tol)
    if over.size:
        i = int(over[0])
        (state, joint), _ = rows[i]
        witness = rows[first[i]][0][1]
        raise NotLiftable(
            f"transition rows for {witness!r} and {joint!r} in state "
            f"{state!r} differ by {float(diff[i]):g}",
            detail={"state": state, "first": witness, "second": joint},
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

    n_agents = len(model.agents)

    def keyer(positions):
        """Histogram key of a joint tuple, computed once per distinct tuple."""
        keys: dict = {}

        def key_of(joint, row):
            key = keys.get(joint)
            if key is None:
                if len(joint) != n_agents:
                    raise RangeMismatch(
                        f"{row}: joint tuple {joint!r} has {len(joint)} values for "
                        f"{n_agents} agents"
                    )
                key = keys[joint] = _joint_to_key(joint, blocks, positions)
            return key

        return key_of

    action_key = keyer(action_positions)
    rows = list(model.transition.items())
    first: list[int] = []  # per row, the position of its key's first row
    groups: dict = {}  # (state, key) -> position of its first row
    try:
        for i, ((state, joint), _dist) in enumerate(rows):
            key = action_key(joint, f"transition row for state {state!r}")
            first.append(groups.setdefault((state, key), i))
    except RangeMismatch:
        # a row read before the bad joint tuple that differs from its key's
        # first row is reported first, as a row-by-row pass would
        _check_same_rows(rows[: len(first)], first, tol)
        raise
    _check_same_rows(rows, first, tol)
    counts = np.bincount(first, minlength=len(rows)).tolist()
    for (state, key), i in groups.items():
        expected = key_multiplicity(key)
        if counts[i] != expected:
            raise NotLiftable(
                f"state {state!r} has transition rows for {counts[i]} of the "
                f"{expected} joint actions behind key {key!r}",
                detail={"state": state, "key": key},
            )
    transition = {key: rows[i][1] for key, i in groups.items()}

    observation_key = keyer(obs_positions)
    sensor: dict = {}
    for state, row in model.sensor.items():
        where = f"sensor row {state!r}"
        sums: dict = {}  # key -> [total, count, lowest, highest, first tuple]
        for joint, prob in row.items():
            key = observation_key(joint, where)
            entry = sums.get(key)
            if entry is None:
                sums[key] = [0.0 + prob, 1, prob, prob, joint]
            else:
                entry[0] += prob
                entry[1] += 1
                entry[2] = min(entry[2], prob)
                entry[3] = max(entry[3], prob)
        lifted_row = {}
        for key, (total, count, lo, hi, first_joint) in sums.items():
            if count < key_multiplicity(key):
                lo = min(lo, 0.0)  # absent tuples carry zero mass
            if hi - lo > tol:
                raise NotLiftable(
                    f"sensor probabilities behind key {key!r} in state {state!r} "
                    f"spread over [{lo:g}, {hi:g}] (first tuple {first_joint!r})",
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

    # each joint tuple is keyed once, not once per state
    action_joints = list(itertools.product(*action_ranges))
    action_keys = _joint_keys(action_joints, part.blocks, part.action_ranges)
    transition: dict = {}
    for state in model.states:
        for joint, key in zip(action_joints, action_keys):
            row = model.transition.get((state, key))
            if row is not None:
                transition[(state, joint)] = row

    obs_joints = list(itertools.product(*obs_ranges))
    obs_keys = _joint_keys(obs_joints, part.blocks, part.observation_ranges)
    sensor: dict = {}
    for state in model.states:
        lifted_row = model.sensor.get(state, {})
        split = {key: value / key_multiplicity(key) for key, value in lifted_row.items()}
        row = {}
        for joint, key in zip(obs_joints, obs_keys):
            prob = split.get(key)
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
