"""Aggregation of interchangeable agents into counting form, and back.

A team model whose dynamics and sensing are invariant under permuting some
agents does not need per-agent joint tuples for those agents: a histogram
of how many of them take each value carries the same information.  This
module finds maximal groups of interchangeable agents (range_partition +
symmetry_refine), rewrites a ground model over histogram keys (lift), and
expands a histogram-keyed model back out (ground).

Keys of lifted tables are tuples of per-partition count vectors, e.g.
((2, 0), (1, 1)) for two partitions; the serialized form is "[2,0]|[1,1]".

Under a partition of the agents into blocks, a joint tuple matters only
through its labels sorted within each block.  All three passes group
joint tuples by that one fact (`_collapse`): the tuples become rows of
integer label codes, each block's columns are sorted, and rows with
equal bytes form one group, numbered in order of first use.  lift
groups a table's distinct tuples under the partition's blocks and keys
each group by its first tuple; symmetry_refine groups them under the
pair block (i, j), so a group holds a tuple and its swap; ground groups
the product of the declared ranges, coded by position.  Python work runs
once per group (64 keys for the 512 distinct tuples behind the 8,192
transition entries of nine two-action agents); the rest is array work
over codes (`_Keys`: one int code per distinct state and joint tuple).
The model types keep their dict tables; only these passes use the codes.

Transition tables hold one distribution object per distinct row (the
parser and `ground` share them), and the row checks of symmetry_refine
and lift work on those objects: entries holding the same object agree,
and two different objects are compared once.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

import numpy as np

from .counting import (
    DEFAULT_JOINT_CAP,
    histogram_multiplicity,
    range_positions,
    tuple_to_histogram,
)
from .errors import CapacityExceeded, NotLiftable, RangeMismatch
# the lifted types and their validator live in models; importing them here
# keeps `declift.lifting.LiftedDecPomdp` and the like working
from .models import (
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


def _intern(values: tuple) -> tuple[list, np.ndarray]:
    """(distinct, codes): the distinct values in order of first use, and the
    code of each value."""
    distinct = list(dict.fromkeys(values))
    code = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(code.__getitem__, values), np.int64, len(values))


def _groups(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) of entries with equal ids.

    Groups are numbered in order of their first entry: first[g] is that
    entry and group[k] the group of entry k.
    """
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def _collapse(codes: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) of joint tuples equal up to reordering inside blocks.

    codes[t] holds tuple t's label codes, one column per agent, with equal
    labels under equal codes within each block.  Each block's columns are
    sorted and rows with equal bytes form one group, numbered as `_groups`
    numbers them; rows with no columns are all one group.
    """
    if not codes.shape[1]:
        return np.zeros(min(len(codes), 1), np.int64), np.zeros(len(codes), np.int64)
    rows = np.concatenate([np.sort(codes[:, list(b)], axis=1) for b in blocks], axis=1)
    rows = np.ascontiguousarray(rows)
    return _groups(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())


class _Keys:
    """The (state, joint tuple) keys of one table, interned once.

    `states[k]` and `tuples[k]` are the key of entry k.  Every distinct
    state and joint tuple gets one code, in order of first use: `state[k]`
    and `joint[k]` are the codes of entry k, `joints` lists the distinct
    tuples and `first[c]` is the first entry using tuple c.  Equal tuples
    share a code whether or not they are one object.
    """

    def __init__(self, states: tuple, tuples: tuple):
        self.states, self.tuples = states, tuples
        _, self.state = _intern(states)
        self.joints, self.joint = _intern(tuples)
        _, self.first = np.unique(self.joint, return_index=True)

    def arity(self, n_agents: int, where: str) -> tuple[int, RangeMismatch | None]:
        """(m, error): the joint tuples before the first that does not hold
        one value per agent, and that tuple's error (None if there is none).

        `where` is a format string naming the row of the tuple's first
        entry from its state.
        """
        lengths = np.fromiter(map(len, self.joints), np.int64, len(self.joints))
        short = np.flatnonzero(lengths != n_agents)
        if not short.size:
            return len(self.joints), None
        m = int(short[0])
        joint, state = self.joints[m], self.states[self.first[m]]
        return m, RangeMismatch(
            f"{where.format(state)}: joint tuple {joint!r} has {len(joint)} values "
            f"for {n_agents} agents"
        )

    def labels(self, m: int, n_agents: int) -> np.ndarray:
        """The (m x n_agents) table of the first m joint tuples' label codes,
        one code per distinct label."""
        _, codes = _intern(tuple(itertools.chain.from_iterable(self.joints[:m])))
        return codes.reshape(m, n_agents)

    def histograms(self, n_agents: int, blocks, positions, where: str):
        """(keys, codes, error): the histogram key of each joint tuple.

        keys lists the distinct histogram keys in order of first use and
        codes[c] is the key of joint tuple c, for every tuple before the
        first that has no key; error is that tuple's RangeMismatch, or
        None.  `positions` holds one `range_positions` map per block.  Only
        the first tuple of each collapsed group is keyed: a group's tuples
        hold the same labels per block, so they are all in range or all out
        of it, and the first group out of range starts at the first tuple
        without a key.
        """
        m, error = self.arity(n_agents, where)
        first, group = _collapse(self.labels(m, n_agents), blocks)
        keys = []
        for t in first.tolist():
            try:
                keys.append(_joint_to_key(self.joints[t], blocks, positions))
            except RangeMismatch as err:
                return keys, group[:t], err
        return keys, group, error


def _sensor_values(model: GroundDecPomdp) -> list:
    return list(itertools.chain.from_iterable(row.values() for row in model.sensor.values()))


def _transition_keys(model: GroundDecPomdp) -> _Keys:
    keys = model.transition.keys()
    return _Keys(tuple(map(itemgetter(0), keys)), tuple(map(itemgetter(1), keys)))


def _sensor_keys(model: GroundDecPomdp) -> _Keys:
    rows = model.sensor.items()
    states = tuple(itertools.chain.from_iterable(itertools.repeat(s, len(r)) for s, r in rows))
    return _Keys(states, tuple(itertools.chain.from_iterable(model.sensor.values())))


class _SwapCheck:
    """A ground model's tables, coded once for testing agent swaps.

    Collapsed under the pair block (i, j), a joint tuple shares its group
    with its swap, which is the tuple itself when agents i and j hold the
    same label.  So the model is unchanged by the swap when each (state,
    group) holds both tuples and their entries agree.
    """

    def __init__(self, model: GroundDecPomdp):
        self.n_agents = len(model.agents)
        self.transition = self._coded(_transition_keys(model))
        self.codes, self.rows = distinct_rows(list(model.transition.values()))
        self.sensor = self._coded(_sensor_keys(model))
        self.sensor_probs = np.array(_sensor_values(model), dtype=float)

    def _coded(self, keys: _Keys) -> tuple[_Keys, np.ndarray]:
        m, error = keys.arity(self.n_agents, "row for state {!r}")
        if error:
            raise error
        return keys, keys.labels(m, self.n_agents)

    def _pairs(self, table, i: int, j: int):
        """(first, group, short) of a table's entries by state and tuple
        collapsed under the pair block (i, j); short[g] tells that group g
        lacks the swap of its tuple."""
        keys, labels = table
        blocks = [(i, j)] + [(k,) for k in range(self.n_agents) if k not in (i, j)]
        _, joint = _collapse(labels, blocks)
        first, group = _groups(keys.state * len(labels) + joint[keys.joint])
        multiplicity = np.where(labels[:, i] != labels[:, j], 2, 1)[keys.joint[first]]
        return first, group, np.bincount(group, minlength=len(first)) < multiplicity

    def invariant(self, i: int, j: int, tol: float) -> bool:
        """Is the model unchanged when agents at positions i and j trade places?

        A transition row without a swapped counterpart breaks invariance; a
        missing sensor entry reads as probability 0.
        """
        first, group, short = self._pairs(self.transition, i, j)
        if short.any():
            return False
        if (_row_gaps(self.rows, self.codes[first[group]], self.codes) > tol).any():
            return False
        _, group, short = self._pairs(self.sensor, i, j)
        lo = np.where(short, 0.0, np.inf)
        hi = -lo
        # NaN propagates into the spread and fails `> tol`, as |p - q| does
        with np.errstate(invalid="ignore"):
            np.minimum.at(lo, group, self.sensor_probs)
            np.maximum.at(hi, group, self.sensor_probs)
            return not (hi - lo > tol).any()


def symmetry_refine(
    model: GroundDecPomdp, candidate: Partitioning, tol: float = PROB_TOL
) -> Partitioning:
    """Split candidate blocks until every within-block swap leaves the model fixed.

    Swap invariance is transitive (the swap of two agents lies in the group
    generated by their swaps with a shared third), so grouping members
    against one representative per emerging sub-block reaches the fixed
    point in a single pass with O(block size) swap checks per block in the
    fully symmetric case.  The tables are coded once per call; each swap
    check then groups their entries under the pair block and compares
    each group's entries.
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


def _check_same_rows(keys: _Keys, dists: list, first: np.ndarray, tol: float) -> None:
    """Raise NotLiftable at the first transition row off its key's first row.

    dists[i] is the row of entry i of `keys` and first[i] the first entry
    with entry i's histogram key; rows holding the same distribution object
    agree, and each distinct pair of row objects is compared once.
    """
    if not dists:
        return
    codes, table = distinct_rows(dists)
    diff = _row_gaps(table, codes, codes[first])
    over = np.flatnonzero(diff > tol)
    if over.size:
        i = int(over[0])
        state, joint = keys.states[i], keys.tuples[i]
        witness = keys.tuples[first[i]]
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

    dists = list(model.transition.values())
    keys = _transition_keys(model)
    action_keys, codes, error = keys.histograms(
        n_agents, blocks, action_positions, "transition row for state {!r}"
    )
    # entries before the first joint tuple without a key
    n = len(dists) if error is None else int(keys.first[len(codes)])
    first, group = _groups(keys.state[:n] * len(action_keys) + codes[keys.joint[:n]])
    # a row read before the bad joint tuple that differs from its key's
    # first row is reported first, as a row-by-row pass would
    _check_same_rows(keys, dists[:n], first[group], tol)
    if error:
        raise error
    counts = np.bincount(group, minlength=len(first)).tolist()
    transition = {}
    multiplicity = [key_multiplicity(key) for key in action_keys]
    for count, i in zip(counts, first.tolist()):
        state = keys.states[i]
        code = codes[keys.joint[i]]
        key, expected = action_keys[code], multiplicity[code]
        if count != expected:
            raise NotLiftable(
                f"state {state!r} has transition rows for {count} of the "
                f"{expected} joint actions behind key {key!r}",
                detail={"state": state, "key": key},
            )
        transition[(state, key)] = dists[i]

    sensor = {state: {} for state in model.sensor}
    keys = _sensor_keys(model)
    values = _sensor_values(model)
    obs_keys, codes, error = keys.histograms(
        n_agents, blocks, obs_positions, "sensor row {!r}"
    )
    # whole rows before the one holding the first joint tuple without a key
    n = len(values)
    if error:
        bad = keys.state[keys.first[len(codes)]]
        n = int(np.searchsorted(keys.state, bad))
    first, group = _groups(keys.state[:n] * len(obs_keys) + codes[keys.joint[:n]])
    # summed in entry order, as a row-by-row pass adds them
    totals = np.bincount(group, values[:n], len(first)).tolist()
    members = [[] for _ in range(len(first))]
    for g, value in zip(group.tolist(), values):
        members[g].append(value)
    multiplicity = [key_multiplicity(key) for key in obs_keys]
    for g, i in enumerate(first.tolist()):
        state, joint = keys.states[i], keys.tuples[i]
        code = codes[keys.joint[i]]
        key = obs_keys[code]
        # min and max keep the first of equal values, as a running fold
        # does, so NaN and signed zeros come out as a row-by-row pass has them
        lo, hi = min(members[g]), max(members[g])
        if len(members[g]) < multiplicity[code]:
            lo = min(lo, 0.0)  # absent tuples carry zero mass
        if hi - lo > tol:
            raise NotLiftable(
                f"sensor probabilities behind key {key!r} in state {state!r} "
                f"spread over [{lo:g}, {hi:g}] (first tuple {joint!r})",
                detail={"state": state, "key": key},
            )
        if totals[g] != 0.0:
            sensor[state][key] = totals[g]
    if error:
        raise error

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


def _product_keys(ranges, blocks, block_ranges) -> tuple[list, list, list]:
    """(joints, keys, group): the joint tuples over the agents' ranges in
    `itertools.product` order, the histogram keys in order of first use,
    and the key of each tuple.

    The tuples are coded by position in their ranges, which the members
    of a block share, and only each collapsed group's first tuple is keyed.
    """
    joints = list(itertools.product(*ranges))
    sizes = [len(r) for r in ranges]
    codes = np.indices(sizes).reshape(len(ranges), math.prod(sizes)).T
    first, group = _collapse(codes, blocks)
    positions = [range_positions(r) for r in block_ranges]
    keys = [_joint_to_key(joints[t], blocks, positions) for t in first.tolist()]
    return joints, keys, group.tolist()


def ground(model: LiftedDecPomdp, cap: int = DEFAULT_JOINT_CAP) -> GroundDecPomdp:
    """Expand a lifted model back to per-agent joint tuples.

    Transition rows are replicated across every joint action behind a key;
    sensor mass is split uniformly over the multiplicity of each key, so
    grounding after lifting reproduces the original interchangeable model.
    Row counts are checked against `cap` before anything is materialized.
    """
    part = model.partitioning
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

    # each group of joint tuples is keyed and looked up once per state
    joints, keys, group = _product_keys(action_ranges, part.blocks, part.action_ranges)
    transition: dict = {}
    for state in model.states:
        rows = [model.transition.get((state, key)) for key in keys]
        for joint, g in zip(joints, group):
            if rows[g] is not None:
                transition[(state, joint)] = rows[g]

    joints, keys, group = _product_keys(obs_ranges, part.blocks, part.observation_ranges)
    multiplicity = [key_multiplicity(key) for key in keys]
    sensor: dict = {}
    for state in model.states:
        lifted_row = model.sensor.get(state, {})
        shares = [lifted_row.get(key, 0.0) / n for key, n in zip(keys, multiplicity)]
        sensor[state] = {
            joint: shares[g] for joint, g in zip(joints, group) if shares[g] != 0.0
        }

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
