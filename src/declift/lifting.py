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
through its labels sorted within each block.  lift and ground group
joint tuples by that one fact (`_collapse`): the tuples become rows of
integer label codes, each block's columns are sorted, and rows with
equal bytes form one group, numbered in order of first use.  lift
groups a table's distinct tuples under the partition's blocks and keys
each group by its first tuple; ground groups the product of the
declared ranges, coded by position.  Python work runs once per group
(64 keys for the 512 distinct tuples behind the 8,192 transition
entries of nine two-action agents); the rest is array work over codes.
A transition table (`models.TransitionTable`) holds one int code per
entry for its state, joint tuple and row object, and lift and ground
write their tables as such columns.  The sensor entries are read as a
table of the same type (`_sensor_table`), whose row objects are the
probabilities, so both tables are read through the same columns.

symmetry_refine tests a swap of agents i and j by mapping each distinct
joint tuple to its swap partner once (`_Partners`) and looking up each
entry's partner entry in the table's index.  The row checks of
symmetry_refine and lift compare row codes: entries holding the same row
object agree, and two different objects are compared once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .counting import (
    DEFAULT_JOINT_CAP,
    histogram_multiplicity,
    range_positions,
    tuple_to_histogram,
)
from .errors import CapacityExceeded, NotLiftable, RangeMismatch
# the lifted types live in models; importing them here keeps
# `declift.lifting.LiftedDecPomdp` and the like working
from .models import (
    PROB_TOL,
    GroundDecPomdp,
    LiftedDecPomdp,
    Partitioning,
    SortedIndex,
    TransitionTable,
    first_groups,
    intern,
    void_rows,
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


def _collapse(codes: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) of joint tuples equal up to reordering inside blocks.

    codes[t] holds tuple t's label codes, one column per agent, with equal
    labels under equal codes within each block.  Each block's columns are
    sorted and rows with equal bytes form one group, numbered as
    `models.first_groups` numbers them; rows with no columns are all one group.
    """
    if not codes.shape[1]:
        return np.zeros(min(len(codes), 1), np.int64), np.zeros(len(codes), np.int64)
    rows = np.concatenate([np.sort(codes[:, list(b)], axis=1) for b in blocks], axis=1)
    return first_groups(void_rows(rows))


def _sensor_table(model: GroundDecPomdp) -> TransitionTable:
    """A ground model's sensor entries as a table keyed by (state, joint
    tuple), in row order; each entry's probability is its own row object."""
    rows = model.sensor
    states = np.repeat(np.arange(len(rows)), [len(row) for row in rows.values()])
    joints, codes = intern(list(itertools.chain.from_iterable(rows.values())))
    probs = tuple(itertools.chain.from_iterable(row.values() for row in rows.values()))
    return TransitionTable(tuple(rows), joints, probs, states, codes, np.arange(len(probs)))


def _first_entry(codes: np.ndarray, code: int) -> int:
    return int(np.argmax(codes == code))


def _arity(
    table: TransitionTable, n_agents: int, where: str
) -> tuple[int, RangeMismatch | None]:
    """(m, error): the joint tuples before the first that does not hold one
    value per agent, and that tuple's error (None if there is none).

    `where` is a format string naming the row of the tuple's first entry
    from its state.
    """
    joints = table.actions
    lengths = np.fromiter(map(len, joints), np.int64, len(joints))
    short = np.flatnonzero(lengths != n_agents)
    if not short.size:
        return len(joints), None
    m = int(short[0])
    joint = joints[m]
    state = table.states[table.state_codes[_first_entry(table.action_codes, m)]]
    return m, RangeMismatch(
        f"{where.format(state)}: joint tuple {joint!r} has {len(joint)} values "
        f"for {n_agents} agents"
    )


def _labels(joints, n_agents: int) -> np.ndarray:
    """The (len(joints) x n_agents) table of the tuples' label codes, one
    code per distinct label."""
    _, codes = intern(tuple(itertools.chain.from_iterable(joints)))
    return codes.reshape(len(joints), n_agents)


def _histograms(table: TransitionTable, n_agents: int, blocks, positions, where: str):
    """(keys, codes, error): the histogram key of each joint tuple.

    keys lists the distinct histogram keys in order of first use and
    codes[c] is the key of joint tuple c, for every tuple before the first
    that has no key; error is that tuple's RangeMismatch, or None.
    `positions` holds one `range_positions` map per block.  Only the first
    tuple of each collapsed group is keyed: a group's tuples hold the same
    labels per block, so they are all in range or all out of it, and the
    first group out of range starts at the first tuple without a key.
    """
    m, error = _arity(table, n_agents, where)
    first, group = _collapse(_labels(table.actions[:m], n_agents), blocks)
    keys = []
    for t in first.tolist():
        try:
            keys.append(_joint_to_key(table.actions[t], blocks, positions))
        except RangeMismatch as err:
            return keys, group[:t], err
    return keys, group, error


class _Partners(SortedIndex):
    """Swap partners among the entries of one table keyed by joint tuples.

    `labels` holds one row of label codes per distinct tuple; the rows are
    sorted once by their bytes, and each swap looks its tuples up.
    """

    __slots__ = ("table", "labels")

    def __init__(self, table: TransitionTable, n_agents: int):
        _, error = _arity(table, n_agents, "row for state {!r}")
        if error:
            raise error
        self.table = table
        self.labels = _labels(table.actions, n_agents)
        super().__init__(void_rows(self.labels))

    def entries(self, i: int, j: int) -> np.ndarray:
        """other[k]: the entry in entry k's state whose tuple is entry k's
        with the values of agents i and j traded, or -1 where there is none."""
        swapped = self.labels.copy()
        swapped[:, [i, j]] = self.labels[:, [j, i]]
        partner = self.find(void_rows(swapped))
        table = self.table
        return table.index.find(table.state_codes, partner[table.action_codes])


class _SwapCheck:
    """A ground model's tables, coded once for testing agent swaps.

    Trading agents i and j maps each joint tuple to a partner tuple (the
    tuple itself when the two agents hold the same label), so the model is
    unchanged by the swap when every transition entry has a partner entry
    (same state, partner tuple) whose row is within tolerance, and every
    sensor entry is within tolerance of its partner entry's probability,
    which is 0 when there is no partner entry.
    """

    def __init__(self, model: GroundDecPomdp):
        n_agents = len(model.agents)
        table = model.transition
        self.transition = _Partners(table, n_agents)
        self.rows = np.stack([row.probs for row in table.rows]) if table.rows else None
        sensor = _sensor_table(model)
        self.sensor = _Partners(sensor, n_agents)
        self.sensor_probs = np.array(sensor.rows, dtype=float)

    def invariant(self, i: int, j: int, tol: float) -> bool:
        """Is the model unchanged when agents at positions i and j trade places?

        A transition row without a swapped counterpart breaks invariance; a
        missing sensor entry reads as probability 0.
        """
        other = self.transition.entries(i, j)
        if (other < 0).any():
            return False
        codes = self.transition.table.row_codes
        if (_row_gaps(self.rows, codes, codes[other]) > tol).any():
            return False
        other = self.sensor.entries(i, j)
        probs = np.where(other < 0, 0.0, self.sensor_probs[other])
        # NaN fails `> tol`, as it does in |p - q| > tol
        with np.errstate(invalid="ignore"):
            return not (np.abs(self.sensor_probs - probs) > tol).any()


def symmetry_refine(
    model: GroundDecPomdp, candidate: Partitioning, tol: float = PROB_TOL
) -> Partitioning:
    """Split candidate blocks until every within-block swap leaves the model fixed.

    Swap invariance is transitive (the swap of two agents lies in the group
    generated by their swaps with a shared third), so grouping members
    against one representative per emerging sub-block reaches the fixed
    point in a single pass with O(block size) swap checks per block in the
    fully symmetric case.  The tables are coded once per call; each swap
    check then maps the distinct joint tuples to their swap partners and
    compares each entry with its partner entry.
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


def _check_same_rows(table: TransitionTable, n: int, first: np.ndarray, tol: float) -> None:
    """Raise NotLiftable at the first of the table's first n entries whose
    row is off the row of entry first[i], its key's first entry.

    Entries holding the same row object agree, and each distinct pair of
    row objects is compared once.
    """
    used, codes = np.unique(table.row_codes[:n], return_inverse=True)
    if not used.size:
        return
    codes = codes.ravel()
    diff = _row_gaps(np.stack([table.rows[c].probs for c in used.tolist()]), codes, codes[first])
    over = np.flatnonzero(diff > tol)
    if over.size:
        i = int(over[0])
        state = table.states[table.state_codes[i]]
        joint, witness = (table.actions[table.action_codes[k]] for k in (i, first[i]))
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

    table = model.transition
    action_keys, codes, error = _histograms(
        table, n_agents, blocks, action_positions, "transition row for state {!r}"
    )
    # entries before the first joint tuple without a key
    n = len(table) if error is None else _first_entry(table.action_codes, len(codes))
    key_codes = codes[table.action_codes[:n]]
    first, group = first_groups(table.state_codes[:n] * len(action_keys) + key_codes)
    # a row read before the bad joint tuple that differs from its key's
    # first row is reported first, as a row-by-row pass would
    _check_same_rows(table, n, first[group], tol)
    if error:
        raise error
    key_codes = key_codes[first]
    counts = np.bincount(group, minlength=len(first)).tolist()
    multiplicity = [key_multiplicity(key) for key in action_keys]
    for count, i, code in zip(counts, first.tolist(), key_codes.tolist()):
        if count != multiplicity[code]:
            state, key = table.states[table.state_codes[i]], action_keys[code]
            raise NotLiftable(
                f"state {state!r} has transition rows for {count} of the "
                f"{multiplicity[code]} joint actions behind key {key!r}",
                detail={"state": state, "key": key},
            )
    transition = TransitionTable(
        table.states, action_keys, table.rows,
        table.state_codes[first], key_codes, table.row_codes[first],
    )

    sensor = {state: {} for state in model.sensor}
    table = _sensor_table(model)
    obs_keys, codes, error = _histograms(
        table, n_agents, blocks, obs_positions, "sensor row {!r}"
    )
    # whole rows before the one holding the first joint tuple without a key
    values = table.rows
    n = len(values)
    if error:
        bad = table.state_codes[_first_entry(table.action_codes, len(codes))]
        n = int(np.searchsorted(table.state_codes, bad))
    first, group = first_groups(
        table.state_codes[:n] * len(obs_keys) + codes[table.action_codes[:n]]
    )
    # summed in entry order, as a row-by-row pass adds them
    totals = np.bincount(group, values[:n], len(first)).tolist()
    members = [[] for _ in range(len(first))]
    for g, value in zip(group.tolist(), values):
        members[g].append(value)
    multiplicity = [key_multiplicity(key) for key in obs_keys]
    for g, i in enumerate(first.tolist()):
        state = table.states[table.state_codes[i]]
        joint = table.actions[table.action_codes[i]]
        code = codes[table.action_codes[i]]
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


def _product_keys(ranges, blocks, block_ranges) -> tuple[list, list, np.ndarray]:
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
    return joints, keys, group


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

    # each group of joint tuples is keyed and looked up once per state;
    # entries run state by state, joint tuples in product order
    joints, keys, group = _product_keys(action_ranges, part.blocks, part.action_ranges)
    lifted = model.transition
    entry = lifted.find(model.states.labels, keys)[:, group].ravel()
    present = np.flatnonzero(entry >= 0)
    state_codes, action_codes = np.divmod(present, len(joints))
    transition = TransitionTable(
        model.states.labels, joints, lifted.rows,
        state_codes, action_codes, lifted.row_codes[entry[present]],
    )

    joints, keys, group = _product_keys(obs_ranges, part.blocks, part.observation_ranges)
    group = group.tolist()
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
