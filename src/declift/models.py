"""Core model types: MDPs, POMDPs, and team models in ground and lifted form.

All models are plain frozen dataclasses over labels (strings) so they can
be built by hand in tests and round-tripped through the interchange format.
Transition and sensing tables are sparse maps with explicit keys; only the
rows themselves (distributions over states, or over observation symbols)
are dense vectors.

A ground team model keys its rows by per-agent tuples; a lifted one by
tuples of per-partition count histograms (`lifting` compiles between the
two).  `validate_model` checks all of them.  Each model type names its
document kind in a class attribute, `kind`, not a dataclass field.

Every transition table is one read-only `TransitionTable`: a mapping from
(state, key) to a row, stored as columns.  Each distinct state, key and
row object is held once, and each entry is three int codes into them, so
validation, lifting, grounding and serialization work once per distinct
state, key or row and per entry only in array code.  Model
constructors take a dict (or a table) and convert it once.  Sensor
tables stay dicts.

Probability rows must carry unit mass within PROB_TOL.  Rows that are off
by more than EXACT_SUM_TOL but still within PROB_TOL are divided by their
sum when they enter through the parser; validation merely reports, so that
broken models can be constructed and inspected.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from typing import ClassVar, Sequence

import numpy as np

from .counting import DEFAULT_JOINT_CAP, enumerate_histograms, histogram_count
from .errors import ZeroProbabilityObservation

PROB_TOL = 1e-9
EXACT_SUM_TOL = 1e-12

# action / observation / agent labels end up inside comma- and pipe-joined
# serialized keys, so they must stay clear of the delimiter characters
LABEL_RE = re.compile(r"[^\s,|\[\]]+")


def label_ok(label: str) -> bool:
    return isinstance(label, str) and bool(LABEL_RE.fullmatch(label))


@dataclass(frozen=True)
class StateSpace:
    """Finite set of state labels; order is the canonical index order."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) == 0:
            raise ValueError("state space must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        if not all(isinstance(s, str) and s for s in labels):
            raise ValueError("state labels must be non-empty strings")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _freeze_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == float and not values.flags.writeable:
        arr = values  # already frozen, for instance a row of a parsed table
    else:
        arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d row of probabilities")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Dense probability row over an implicitly indexed finite range."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _freeze_array(self.probs))

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, DiscreteDistribution) and np.array_equal(
            self.probs, other.probs
        )

    def mass(self) -> float:
        return math.fsum(self.probs.tolist())

    def deviation(self) -> float:
        """Absolute distance of the total mass from 1."""
        return abs(self.mass() - 1.0)


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability row over a state space."""

    state_space: StateSpace
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _freeze_array(self.probs))

    def __eq__(self, other):
        return (
            isinstance(other, Belief)
            and self.state_space == other.state_space
            and np.array_equal(self.probs, other.probs)
        )

    def mass(self) -> float:
        return math.fsum(self.probs.tolist())


def canonical_rows(table) -> tuple[np.ndarray, list[str | None]]:
    """Coerce every row of a (rows x width) table to canonical probabilities.

    Each row gets the verdict it would get in a table of its own, bit for
    bit: the finiteness and sign tests run over the whole table, and the
    exact mass of each surviving row is its `math.fsum`.  Returns (probs,
    reasons): a read-only copy of the table in which rows off by more than
    EXACT_SUM_TOL but within PROB_TOL are divided by their mass, and for
    each row None or the reason it fails.  Failing rows are left as given.
    """
    probs = np.array(table, dtype=float)
    if probs.ndim != 2:
        raise ValueError("expected a 2-d table of rows")
    reasons: list[str | None] = [None] * probs.shape[0]
    if probs.shape[1] == 0:
        reasons = ["empty row"] * probs.shape[0]
    else:
        finite = np.isfinite(probs).all(axis=1)
        negative = (probs < 0.0).any(axis=1)
        for i in np.flatnonzero(~finite).tolist():
            reasons[i] = "non-finite entry"
        for i in np.flatnonzero(finite & negative).tolist():
            reasons[i] = "negative entry"
        checked = np.flatnonzero(finite & ~negative)
        scaled, masses = [], []
        for i, row in zip(checked.tolist(), probs[checked].tolist()):
            mass = math.fsum(row)
            deviation = abs(mass - 1.0)
            if deviation > PROB_TOL:
                reasons[i] = f"mass {mass!r} is off by more than {PROB_TOL}"
            elif deviation > EXACT_SUM_TOL:
                scaled.append(i)
                masses.append(mass)
        if scaled:
            probs[scaled] /= np.array(masses)[:, np.newaxis]
    probs.flags.writeable = False
    return probs, reasons


def intern(values: Sequence) -> tuple[tuple, np.ndarray]:
    """(distinct, codes): the distinct values in order of first use, and the
    code of each value; equal values share a code."""
    distinct = dict.fromkeys(values)
    code = dict(zip(distinct, range(len(distinct))))
    return tuple(distinct), np.fromiter(map(code.__getitem__, values), np.int64, len(values))


def first_groups(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) of entries with equal ids.

    Groups are numbered in order of their first entry: first[g] is that
    entry and group[k] the group of entry k.
    """
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def void_rows(table: np.ndarray) -> np.ndarray:
    """Each row of a table with columns as one opaque value, compared by its bytes."""
    table = np.ascontiguousarray(table)
    return table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()


def _first_use(values: tuple, codes) -> tuple[tuple, np.ndarray]:
    """(values, codes) numbered in order of first use, unused values dropped."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    entries = np.arange(len(codes))
    first = np.full(len(values), len(codes))
    np.minimum.at(first, codes, entries)
    order = codes[first[codes] == entries]  # each used value, in order of first use
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return tuple(map(values.__getitem__, order.tolist())), rank[codes]


def _frozen(codes: np.ndarray) -> np.ndarray:
    codes.flags.writeable = False
    return codes


class SortedIndex:
    """Finds values in an array by searching a sorted copy of it."""

    __slots__ = ("order", "values")

    def __init__(self, values: np.ndarray):
        self.order = np.argsort(values, kind="stable")
        self.values = values[self.order]

    def duplicated(self) -> bool:
        """Is some value held twice?"""
        return bool((self.values[1:] == self.values[:-1]).any())

    def find(self, wanted: np.ndarray) -> np.ndarray:
        """The position of each wanted value, or -1 where there is none."""
        found = np.full(np.shape(wanted), -1, dtype=np.int64)
        if self.values.size:
            at = np.minimum(np.searchsorted(self.values, wanted), self.values.size - 1)
            hit = self.values[at] == wanted
            found[hit] = self.order[at[hit]]
        return found


class PairIndex(SortedIndex):
    """Finds table entries by their (state code, key code) pair."""

    __slots__ = ("width",)

    def __init__(self, state_codes: np.ndarray, key_codes: np.ndarray, width: int):
        self.width = width
        super().__init__(state_codes * width + key_codes)

    def find(self, state_codes, key_codes) -> np.ndarray:
        """The entry of each (state code, key code) pair, or -1 where there is
        none; a negative code finds none."""
        state_codes, key_codes = np.broadcast_arrays(state_codes, key_codes)
        found = super().find(state_codes * self.width + key_codes)
        return np.where((state_codes >= 0) & (key_codes >= 0), found, -1)


class TransitionTable(Mapping):
    """Read-only transition table: (state, key) -> row, stored as columns.

    `states`, `actions` and `rows` hold each distinct state, key (action,
    joint action or action histogram tuple) and row object once, numbered
    in order of first use.  Entry k maps (`states[state_codes[k]]`,
    `actions[action_codes[k]]`) to `rows[row_codes[k]]`, and entries keep
    the order they were given in.  States and keys are told apart by
    equality and rows by identity, so a row read back is the object put
    in.  Any state, key and row can be held (validation reports unknown
    states, out-of-range keys and rows of the wrong width per entry), but
    each (state, key) pair only once.

    As a mapping it reads like the dict it is built from (`of`): `len`,
    iteration order, `get` and `==`.  Bulk consumers read the columns and
    find entries with `find` (by label) or `index.find` (by code).
    `lifting` also holds a ground model's sensor entries in one, keyed by
    (state, joint observation) with each probability as its row object.
    """

    __slots__ = (
        "states", "actions", "rows", "state_codes", "action_codes", "row_codes",
        "index", "_state_code", "_action_code",
    )

    def __init__(self, states, actions, rows, state_codes, action_codes, row_codes):
        self.states, state_codes = _first_use(tuple(states), state_codes)
        self.actions, action_codes = _first_use(tuple(actions), action_codes)
        self.rows, row_codes = _first_use(tuple(rows), row_codes)
        if not len(state_codes) == len(action_codes) == len(row_codes):
            raise ValueError("transition table columns differ in length")
        self.state_codes = _frozen(state_codes)
        self.action_codes = _frozen(action_codes)
        self.row_codes = _frozen(row_codes)
        self.index = PairIndex(state_codes, action_codes, len(self.actions))
        if self.index.duplicated():
            raise ValueError("transition table holds a (state, key) pair twice")
        self._state_code = dict(zip(self.states, range(len(self.states))))
        self._action_code = dict(zip(self.actions, range(len(self.actions))))

    @classmethod
    def of(cls, table: Mapping) -> TransitionTable:
        """The table of a {(state, key): row} mapping (a table is kept as is)."""
        if isinstance(table, TransitionTable):
            return table
        pairs = list(table)
        if not ({tuple}.issuperset(map(type, pairs)) and {2}.issuperset(map(len, pairs))):
            for pair in pairs:
                if not (isinstance(pair, tuple) and len(pair) == 2):
                    raise TypeError(f"transition key {pair!r} is not a (state, key) pair")
        states, state_codes = intern(list(map(itemgetter(0), pairs)))
        actions, action_codes = intern(list(map(itemgetter(1), pairs)))
        objects = list(table.values())
        by_id = dict(zip(map(id, objects), objects))
        _, row_codes = intern(list(map(id, objects)))
        return cls(states, actions, by_id.values(), state_codes, action_codes, row_codes)

    def find(self, states: Sequence, actions: Sequence) -> np.ndarray:
        """entry[i, k] of the pair (states[i], actions[k]), or -1 where the
        table has none."""
        state_codes = [self._state_code.get(s, -1) for s in states]
        action_codes = [self._action_code.get(a, -1) for a in actions]
        return self.index.find(
            np.array(state_codes, dtype=np.int64)[:, np.newaxis],
            np.array(action_codes, dtype=np.int64)[np.newaxis, :],
        )

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            state, action = key
            s, a = self._state_code.get(state, -1), self._action_code.get(action, -1)
            entry = self.index.find(s, a)
            if entry >= 0:
                return self.rows[self.row_codes[entry]]
        raise KeyError(key)

    def __len__(self) -> int:
        return len(self.row_codes)

    def __iter__(self):
        return zip(
            map(self.states.__getitem__, self.state_codes.tolist()),
            map(self.actions.__getitem__, self.action_codes.tolist()),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


def _table_field(model) -> None:
    """Hold a model's transition table as a TransitionTable."""
    object.__setattr__(model, "transition", TransitionTable.of(model.transition))


@dataclass(frozen=True)
class Mdp:
    """Fully observable single-agent model with per-state action ranges.

    transition maps (state, action) to a distribution over next states;
    a pair is expected to be present exactly when the action is declared
    for the state.  reward is a function of the state alone.
    """

    kind: ClassVar[str] = "mdp"
    states: StateSpace
    actions: dict[str, tuple[str, ...]]
    transition: TransitionTable  # a dict is converted on construction
    reward: dict[str, float]
    discount: float

    def __post_init__(self):
        _table_field(self)

    def action_union(self) -> tuple[str, ...]:
        """All actions in first-appearance order across states."""
        seen: dict[str, None] = {}
        for state in self.states:
            for a in self.actions.get(state, ()):
                seen.setdefault(a, None)
        return tuple(seen)


@dataclass(frozen=True)
class Pomdp(Mdp):
    """MDP whose state is only seen through a noisy sensor."""

    kind: ClassVar[str] = "pomdp"
    observations: tuple[str, ...] = ()
    sensor: dict[str, DiscreteDistribution] = field(default_factory=dict)


@dataclass(frozen=True)
class GroundDecPomdp:
    """Team model: one action and one observation per agent per step.

    Joint actions and observations are tuples indexed by agent position.
    transition rows are distributions over states; sensor rows are sparse
    maps from joint observation tuples to probability (missing means 0).
    The team shares a single state-only reward and an initial belief.
    """

    kind: ClassVar[str] = "decpomdp"
    agents: tuple[str, ...]
    states: StateSpace
    actions: dict[str, tuple[str, ...]]
    observations: dict[str, tuple[str, ...]]
    transition: TransitionTable  # keyed by (state, joint action tuple)
    sensor: dict[str, dict[tuple[str, ...], float]]
    reward: dict[str, float]
    discount: float
    initial_belief: Belief

    def __post_init__(self):
        _table_field(self)


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


@dataclass(frozen=True)
class LiftedDecPomdp:
    """Team model over counting variables instead of per-agent tuples.

    Transition rows are keyed by (state, action-histogram tuple) and give a
    distribution over next states; sensor rows map each state to a sparse
    distribution over observation-histogram tuples.  The agent list and the
    partitioning are kept so the model can be expanded back to ground form
    with the original agent order.
    """

    kind: ClassVar[str] = "lifted-decpomdp"
    agents: tuple[str, ...]
    states: StateSpace
    partition_names: tuple[str, ...]
    partitioning: Partitioning
    transition: TransitionTable  # keyed by (state, action histogram tuple)
    sensor: dict[str, dict[tuple[tuple[int, ...], ...], float]]
    reward: dict[str, float]
    discount: float
    initial_belief: Belief

    def __post_init__(self):
        _table_field(self)

    def action_key_count(self) -> int:
        return math.prod(
            histogram_count(len(b), len(r))
            for b, r in zip(self.partitioning.blocks, self.partitioning.action_ranges)
        )

    def action_keys(self) -> list[tuple[tuple[int, ...], ...]]:
        """Every action-histogram tuple, in declaration order."""
        ranges = zip(self.partitioning.blocks, self.partitioning.action_ranges)
        spaces = [enumerate_histograms(len(b), len(r)) for b, r in ranges]
        return list(itertools.product(*spaces))


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self):
        return f"[{self.code}] {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _check_range(out, owner, kind, labels):
    if len(labels) == 0:
        out.append(Violation("range", f"{owner} declares no {kind}"))
        return
    if len(set(labels)) != len(labels):
        out.append(Violation("range", f"{owner} has duplicate {kind}"))
    for lbl in labels:
        if not label_ok(lbl):
            out.append(Violation("label", f"{owner} {kind} label {lbl!r} is not allowed"))


def _check_row(out, name, dist: DiscreteDistribution, width: int):
    if len(dist) != width:
        out.append(Violation("row", f"{name} has {len(dist)} entries, expected {width}"))
        return
    arr = dist.probs
    if not np.all(np.isfinite(arr)):
        out.append(Violation("row", f"{name} contains a non-finite entry"))
        return
    if np.any(arr < 0.0):
        out.append(Violation("row", f"{name} contains a negative entry"))
    if dist.deviation() > PROB_TOL:
        out.append(
            Violation("normalization", f"{name} sums to {dist.mass()!r}, expected 1")
        )


def _finite_number(value) -> bool:
    """Is this an int or a float whose float value is finite?"""
    if not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_sparse_row(out, name, row: dict, keys_ok) -> None:
    for key, value in row.items():
        if not keys_ok(key):
            out.append(Violation("key", f"{name} has out-of-range key {key!r}"))
        if not _finite_number(value):
            out.append(Violation("row", f"{name} entry {key!r} is not a finite number"))
            return
        if value < 0.0:
            out.append(Violation("row", f"{name} entry {key!r} is negative"))
    mass = math.fsum(float(v) for v in row.values())
    if abs(mass - 1.0) > PROB_TOL:
        out.append(Violation("normalization", f"{name} sums to {mass!r}, expected 1"))


# Table-wide screens: each says which rows the row checker above would
# report on.  Only those rows are checked again one by one, so reports keep
# their text and order while clean rows cost one pass over the stacked
# distinct rows.

def _dense_flags(rows: Sequence, width: int) -> np.ndarray:
    """Which of these row objects `_check_row` reports on."""
    flags = np.ones(len(rows), dtype=bool)
    fit = [i for i, row in enumerate(rows) if len(row) == width]
    if fit:
        _probs, reasons = canonical_rows(np.stack([rows[i].probs for i in fit]))
        flags[fit] = [reason is not None for reason in reasons]
    return flags


def _plain_numbers(values) -> bool:
    """Is every value exactly an int or a float (no bool, no subclass)?"""
    return {int, float}.issuperset(map(type, values))


def _sparse_clean(row: dict, bad_keys: set) -> bool:
    """Does `_check_sparse_row` find nothing in this row?"""
    values = list(row.values())
    if not bad_keys.isdisjoint(row) or not _plain_numbers(values):
        return False
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return False
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        return False
    return abs(math.fsum(values) - 1.0) <= PROB_TOL


def _check_team_transitions(
    out, model, keys_ok, row_name: str, key_problem: str, n_keys: int, all_keys, cap: int
) -> None:
    """Report the transition rows of a ground or lifted team model.

    Rows are screened once per distinct row object, and `keys_ok(keys)`
    says which of the distinct keys are good.  `all_keys()` lists the
    `n_keys` keys each state needs a row for; missing rows are looked for
    only when `n_keys` is at most `cap` and the entries with a known state
    and a good key, which are distinct pairs, number fewer than
    |states| x `n_keys`.
    """
    table = model.transition
    known = set(model.states.labels)
    unknown = np.array([state not in known for state in table.states], dtype=bool)
    bad_keys = ~np.array(keys_ok(table.actions), dtype=bool)
    outside = unknown[table.state_codes] | bad_keys[table.action_codes]
    flags = _dense_flags(table.rows, len(model.states))[table.row_codes] | outside
    for i in np.flatnonzero(flags).tolist():
        state = table.states[table.state_codes[i]]
        key = table.actions[table.action_codes[i]]
        name = f"{row_name} ({state!r}, {key!r})"
        if unknown[table.state_codes[i]]:
            out.append(Violation("undeclared-row", f"{name}: unknown state"))
        if bad_keys[table.action_codes[i]]:
            out.append(Violation("key", f"{name}: {key_problem}"))
        _check_row(out, name, table.rows[table.row_codes[i]], len(model.states))
    in_range = len(table) - int(outside.sum())
    if n_keys <= cap and in_range < len(model.states) * n_keys:
        keys = list(all_keys())
        for state in model.states:
            for k in np.flatnonzero(table.find([state], keys)[0] < 0).tolist():
                out.append(
                    Violation("missing-row", f"no {row_name} for ({state!r}, {keys[k]!r})")
                )


def _check_team_sensor(out, model, keys_ok, row_name: str) -> None:
    """Report the sparse sensor rows of a ground or lifted team model;
    `keys_ok(keys)` says which of the distinct keys are good."""
    known = set(model.states.labels)
    for state in model.states:
        if state not in model.sensor:
            out.append(Violation("missing-row", f"no sensor row for state {state!r}"))
    rows = [row for state, row in model.sensor.items() if state in known]
    keys = list(set().union(*rows))
    bad_keys = {key for key, ok in zip(keys, keys_ok(keys)) if not ok}
    for state, row in model.sensor.items():
        if state not in known:
            out.append(Violation("undeclared-row", f"sensor row for unknown state {state!r}"))
        elif not _sparse_clean(row, bad_keys):
            _check_sparse_row(out, f"{row_name} {state!r}", row, lambda key: key not in bad_keys)


def _check_reward(out, model):
    for state in model.states:
        if state not in model.reward:
            out.append(Violation("reward", f"no reward for state {state!r}"))
        else:
            value = model.reward[state]
            if not _finite_number(value):
                out.append(Violation("reward", f"reward for {state!r} is not finite"))
    for state in model.reward:
        if state not in model.states.labels:
            out.append(Violation("reward", f"reward for unknown state {state!r}"))


def _check_discount(out, model):
    if not (isinstance(model.discount, (int, float)) and 0.0 < model.discount <= 1.0):
        out.append(
            Violation("discount", f"discount {model.discount!r} outside (0, 1]")
        )


def _check_belief(out, belief: Belief, states: StateSpace):
    if belief.state_space != states:
        out.append(Violation("belief", "initial belief indexes a different state space"))
        return
    arr = belief.probs
    if arr.size != len(states):
        out.append(Violation("belief", "initial belief has the wrong dimension"))
        return
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        out.append(Violation("belief", "initial belief entries must be finite and non-negative"))
    if abs(belief.mass() - 1.0) > PROB_TOL:
        out.append(Violation("belief", f"initial belief sums to {belief.mass()!r}"))


def _validate_mdp(model: Mdp, out: list[Violation]):
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
    declared = dict.fromkeys(
        (s, a) for s in model.states for a in model.actions.get(s, ())
    )
    for key in declared:
        if key not in model.transition:
            out.append(Violation("missing-row", f"no transition row for {key!r}"))
    table = model.transition
    flags = _dense_flags(table.rows, len(model.states))[table.row_codes]
    for flag, (key, dist) in zip(flags.tolist(), table.items()):
        if key not in declared:
            out.append(Violation("undeclared-row", f"transition row for undeclared {key!r}"))
        if flag:
            _check_row(out, f"transition row {key!r}", dist, len(model.states))


def _validate_pomdp(model: Pomdp, out: list[Violation]):
    _validate_mdp(model, out)
    # the agent cannot see the state, so every state must allow every action
    union = model.action_union()
    for state in model.states:
        if state in model.actions and set(model.actions[state]) != set(union):
            out.append(Violation(
                "range",
                f"state {state!r} declares actions {model.actions[state]!r}, "
                f"not all of {union!r}",
            ))
    _check_range(out, "model", "observations", model.observations)
    for state in model.states:
        if state not in model.sensor:
            out.append(Violation("missing-row", f"no sensor row for state {state!r}"))
    rows = {s: dist for s, dist in model.sensor.items() if s in model.states.labels}
    flags = dict(zip(rows, _dense_flags(list(rows.values()), len(model.observations))))
    for state, dist in model.sensor.items():
        if state not in model.states.labels:
            out.append(Violation("undeclared-row", f"sensor row for unknown state {state!r}"))
        elif flags[state]:
            _check_row(out, f"sensor row {state!r}", dist, len(model.observations))


def _validate_ground(model: GroundDecPomdp, out: list[Violation], cap: int):
    _check_discount(out, model)
    _check_reward(out, model)
    if len(model.agents) == 0:
        out.append(Violation("range", "no agents declared"))
        return
    if len(set(model.agents)) != len(model.agents):
        out.append(Violation("range", "duplicate agent names"))
    for agent in model.agents:
        if not label_ok(agent):
            out.append(Violation("label", f"agent name {agent!r} is not allowed"))
        _check_range(out, f"agent {agent!r}", "actions", model.actions.get(agent, ()))
        _check_range(
            out, f"agent {agent!r}", "observations", model.observations.get(agent, ())
        )
    action_ranges = [model.actions.get(a, ()) for a in model.agents]
    obs_ranges = [model.observations.get(a, ()) for a in model.agents]

    def tuple_ok(joint, ranges):
        return (
            isinstance(joint, tuple)
            and len(joint) == len(model.agents)
            and all(v in r for v, r in zip(joint, ranges))
        )

    def tuples_ok(keys, ranges):
        # one screen of all the keys: every one a tuple of the agents' arity
        # and each agent's values, as a set, inside its range; the per-tuple
        # test runs only when the screen fails
        if (
            {tuple}.issuperset(map(type, keys))
            and {len(ranges)}.issuperset(map(len, keys))
            and all(set(values) <= set(r) for values, r in zip(zip(*keys), ranges))
        ):
            return [True] * len(keys)
        return [tuple_ok(joint, ranges) for joint in keys]

    _check_team_transitions(
        out,
        model,
        lambda keys: tuples_ok(keys, action_ranges),
        "transition row",
        "joint action outside the ranges",
        math.prod(len(r) for r in action_ranges),
        lambda: itertools.product(*action_ranges),
        cap,
    )
    _check_team_sensor(out, model, lambda keys: tuples_ok(keys, obs_ranges), "sensor row")
    _check_belief(out, model.initial_belief, model.states)


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

    _check_team_transitions(
        out,
        model,
        lambda keys: [key_ok(key, part.action_ranges) for key in keys],
        "lifted transition row",
        "malformed histogram key",
        model.action_key_count(),
        model.action_keys,
        cap,
    )
    _check_team_sensor(
        out,
        model,
        lambda keys: [key_ok(key, part.observation_ranges) for key in keys],
        "lifted sensor row",
    )


def validate_model(model, cap: int = DEFAULT_JOINT_CAP) -> ValidationReport:
    """Collect every violated invariant of a model into a report.

    Nothing is raised and nothing is repaired; an empty report means the
    model is safe for the solvers.  For team models, transition-row
    completeness is only enumerable when the joint action space fits under
    `cap`; beyond that the present rows are still checked individually.
    """
    out: list[Violation] = []
    if isinstance(model, Pomdp):
        _validate_pomdp(model, out)
    elif isinstance(model, Mdp):
        _validate_mdp(model, out)
    elif isinstance(model, GroundDecPomdp):
        _validate_ground(model, out, cap)
    elif isinstance(model, LiftedDecPomdp):
        validate_lifted(model, out, cap)
    else:
        out.append(Violation("kind", f"unsupported model type {type(model).__name__}"))
    return ValidationReport(out)


def belief_update(model: Pomdp, belief: Belief, action: str, observation: str) -> Belief:
    """Bayes filter step: condition the predicted belief on an observation.

    new(s') is proportional to sensor(observation | s') times the one-step
    push-forward of `belief` under `action`.  Missing transition rows
    contribute nothing.  Raises ZeroProbabilityObservation when the
    observation has zero prior probability under the predicted belief.
    """
    n = len(model.states)
    predicted = np.zeros(n)
    for i, state in enumerate(model.states):
        weight = belief.probs[i]
        if weight == 0.0:
            continue
        row = model.transition.get((state, action))
        if row is not None:
            predicted += weight * row.probs
    obs_index = model.observations.index(observation)
    numer = np.array(
        [model.sensor[s].probs[obs_index] for s in model.states]
    ) * predicted
    norm = math.fsum(numer.tolist())
    if norm <= 0.0:
        raise ZeroProbabilityObservation(
            f"observation {observation!r} has zero probability after {action!r}"
        )
    return Belief(model.states, numer / norm)
