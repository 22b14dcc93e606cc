"""Nanoscale drug-delivery scenario generator.

The scenario: swarms of molecular sensors watch for disease markers, and
swarms of carrier bots hold a drug payload.  When enough sensors of every
marker type release their signal load while all markers are present, a
messenger molecule assembles; bots that sense a messenger can release
their payload, which is worth a reward where the markers really are and a
penalty where they are not.  Each sensor type and each bot type forms one
partition of interchangeable agents, so the generated model is emitted
directly in counting form and never materializes a per-agent table.

State is Boolean per marker type and per messenger type.  Marker bits
follow independent per-step appear/persist rates, and messenger bits are
freshly assembled each step (probability `assemble_prob` when enabled,
gone otherwise).  Rewards must remain a function of the state alone, so
when releasing carries a cost the state also tracks one released-last-step
bit per bot partition; the reward then pays per bot partition that
released, minus the flat release cost, and with cost zero the messenger
bits themselves act as the payoff proxy.

Sensing is independent per agent given the state, which turns per-agent
detection rates into binomial histogram rows.  Three error rates shape
detection: a false positive fires with nothing present, a cross-type
response fires on the wrong type, and a false negative misses a present
target.

A transition row depends only on the marker bits, on whether assembly is
enabled (all markers present and every sensor partition past the release
threshold) and on the release bits the key sets, so the generator builds
one row per such input and every (state, key) entry with that input
holds the same distribution object, as a parsed model does.  The
2-marker, 1-message, size-3 instance has 1,024 transition entries and 10
rows.

Parameters, presets, states and size parameters load no numpy, so a size
analysis of a preset never imports it; `generate_nano` imports the model
types when it is called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .counting import DEFAULT_JOINT_CAP
from .errors import CapacityExceeded, InvalidParams
from .sizes import SizeParams

ACTIONS = ("release", "noop")
OBSERVATIONS = ("detect", "none")


@dataclass(frozen=True)
class NanoParams:
    """Scenario parameters; defaults describe a small desk-scale instance.

    `marker_initial` sets the initial-belief rate for each marker bit and
    falls back to `marker_appear` when unset.  A positive `release_cost`
    switches the state space to the variant with released-last-step bits.
    """

    marker_types: int = 1
    message_types: int = 1
    partition_size: int = 3
    marker_appear: float = 0.2
    marker_persist: float = 0.9
    assemble_prob: float = 0.9
    release_threshold: float = 0.5
    false_positive: float = 0.05
    cross_type: float = 0.02
    false_negative: float = 0.1
    reward_good: float = 10.0
    reward_bad: float = 20.0
    release_cost: float = 1.0
    discount: float = 0.9
    marker_initial: float | None = None

    def __post_init__(self):
        if not (isinstance(self.marker_types, int) and self.marker_types >= 1):
            raise InvalidParams(f"marker_types must be >= 1, got {self.marker_types!r}")
        if not (isinstance(self.message_types, int) and self.message_types >= 1):
            raise InvalidParams(
                f"message_types must be >= 1, got {self.message_types!r}"
            )
        if not (isinstance(self.partition_size, int) and self.partition_size >= 1):
            raise InvalidParams(
                f"partition_size must be >= 1, got {self.partition_size!r}"
            )
        rates = {
            "marker_appear": self.marker_appear,
            "marker_persist": self.marker_persist,
            "assemble_prob": self.assemble_prob,
            "false_positive": self.false_positive,
            "cross_type": self.cross_type,
            "false_negative": self.false_negative,
        }
        if self.marker_initial is not None:
            rates["marker_initial"] = self.marker_initial
        for name, value in rates.items():
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise InvalidParams(f"{name} must be a probability, got {value!r}")
        if self.false_positive + self.cross_type > 1.0:
            raise InvalidParams(
                "false_positive + cross_type exceed 1; the pair is a single "
                "detection rate when the wrong type is present"
            )
        if not 0.0 < self.release_threshold <= 1.0:
            raise InvalidParams(
                f"release_threshold must be in (0, 1], got {self.release_threshold!r}"
            )
        for name in ("reward_good", "reward_bad"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise InvalidParams(f"{name} must be finite, got {value!r}")
        if not (
            isinstance(self.release_cost, (int, float))
            and math.isfinite(self.release_cost)
            and self.release_cost >= 0.0
        ):
            raise InvalidParams(
                f"release_cost must be a finite non-negative number, got "
                f"{self.release_cost!r}"
            )
        if not (
            isinstance(self.discount, (int, float)) and 0.0 < self.discount <= 1.0
        ):
            raise InvalidParams(f"discount must be in (0, 1], got {self.discount!r}")

    @property
    def tracks_releases(self) -> bool:
        return self.release_cost > 0.0

    @property
    def partition_count(self) -> int:
        return self.marker_types + self.message_types

    @property
    def state_count(self) -> int:
        count = 2 ** self.marker_types * 2 ** self.message_types
        if self.tracks_releases:
            count *= 2 ** self.message_types
        return count

    @property
    def initial_marker_rate(self) -> float:
        if self.marker_initial is None:
            return self.marker_appear
        return self.marker_initial


@dataclass(frozen=True)
class NanoState:
    """One scenario state: presence bits plus optional release bookkeeping."""

    markers: tuple[int, ...]
    messages: tuple[int, ...]
    released: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        text = "mk" + "".join(map(str, self.markers))
        text += "_ms" + "".join(map(str, self.messages))
        if self.released:
            text += "_rl" + "".join(map(str, self.released))
        return text


def nano_states(params: NanoParams) -> list[NanoState]:
    """All states in generation order (marker bits outermost)."""
    release_space = (
        list(itertools.product((0, 1), repeat=params.message_types))
        if params.tracks_releases
        else [()]
    )
    return [
        NanoState(markers, messages, released)
        for markers in itertools.product((0, 1), repeat=params.marker_types)
        for messages in itertools.product((0, 1), repeat=params.message_types)
        for released in release_space
    ]


def nano_size_params(params: NanoParams) -> SizeParams:
    return SizeParams(
        states=params.state_count,
        agents=params.partition_count * params.partition_size,
        partitions=params.partition_count,
        actions_per_agent=len(ACTIONS),
        observations_per_agent=len(OBSERVATIONS),
        partition_size=params.partition_size,
    )


def nano_paper_preset() -> NanoParams:
    """Four marker types, one message type, 64000 agents per partition.

    This is the scale where the counting form is the whole point: the
    ground tables would need hundreds of thousands of exponent bits while
    the counting tables stay around 64001 keys per partition.  The
    instance is meant for size analysis; `generate_nano` refuses to
    materialize its rows.  Release cost is zero here, which keeps the
    state space at 32 without bookkeeping bits.
    """
    return NanoParams(
        marker_types=4,
        message_types=1,
        partition_size=64_000,
        marker_appear=0.05,
        marker_persist=0.95,
        assemble_prob=0.9,
        release_threshold=0.5,
        false_positive=0.02,
        cross_type=0.01,
        false_negative=0.1,
        reward_good=10.0,
        reward_bad=20.0,
        release_cost=0.0,
        discount=0.9,
    )


def nano_desk_preset() -> NanoParams:
    """Smallest interesting instance, solvable exactly by hand.

    One sensor and one bot, deterministic dynamics, marker present with
    probability one half and never changing.  The unique optimal horizon-3
    policy releases the sensor load immediately, keeps the bot quiet until
    it senses a messenger, and is worth 0.9^2 * 0.5 * (10 - 2) = 3.24.
    """
    return NanoParams(
        marker_types=1,
        message_types=1,
        partition_size=1,
        marker_appear=0.0,
        marker_persist=1.0,
        assemble_prob=1.0,
        release_threshold=1.0,
        false_positive=0.0,
        cross_type=0.0,
        false_negative=0.0,
        reward_good=10.0,
        reward_bad=20.0,
        release_cost=2.0,
        discount=0.9,
        marker_initial=0.5,
    )


def _bit_options(present: int, stay: float, come: float):
    """Next-bit outcomes with probabilities, zero-probability branches dropped."""
    p_one = stay if present else come
    out = []
    if p_one > 0.0:
        out.append((1, p_one))
    if p_one < 1.0:
        out.append((0, 1.0 - p_one))
    return out


def _binomial_histograms(n: int, p: float):
    """Histogram (hits, misses) probabilities for n independent trials."""
    out = []
    for hits in range(n, -1, -1):
        prob = math.comb(n, hits) * p**hits * (1.0 - p) ** (n - hits)
        if prob > 0.0:
            out.append(((hits, n - hits), prob))
    return out


def _detect_rate(own: bool, other: bool, params: NanoParams) -> float:
    if own:
        return 1.0 - params.false_negative
    if other:
        return params.false_positive + params.cross_type
    return params.false_positive


def _next_row(params: NanoParams, index: dict, markers, enabled: bool, released) -> list:
    """Next-state row from the marker bits, the assembly switch and the release bits.

    `index` maps a state's bits (markers, messages, released) to its position.
    """
    options = [
        _bit_options(bit, params.marker_persist, params.marker_appear) for bit in markers
    ]
    options += [
        _bit_options(0, 0.0, params.assemble_prob if enabled else 0.0)
        for _ in range(params.message_types)
    ]
    options += [[(bit, 1.0)] for bit in released]
    row = [0.0] * len(index)
    for combo in itertools.product(*options):
        bits = tuple(b for b, _ in combo)
        row[index[bits]] += math.prod(p for _, p in combo)
    return row


def generate_nano(params: NanoParams, cap: int = DEFAULT_JOINT_CAP) -> LiftedDecPomdp:
    """Materialize the scenario as a counting-form team model.

    Refuses (CapacityExceeded) when states times per-state histogram keys
    would exceed `cap`; at refused scales the instance is still useful
    through `nano_size_params`.
    """
    from .models import (
        Belief,
        DiscreteDistribution,
        LiftedDecPomdp,
        Partitioning,
        SensorTable,
        StateSpace,
        TransitionTable,
    )

    n = params.partition_size
    n_partitions = params.partition_count
    key_count = params.state_count * (n + 1) ** n_partitions
    if key_count > cap:
        raise CapacityExceeded(
            f"{key_count} histogram table entries exceed the cap {cap}; "
            "use the size analysis at this scale",
            measured=key_count,
            cap=cap,
        )

    states = nano_states(params)
    labels = StateSpace(tuple(ns.label for ns in states))
    index = {ns.markers + ns.messages + ns.released: i for i, ns in enumerate(states)}
    histograms = [(c, n - c) for c in range(n, -1, -1)]
    keys = list(itertools.product(histograms, repeat=n_partitions))

    # A row depends on the marker bits, on whether assembly is enabled and
    # on the release bits the key sets, so it is built once per such input
    # and shared by every (state, key) entry with that input.
    threshold = math.ceil(params.release_threshold * n)
    fires = [all(key[i][0] >= threshold for i in range(params.marker_types)) for key in keys]
    release_bits = [
        tuple(int(h[0] > 0) for h in key[params.marker_types :])
        if params.tracks_releases
        else ()
        for key in keys
    ]
    rows: dict = {}  # input -> code of its row, in order of first use
    row_codes = []
    for ns in states:
        all_markers = all(ns.markers)
        for fire, released in zip(fires, release_bits):
            row_input = (ns.markers, all_markers and fire, released)
            row_codes.append(rows.setdefault(row_input, len(rows)))
    transition = TransitionTable(
        labels,
        keys,
        [DiscreteDistribution(_next_row(params, index, *row_input)) for row_input in rows],
        [s for s in range(len(states)) for _ in keys],
        list(range(len(keys))) * len(states),
        row_codes,
    )

    # an observation key is coded by its place among `keys`, which are the
    # observation histogram tuples too
    key_code = dict(zip(keys, range(len(keys))))
    sensor_states, sensor_codes, probs = [], [], []
    for s, ns in enumerate(states):
        # a partition senses its own bit; the other bits of its kind cross-react
        per_partition = [
            _binomial_histograms(
                n, _detect_rate(bool(bits[i]), any(bits[:i] + bits[i + 1 :]), params)
            )
            for bits in (ns.markers, ns.messages)
            for i in range(len(bits))
        ]
        for combo in itertools.product(*per_partition):
            sensor_states.append(s)
            sensor_codes.append(key_code[tuple(h for h, _ in combo)])
            probs.append(math.prod(p for _, p in combo))
    sensor = SensorTable(labels, keys, probs, sensor_states, sensor_codes)

    reward = {}
    for ns in states:
        all_markers = all(ns.markers)
        payoff = params.reward_good if all_markers else -params.reward_bad
        if params.tracks_releases:
            fired = sum(ns.released)
            reward[ns.label] = fired * (payoff - params.release_cost)
        else:
            reward[ns.label] = sum(ns.messages) * payoff

    rate = params.initial_marker_rate
    belief = [0.0] * len(states)
    for i, ns in enumerate(states):
        if any(ns.messages) or any(ns.released):
            continue
        belief[i] = math.prod(rate if b else 1.0 - rate for b in ns.markers)

    agents, blocks, names = [], [], []
    for kind, count in (("sensor", params.marker_types), ("bot", params.message_types)):
        for i in range(count):
            blocks.append(tuple(range(len(agents), len(agents) + n)))
            agents.extend(f"{kind}{i}_{j}" for j in range(n))
            names.append(f"{kind}{i}")
    partitioning = Partitioning(
        tuple(blocks),
        tuple(ACTIONS for _ in range(n_partitions)),
        tuple(OBSERVATIONS for _ in range(n_partitions)),
    )
    return LiftedDecPomdp(
        tuple(agents),
        labels,
        tuple(names),
        partitioning,
        transition,
        sensor,
        reward,
        params.discount,
        Belief(labels, belief),
    )
