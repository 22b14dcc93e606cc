"""Worst-case table-size bounds for the three model representations.

A ground team model indexes its transition table by (state, state, one
action per agent) and its sensor table by (state, one observation per
agent), so both tables grow exponentially with the number of agents.
After lifting, keys carry one histogram per partition instead of one
symbol per agent, and in the best case (every partition on a single
shared value) one symbol per partition.

Everything here is reported as a log2 of the bound, never as a raw
magnitude: the interesting instances have more keys than the observable
universe has atoms, and the exponent is the whole story.  Exact key
counts per partition are also reported, as arbitrary-precision integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import histogram_count
from .errors import InvalidParams
from .lifting import LiftedDecPomdp, range_partition, symmetry_refine
from .models import GroundDecPomdp, Pomdp


@dataclass(frozen=True)
class SizeParams:
    """Instance parameters for the size bounds.

    Range sizes and the partition size are maxima over the model they
    describe, which keeps the bounds sound for non-uniform instances.
    """

    states: int
    agents: int
    partitions: int
    actions_per_agent: int
    observations_per_agent: int
    partition_size: int

    def __post_init__(self):
        for name in (
            "states",
            "agents",
            "partitions",
            "actions_per_agent",
            "observations_per_agent",
            "partition_size",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise InvalidParams(f"{name} must be a positive integer, got {value!r}")
        if self.partition_size > self.agents:
            raise InvalidParams(
                f"partition_size {self.partition_size} exceeds agent count {self.agents}"
            )
        if self.partitions > self.agents:
            raise InvalidParams(
                f"partition count {self.partitions} exceeds agent count {self.agents}"
            )


@dataclass(frozen=True)
class SizeReport:
    """log2 bounds for each representation plus exact key counts.

    The two comparison flags restate the log2 columns; lifting wins
    exactly when the instance has far fewer partitions than agents, and
    can lose on tiny instances, so both directions are reported honestly.
    """

    ground_transition: float
    ground_sensor: float
    lifted_transition: float
    lifted_sensor: float
    peak_transition: float
    peak_sensor: float
    exact_key_counts: tuple[tuple[int, int], ...]  # per partition: (action, observation)
    lifted_leq_ground: bool
    peak_leq_lifted: bool


def ground_sizes(params: SizeParams) -> tuple[float, float]:
    """log2 table bounds of the ground form: s*s*a^N and s*o^N keys."""
    s = math.log2(params.states)
    return (
        2.0 * s + params.agents * math.log2(params.actions_per_agent),
        s + params.agents * math.log2(params.observations_per_agent),
    )


def lifted_sizes(
    params: SizeParams,
) -> tuple[float, float, tuple[tuple[int, int], ...]]:
    """log2 table bounds of the counting form, plus exact key counts.

    Keys are histograms with one count per range value per partition,
    bounded by n^(a*K) for transitions and n^(o*K) for sensing; the exact
    per-partition counts are the stars-and-bars binomials.
    """
    s = math.log2(params.states)
    n = math.log2(params.partition_size)
    counts = tuple(
        (
            histogram_count(params.partition_size, params.actions_per_agent),
            histogram_count(params.partition_size, params.observations_per_agent),
        )
        for _ in range(params.partitions)
    )
    return (
        2.0 * s + params.actions_per_agent * params.partitions * n,
        s + params.observations_per_agent * params.partitions * n,
        counts,
    )


def peak_sizes(params: SizeParams) -> tuple[float, float]:
    """log2 table bounds when every partition sits on one shared value.

    Peak-shaped histograms are in bijection with plain range values, so
    the agent-count exponent collapses to the partition count: s*s*a^K
    and s*o^K.
    """
    s = math.log2(params.states)
    return (
        2.0 * s + params.partitions * math.log2(params.actions_per_agent),
        s + params.partitions * math.log2(params.observations_per_agent),
    )


def size_report(params: SizeParams) -> SizeReport:
    gt, gs = ground_sizes(params)
    lt, ls, counts = lifted_sizes(params)
    pt, ps = peak_sizes(params)
    return SizeReport(
        ground_transition=gt,
        ground_sensor=gs,
        lifted_transition=lt,
        lifted_sensor=ls,
        peak_transition=pt,
        peak_sensor=ps,
        exact_key_counts=counts,
        lifted_leq_ground=lt <= gt and ls <= gs,
        peak_leq_lifted=pt <= lt and ps <= ls,
    )


def params_from_model(model) -> SizeParams:
    """Derive size parameters from a model, taking maxima over ranges.

    Ground team models are first partitioned by the symmetry pipeline, so
    the result describes what lifting the model would actually buy.
    Single-agent models need observation ranges, so plain MDPs are
    rejected.
    """
    if isinstance(model, Pomdp):
        return SizeParams(
            states=len(model.states),
            agents=1,
            partitions=1,
            actions_per_agent=len(model.action_union()),
            observations_per_agent=len(model.observations),
            partition_size=1,
        )
    if isinstance(model, LiftedDecPomdp):
        part = model.partitioning
    elif isinstance(model, GroundDecPomdp):
        part = symmetry_refine(model, range_partition(model))
    else:
        raise InvalidParams(
            f"size analysis needs observation ranges; got {type(model).__name__}"
        )
    return SizeParams(
        states=len(model.states),
        agents=len(model.agents),
        partitions=len(part.blocks),
        actions_per_agent=max(len(r) for r in part.action_ranges),
        observations_per_agent=max(len(r) for r in part.observation_ranges),
        partition_size=max(part.sizes),
    )
