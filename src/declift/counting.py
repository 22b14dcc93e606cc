"""Occupancy-count bookkeeping for groups of interchangeable agents.

When the members of a group all share one finite value range, a joint
assignment of values to members is determined, up to reordering of the
members, by how many of them hold each value.  This module provides that
histogram view: enumeration of all histograms, exact counts of how many
histograms and how many underlying tuples exist, conversion from concrete
tuples, and the serialized key syntax used in model files.

A histogram is a plain tuple of counts, ``counts[i]`` members holding the
i-th value of the range; a lifted key is a tuple of those, one per
partition, e.g. ``((2, 0), (1, 1))``, serialized as ``[2,0]|[1,1]``.
Numbers in model files and CLI reports are written by `float_text`.

Counts are exact big integers throughout; the group sizes of interest make
anything float-based useless (factorials of tens of thousands).
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Sequence

from .errors import CapacityExceeded, RangeMismatch, SchemaError

# The package's default caps.  They live here, in a module that loads no
# numpy, so the command line can declare its flag defaults without
# importing the solvers.
DEFAULT_JOINT_CAP = 10_000_000
DEFAULT_PLAN_CAP = 1_000_000


def histogram_count(partition_size: int, range_size: int) -> int:
    """Number of histograms for a group: C(n + r - 1, r - 1), exact.

    This is the multiset coefficient (compositions of n into r ordered
    non-negative parts).  For n >= 2 it is bounded above by n ** r.
    """
    if partition_size < 0:
        raise ValueError("partition size must be non-negative")
    if range_size < 1:
        raise ValueError("range size must be at least 1")
    return math.comb(partition_size + range_size - 1, range_size - 1)


def enumerate_histograms(
    partition_size: int, range_size: int, cap: int = DEFAULT_JOINT_CAP
) -> Iterator[tuple[int, ...]]:
    """Yield every histogram of `partition_size` members over `range_size` values.

    Order is reverse-lexicographic on the count vectors, so the first
    histogram piles everyone onto the first range value: for n=2, r=2 the
    order is (2, 0), (1, 1), (0, 2).  Raises CapacityExceeded up front when
    the total count would exceed `cap`; nothing is yielded in that case.
    """
    total = histogram_count(partition_size, range_size)
    if total > cap:
        raise CapacityExceeded(
            f"{total} histograms of {partition_size} members over "
            f"{range_size} values exceed the enumeration cap {cap}",
            measured=total,
            cap=cap,
        )
    return bounded_compositions(partition_size, (partition_size,) * range_size)


def bounded_compositions(total: int, bounds) -> Iterator[tuple[int, ...]]:
    """Ways to write `total` as ordered parts with parts[i] <= bounds[i].

    Reverse-lexicographic order.  The lifted evaluator calls this in its
    innermost loop, so it validates nothing.
    """
    if len(bounds) == 0:
        if total == 0:
            yield ()
        return
    yield from _compositions_from(bounds, 0, total)


def _compositions_from(bounds, i, remaining):
    # the parts i, i+1, ... of `bounded_compositions`; a module-level
    # generator, since a nested one refers to itself through its closure
    # and leaves a reference cycle behind every call
    if i == len(bounds) - 1:
        if remaining <= bounds[i]:
            yield (remaining,)
        return
    for x in range(min(remaining, bounds[i]), -1, -1):
        for rest in _compositions_from(bounds, i + 1, remaining - x):
            yield (x,) + rest


def tuple_to_histogram(
    values: Sequence[str],
    base_range: Sequence[str],
    member_indices: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Collapse a joint value tuple to the histogram of a group's members.

    `values` is a joint assignment indexed by agent position; the entries
    at `member_indices` (default: all of them) are counted against
    `base_range`.  A value outside the range raises RangeMismatch.  Callers
    that collapse many tuples against one range may pass it as the dict
    from `range_positions`, which is then not rebuilt on every call.
    """
    if member_indices is None:
        member_indices = range(len(values))
    positions = base_range if isinstance(base_range, dict) else range_positions(base_range)
    counts = [0] * len(positions)
    for idx in member_indices:
        value = values[idx]
        pos = positions.get(value)
        if pos is None:
            raise RangeMismatch(
                f"value {value!r} of member {idx} is not in the range "
                f"{tuple(positions)!r}"
            )
        counts[pos] += 1
    return tuple(counts)


def range_positions(base_range: Sequence[str]) -> dict[str, int]:
    """Map each label of a value range to its position, in range order."""
    return {label: i for i, label in enumerate(base_range)}


def histogram_multiplicity(counts: Sequence[int]) -> int:
    """How many distinct member-value tuples collapse onto this histogram.

    The multinomial coefficient n! / prod(counts!), computed as a product
    of binomials so intermediate values stay as small as exactness allows.
    The lifted evaluator calls this in its innermost loop, so it validates
    nothing.
    """
    taken, result = 0, 1
    for c in counts:
        taken += c
        result *= math.comb(taken, c)
    return result


def is_peak_shaped(counts: Sequence[int]) -> bool:
    """True when every member holds the same value.

    Exactly one count equals the partition size and the rest are zero.
    The all-zero histogram of an empty group is not peak-shaped.
    """
    n = sum(counts)
    return n > 0 and n in counts


_KEY_RE = re.compile(r"\[(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*\]")


def format_histogram_tuple_key(key: Sequence[Sequence[int]]) -> str:
    """Serialized form of a lifted key, partitions joined by ``|``: ``[2,0]|[1,1]``."""
    return "|".join("[" + ",".join(str(c) for c in h) + "]" for h in key)


def parse_histogram_key(key: str) -> tuple[int, ...]:
    """Parse a single ``[2,0]`` style key."""
    if not _KEY_RE.fullmatch(key):
        raise SchemaError(f"malformed histogram key {key!r}")
    return tuple(int(c) for c in key[1:-1].split(","))


def parse_histogram_tuple_key(key: str) -> tuple[tuple[int, ...], ...]:
    """Parse a ``[2,0]|[1,1]`` style key, one histogram per partition."""
    return tuple(parse_histogram_key(p) for p in key.split("|"))


def float_text(value: float) -> str:
    """A float in 17 significant digits; -0.0 becomes 0.0 so the text round-trips."""
    return format(value + 0.0, ".17g")
