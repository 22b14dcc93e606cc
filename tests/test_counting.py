"""Counting module checks against brute-force tuple enumeration.

The oracle never goes through the histogram code: joint tuples are
enumerated with itertools.product and grouped by hand, and the grouped
counts are what the module must reproduce.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declift.counting import (
    bounded_compositions,
    enumerate_histograms,
    format_histogram_tuple_key,
    histogram_count,
    histogram_multiplicity,
    is_peak_shaped,
    parse_histogram_key,
    parse_histogram_tuple_key,
    range_positions,
    tuple_to_histogram,
)
from declift.errors import CapacityExceeded, RangeMismatch, SchemaError


def brute_force_histograms(n, r):
    """Group all r**n value tuples by their count vector."""
    groups = {}
    for combo in itertools.product(range(r), repeat=n):
        counts = tuple(combo.count(v) for v in range(r))
        groups[counts] = groups.get(counts, 0) + 1
    return groups


@pytest.mark.parametrize("n,r", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 3), (6, 2), (5, 4)])
def test_enumeration_matches_brute_force(n, r):
    groups = brute_force_histograms(n, r)
    enumerated = list(enumerate_histograms(n, r))
    assert len(enumerated) == len(groups)
    assert set(enumerated) == set(groups)
    for h in enumerated:
        assert histogram_multiplicity(h) == groups[h]


def test_enumeration_order_reverse_lexicographic():
    assert list(enumerate_histograms(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    counts = list(enumerate_histograms(2, 3))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == (2, 0, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.lists(st.integers(0, 4), max_size=4))
def test_bounded_compositions_match_a_filtered_product(total, bounds):
    # every tuple under the bounds with the right sum, reverse-lexicographic
    expected = sorted(
        (
            parts
            for parts in itertools.product(*(range(b + 1) for b in bounds))
            if sum(parts) == total
        ),
        reverse=True,
    )
    assert list(bounded_compositions(total, tuple(bounds))) == expected


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("r", range(1, 5))
def test_histogram_count_closed_form(n, r):
    # oracle: stars-and-bars is re-derived via brute force for small sizes,
    # and via the direct comb identity otherwise
    if r ** n <= 4096:
        assert histogram_count(n, r) == len(brute_force_histograms(n, r))
    assert histogram_count(n, r) == math.comb(n + r - 1, r - 1)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("r", range(1, 5))
def test_histogram_count_power_bound(n, r):
    assert histogram_count(n, r) <= n ** r


@pytest.mark.parametrize(
    "n, r, message",
    [(-1, 2, "partition size must be non-negative"), (2, 0, "range size must be at least 1")],
    ids=["negative-size", "empty-range"],
)
def test_histogram_count_rejects_bad_sizes(n, r, message):
    with pytest.raises(ValueError, match=message):
        histogram_count(n, r)


@pytest.mark.parametrize("n,r", [(2, 2), (3, 3), (10, 4), (7, 3)])
def test_multiplicities_sum_to_power(n, r):
    total = sum(histogram_multiplicity(h) for h in enumerate_histograms(n, r))
    assert total == r ** n


def test_large_group_exact_integers():
    # the scale the histogram view exists for: no float could hold these
    assert histogram_count(64000, 2) == 64001
    assert histogram_multiplicity((32000, 32000)) == math.comb(64000, 32000)


def test_tuple_to_histogram_with_member_selection():
    h = tuple_to_histogram(("x", "q", "x"), ("x", "y"), member_indices=(0, 2))
    assert h == (2, 0)
    assert tuple_to_histogram(("x", "y", "x"), ("x", "y")) == (2, 1)
    positions = range_positions(("x", "y"))
    assert tuple_to_histogram(("x", "q", "x"), positions, member_indices=(0, 2)) == h
    assert tuple_to_histogram(("x", "y", "x"), positions) == (2, 1)


def test_tuple_to_histogram_range_mismatch():
    with pytest.raises(RangeMismatch):
        tuple_to_histogram(("x", "z"), ("x", "y"))
    with pytest.raises(RangeMismatch):
        tuple_to_histogram(("x", "q"), ("x", "y"), member_indices=(1,))
    with pytest.raises(RangeMismatch, match=r"range \('x', 'y'\)"):
        tuple_to_histogram(("x", "z"), range_positions(("x", "y")))


def test_peak_shape():
    assert is_peak_shaped((3, 0, 0))
    assert is_peak_shaped((0, 5))
    assert not is_peak_shaped((2, 1))
    assert not is_peak_shaped((0, 0))


def test_peak_shaped_count_equals_range_size():
    peaks = [h for h in enumerate_histograms(4, 3) if is_peak_shaped(h)]
    assert len(peaks) == 3


def test_key_round_trip():
    assert format_histogram_tuple_key([(2, 0)]) == "[2,0]"
    assert parse_histogram_key("[2,0]") == (2, 0)
    assert format_histogram_tuple_key([(2, 0), (1, 1)]) == "[2,0]|[1,1]"
    assert parse_histogram_tuple_key("[2,0]|[1,1]") == ((2, 0), (1, 1))


@pytest.mark.parametrize("bad", ["[2,0", "2,0", "[2, 0]", "[]", "[-1,3]", "[01,2]", ""])
def test_malformed_keys_rejected(bad):
    with pytest.raises(SchemaError):
        parse_histogram_key(bad)


def test_enumeration_cap():
    with pytest.raises(CapacityExceeded) as err:
        enumerate_histograms(1000, 4, cap=10_000)
    assert err.value.measured == histogram_count(1000, 4)
    assert err.value.cap == 10_000



@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 4)), min_size=1, max_size=3
    ),
    st.data(),
)
def test_counting_properties(shapes, data):
    # shapes: (partition size, range size) per partition of one lifted key
    key = []
    for n, r in shapes:
        hists = list(enumerate_histograms(n, r))
        assert len(set(hists)) == len(hists) == histogram_count(n, r)
        assert all(len(h) == r and sum(h) == n for h in hists)
        assert sum(histogram_multiplicity(h) for h in hists) == r**n
        key.append(data.draw(st.sampled_from(hists)))
    key = tuple(key)
    assert parse_histogram_tuple_key(format_histogram_tuple_key(key)) == key
