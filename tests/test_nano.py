"""Scenario generator checks: validity grid, hand-stepped chains, and the
desk instance whose optimum is known in closed form."""

import itertools
import math

import numpy as np
import pytest

from declift.errors import CapacityExceeded, InvalidParams
from declift.lifting import ground, lift, range_partition, symmetry_refine
from declift.models import validate_model
from declift.nano import (
    NanoParams,
    NanoState,
    _binomial_histograms,
    _bit_options,
    _detect_rate,
    generate_nano,
    nano_desk_preset,
    nano_paper_preset,
    nano_size_params,
    nano_states,
)
from declift.sizes import SizeParams, ground_sizes, lifted_sizes
from declift import solvers
from declift.solvers import lifted_exhaustive


def random_rates(rng):
    return dict(
        marker_appear=float(rng.uniform(0, 1)),
        marker_persist=float(rng.uniform(0, 1)),
        assemble_prob=float(rng.uniform(0, 1)),
        release_threshold=float(rng.uniform(0.05, 1.0)),
        false_positive=float(rng.uniform(0, 0.5)),
        cross_type=float(rng.uniform(0, 0.5)),
        false_negative=float(rng.uniform(0, 1)),
    )


@pytest.mark.parametrize("marker_types,message_types", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("partition_size", [1, 3])
def test_generated_models_validate(marker_types, message_types, partition_size):
    rng = np.random.default_rng(marker_types * 10 + message_types + partition_size)
    for _ in range(3):
        params = NanoParams(
            marker_types=marker_types,
            message_types=message_types,
            partition_size=partition_size,
            **random_rates(rng),
        )
        model = generate_nano(params)
        report = validate_model(model)
        assert report.ok, str(report)
        for state, row in model.sensor.items():
            assert abs(math.fsum(row.values()) - 1.0) <= 1e-9


def test_larger_grid_instance_validates():
    params = NanoParams(
        marker_types=2, message_types=2, partition_size=4, release_threshold=0.6
    )
    model = generate_nano(params)
    assert validate_model(model).ok
    assert len(model.states) == 2**2 * 2**2 * 2**2
    assert len(model.partition_names) == 4


def test_state_count_shapes():
    assert len(nano_states(NanoParams(marker_types=2, release_cost=0.0))) == 8
    assert len(nano_states(NanoParams(marker_types=2))) == 16  # bookkeeping bits
    params = NanoParams(marker_types=1, message_types=1, release_cost=0.0)
    assert params.state_count == 4
    assert nano_size_params(params).states == 4


def test_desk_chain_steps_deterministically():
    model = generate_nano(nano_desk_preset())
    # state labels carry marker, messenger, and released bits in order
    start = NanoState((1,), (0,), (0,)).label
    sensors_release = ((1, 0), (0, 1))  # sensor partition fires, bot holds
    row = model.transition[(start, sensors_release)]
    assembled = NanoState((1,), (1,), (0,)).label
    assert row.probs[model.states.index(assembled)] == 1.0

    # the messenger is now visible to everyone who can sense it
    assert model.sensor[assembled] == {((1, 0), (1, 0)): 1.0}

    both_release = ((1, 0), (1, 0))
    row = model.transition[(assembled, both_release)]
    paid = NanoState((1,), (1,), (1,)).label
    assert row.probs[model.states.index(paid)] == 1.0
    assert model.reward[paid] == 10.0 - 2.0

    # without the marker nothing assembles and releasing is pure loss
    empty = NanoState((0,), (0,), (0,)).label
    row = model.transition[(empty, both_release)]
    wasted = NanoState((0,), (0,), (1,)).label
    assert row.probs[model.states.index(wasted)] == 1.0
    assert model.reward[wasted] == -20.0 - 2.0


def test_desk_optimum_value_and_policy():
    model = generate_nano(nano_desk_preset())
    result = lifted_exhaustive(model, 3)
    assert abs(result.value - 3.24) <= 1e-9

    [(sensor_plan, _)], [(bot_plan, _)] = result.policy.plans
    assert sensor_plan.action == "release"
    assert bot_plan.action == "noop"
    on_detect, on_none = bot_plan.subplans
    assert on_detect.action == "release"
    assert on_none.action == "noop"

    peak = lifted_exhaustive(model, 3, peak_only=True)
    assert abs(peak.value - result.value) <= 1e-12


def test_desk_h3_builds_each_allocation_kernel_once(monkeypatch):
    # the evaluator caches one allocation kernel per (depth, occupancy,
    # observation histogram) instead of re-enumerating on every visit
    calls = 0
    enumerate_allocations = solvers._group_allocations

    def counted(*args):
        nonlocal calls
        calls += 1
        return enumerate_allocations(*args)

    monkeypatch.setattr(solvers, "_group_allocations", counted)
    result = lifted_exhaustive(generate_nano(nano_desk_preset()), 3)
    assert abs(result.value - 3.24) <= 1e-9
    assert 0 < calls <= 1_000


def test_absorbing_empty_world_prefers_noop():
    params = NanoParams(
        marker_appear=0.0,
        marker_persist=1.0,
        assemble_prob=0.0,
        false_positive=0.0,
        cross_type=0.0,
        false_negative=0.0,
        marker_initial=0.0,
        partition_size=1,
    )
    model = generate_nano(params)
    result = lifted_exhaustive(model, 3)
    assert result.value == 0.0
    bot_entry = result.policy.plans[1]

    def holds_while_it_matters(plan):
        # nothing ever assembles and false positives are off, so the only
        # reachable branch is the all-"none" spine; the final step is also
        # free because releasing then has no rewarded successor
        if not plan.subplans:
            return True
        on_none = plan.subplans[1]
        return plan.action == "noop" and holds_while_it_matters(on_none)

    for plan, _ in bot_entry:
        assert holds_while_it_matters(plan)


def test_deterministic_sensing_rows_are_peak_shaped():
    params = NanoParams(
        false_positive=0.0,
        cross_type=0.0,
        false_negative=0.0,
        partition_size=3,
    )
    model = generate_nano(params)
    for state, row in model.sensor.items():
        assert len(row) == 1
        [key] = row
        assert row[key] == 1.0
        for hist in key:
            assert 3 in hist  # everyone in the partition saw the same thing


def test_ground_then_lift_reproduces_generated_model():
    params = NanoParams(partition_size=3, release_threshold=0.4)
    lifted = generate_nano(params)
    grounded = ground(lifted)
    assert validate_model(grounded).ok
    again = lift(grounded, symmetry_refine(grounded, range_partition(grounded)))

    assert again.partitioning == lifted.partitioning
    assert again.states == lifted.states
    assert set(again.transition) == set(lifted.transition)
    for key, dist in lifted.transition.items():
        assert np.allclose(again.transition[key].probs, dist.probs, atol=1e-12)
    assert set(again.sensor) == set(lifted.sensor)
    for state, row in lifted.sensor.items():
        assert set(again.sensor[state]) == set(row)
        for key, value in row.items():
            assert abs(again.sensor[state][key] - value) <= 1e-12


def test_noisier_sensing_diagnostic():
    # higher miss rates should not help; reported rather than asserted
    values = []
    for rate in (0.0, 0.25, 0.5):
        params = NanoParams(
            partition_size=2,
            false_positive=0.0,
            cross_type=0.0,
            false_negative=rate,
            marker_initial=0.5,
            marker_appear=0.1,
            marker_persist=1.0,
            assemble_prob=1.0,
            release_threshold=1.0,
        )
        result = lifted_exhaustive(generate_nano(params), 2)
        values.append(result.value)
        assert math.isfinite(result.value)
    if not all(a >= b - 1e-12 for a, b in zip(values, values[1:])):
        print(f"note: optimal value not monotone in the miss rate: {values}")


def test_paper_scale_preset_is_size_analysis_only():
    preset = nano_paper_preset()
    params = nano_size_params(preset)
    assert params == SizeParams(
        states=32,
        agents=320_000,
        partitions=5,
        actions_per_agent=2,
        observations_per_agent=2,
        partition_size=64_000,
    )
    with pytest.raises(CapacityExceeded):
        generate_nano(preset)
    log_t, _ = ground_sizes(params)
    assert log_t == 320_010.0
    _, _, counts = lifted_sizes(params)
    assert counts[0] == (64_001, 64_001)


def test_parameter_validation():
    with pytest.raises(InvalidParams):
        NanoParams(marker_types=0)
    with pytest.raises(InvalidParams):
        NanoParams(message_types=0)
    with pytest.raises(InvalidParams):
        NanoParams(partition_size=0)
    with pytest.raises(InvalidParams):
        NanoParams(marker_appear=1.5)
    with pytest.raises(InvalidParams):
        NanoParams(release_threshold=0.0)
    with pytest.raises(InvalidParams):
        NanoParams(false_positive=0.7, cross_type=0.7)
    with pytest.raises(InvalidParams):
        NanoParams(release_cost=-1.0)
    with pytest.raises(InvalidParams):
        NanoParams(discount=0.0)
    with pytest.raises(InvalidParams):
        NanoParams(marker_initial=2.0)


def test_marker_initial_defaults_to_appear_rate():
    assert NanoParams(marker_appear=0.3).initial_marker_rate == 0.3
    assert NanoParams(marker_appear=0.3, marker_initial=0.7).initial_marker_rate == 0.7


def reference_tables(params):
    """The per-entry transition and sensor builder `generate_nano` replaced.

    Every (state, key) entry gets its own row, built from the state's
    marker bits, the key's sensor counts and its bot counts.
    """
    n = params.partition_size
    states = nano_states(params)
    index = {ns.label: i for i, ns in enumerate(states)}
    threshold = math.ceil(params.release_threshold * n)
    histograms = [(c, n - c) for c in range(n, -1, -1)]
    transition = {}
    for ns in states:
        all_markers = all(ns.markers)
        for key in itertools.product(histograms, repeat=params.partition_count):
            sensors_fire = all(key[i][0] >= threshold for i in range(params.marker_types))
            enabled = all_markers and sensors_fire
            options = [
                _bit_options(bit, params.marker_persist, params.marker_appear)
                for bit in ns.markers
            ]
            options += [
                _bit_options(0, 0.0, params.assemble_prob if enabled else 0.0)
                for _ in ns.messages
            ]
            if params.tracks_releases:
                options += [
                    [(1 if key[params.marker_types + m][0] > 0 else 0, 1.0)]
                    for m in range(params.message_types)
                ]
            row = np.zeros(len(states))
            for combo in itertools.product(*options):
                bits = tuple(b for b, _ in combo)
                target = NanoState(
                    bits[: params.marker_types],
                    bits[params.marker_types : params.marker_types + params.message_types],
                    bits[params.marker_types + params.message_types :],
                )
                row[index[target.label]] += math.prod(p for _, p in combo)
            transition[(ns.label, key)] = row
    sensor = {}
    for ns in states:
        per_partition = []
        for bits in (ns.markers, ns.messages):
            for i, own in enumerate(bits):
                other = any(b for j, b in enumerate(bits) if j != i)
                per_partition.append(
                    _binomial_histograms(n, _detect_rate(bool(own), other, params))
                )
        sensor[ns.label] = {
            tuple(h for h, _ in combo): math.prod(p for _, p in combo)
            for combo in itertools.product(*per_partition)
        }
    return transition, sensor


@pytest.mark.parametrize("release_cost", [1.5, 0.0])
@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (2, 1, 3), (1, 2, 2), (2, 2, 2)]
)
def test_shared_rows_match_a_per_entry_rebuild(shape, release_cost):
    marker_types, message_types, size = shape
    rng = np.random.default_rng(sum(shape) + int(release_cost))
    params = NanoParams(
        marker_types=marker_types,
        message_types=message_types,
        partition_size=size,
        release_cost=release_cost,
        **random_rates(rng),
    )
    assert params.tracks_releases == (release_cost > 0)
    model = generate_nano(params)
    transition, sensor = reference_tables(params)
    assert list(model.transition) == list(transition)
    for key, row in transition.items():
        assert model.transition[key].probs.tobytes() == row.tobytes()
    assert list(model.sensor) == list(sensor)
    for state, row in sensor.items():
        assert list(model.sensor[state].items()) == list(row.items())
    # one row object per input: marker bits, plus the assembly switch where
    # all markers are present, times the bots' release bits
    releases = 2**message_types if params.tracks_releases else 1
    rows = {id(dist) for dist in model.transition.values()}
    assert len(rows) == (2**marker_types + 1) * releases


def test_cli_session_model_builds_few_rows():
    from test_modelio import CHAIN_RATES

    params = NanoParams(marker_types=2, message_types=1, partition_size=3, **CHAIN_RATES)
    model = generate_nano(params)
    assert len(model.transition) == 1_024
    assert len({id(dist) for dist in model.transition.values()}) <= 40
