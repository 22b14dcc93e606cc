"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single PASS line with the measured quantities so a
`pytest -v -s` run reads as a checklist.  Oracles are computed locally
(closed forms, brute-force enumeration, hand-stepped chains) rather
than through the code paths under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from declift.cli import main
from declift.counting import enumerate_histograms, histogram_multiplicity
from declift.lifting import LiftedDecPomdp, Partitioning, ground
from declift.models import Belief, DiscreteDistribution, Mdp, StateSpace
from declift.nano import generate_nano, nano_desk_preset, nano_paper_preset, nano_size_params
from declift.sizes import size_report
from declift.solvers import (
    decpomdp_exhaustive,
    enumerate_plans,
    lifted_exhaustive,
    mdp_value_iteration,
    pomdp_plan_iteration,
)

from test_solvers import count_based_team, lift_chain, random_mdp, random_pomdp


def _timed(bound_s):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < bound_s, f"{label} took {elapsed:.2f}s (bound {bound_s}s)"
        return elapsed

    return check


# ---------------------------------------------------------------------------
# 1. table sizes at the published scale


def test_criterion_1_size_reproduction(capsys):
    done = _timed(1.0)
    params = nano_size_params(nano_paper_preset())
    report = size_report(params)

    assert report.ground_transition == 320010.0
    assert report.ground_sensor == 320005.0
    lifted_t = 10.0 + 10.0 * math.log2(64000)
    lifted_o = 5.0 + 10.0 * math.log2(64000)
    assert math.isclose(report.lifted_transition, lifted_t, rel_tol=1e-12)
    assert math.isclose(report.lifted_sensor, lifted_o, rel_tol=1e-12)
    assert report.exact_key_counts == ((64001, 64001),) * 5

    assert main(["analyze-size", "--preset", "paper"]) == 0
    table = capsys.readouterr().out
    assert "320010" in table and "320005" in table

    elapsed = done("size reproduction")
    print(
        f"PASS [1/7] size reproduction: ground 320010/320005 exact, lifted "
        f"{report.lifted_transition:.12g}/{report.lifted_sensor:.12g} "
        f"({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 2. histogram counting against brute force


def test_criterion_2_counting():
    done = _timed(10.0)
    checked = 0
    for r in range(1, 5):
        for n in range(1, 11):
            hists = list(enumerate_histograms(n, r))
            expected = math.comb(n + r - 1, r - 1)
            assert len(hists) == expected
            assert len(set(hists)) == expected
            assert sum(histogram_multiplicity(h) for h in hists) == r**n
            if n >= 2:
                assert expected <= n**r
            if r**n <= 20000:
                # brute force: bucket every ground tuple by its histogram
                buckets: dict[tuple, int] = {}
                for tup in itertools.product(range(r), repeat=n):
                    counts = [0] * r
                    for v in tup:
                        counts[v] += 1
                    key = tuple(counts)
                    buckets[key] = buckets.get(key, 0) + 1
                assert buckets.keys() == set(hists)
                for h in hists:
                    assert buckets[h] == histogram_multiplicity(h)
            checked += 1
    elapsed = done("counting")
    print(
        f"PASS [2/7] counting: {checked} (n, r) grids match C(n+r-1, r-1), "
        f"multiplicity sums, and brute-force buckets ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 3. lifted vs ground optima on random liftable instances


def _random_lifted_instance(rng, sizes, n_states):
    """Liftable by construction: every row is drawn per histogram key."""
    label_pools = [("x", "y"), ("u", "v"), ("p", "q")]
    obs_pools = [("o", "n"), ("d", "e"), ("g", "h")]
    agents = tuple(f"a{i}" for i in range(sum(sizes)))
    blocks, start = [], 0
    for n_k in sizes:
        blocks.append(tuple(range(start, start + n_k)))
        start += n_k
    action_ranges = tuple(
        label_pools[k % 3][: int(rng.integers(1, 3))] for k in range(len(sizes))
    )
    observation_ranges = tuple(
        obs_pools[k % 3][: int(rng.integers(1, 3))] for k in range(len(sizes))
    )
    part = Partitioning(tuple(blocks), action_ranges, observation_ranges)
    states = StateSpace(tuple(f"s{i}" for i in range(n_states)))

    def keys(ranges):
        pools = [
            list(enumerate_histograms(n_k, len(ranges[k])))
            for k, n_k in enumerate(sizes)
        ]
        return list(itertools.product(*pools))

    def row(n):
        raw = rng.random(n) + 1e-3
        return raw / raw.sum()

    transition = {
        (s, key): DiscreteDistribution(row(n_states))
        for s in states
        for key in keys(action_ranges)
    }
    obs_keys = keys(observation_ranges)
    sensor = {
        s: {k: float(p) for k, p in zip(obs_keys, row(len(obs_keys)))}
        for s in states
    }
    reward = {s: float(rng.uniform(-1.0, 1.0)) for s in states}
    return LiftedDecPomdp(
        agents,
        states,
        tuple(f"p{k}" for k in range(len(sizes))),
        part,
        transition,
        sensor,
        reward,
        0.9,
        Belief(states, row(n_states)),
    )


def _rows_close(got, want, tol=1e-9):
    assert got.keys() == want.keys()
    for key in want:
        a, b = got[key], want[key]
        if hasattr(a, "probs"):
            assert np.allclose(a.probs, b.probs, atol=tol)
        else:
            assert a.keys() == b.keys()
            for k in b:
                assert abs(a[k] - b[k]) < tol


def test_criterion_3_equivalence_on_random_instances():
    done = _timed(300.0)
    rng = np.random.default_rng(20260818)
    deep_sizes = [(1,), (2,), (1, 1)]
    wide_sizes = deep_sizes + [(3,), (4,), (2, 1), (2, 2), (3, 1), (1, 1, 1)]
    worst = 0.0
    for i in range(50):
        horizon = 1 + i % 3
        patterns = deep_sizes if horizon == 3 else wide_sizes
        sizes = patterns[int(rng.integers(len(patterns)))]
        n_states = int(rng.integers(1, 4))
        lifted_src = _random_lifted_instance(rng, sizes, n_states)
        ground_model = ground(lifted_src)

        relifted = lift_chain(ground_model)
        value_ground = decpomdp_exhaustive(ground_model, horizon).value
        value_lifted = lifted_exhaustive(relifted, horizon).value
        gap = abs(value_ground - value_lifted)
        worst = max(worst, gap)
        assert gap < 1e-9, f"instance {i}: |{value_ground} - {value_lifted}|"

        round_trip = ground(relifted)
        assert round_trip.agents == ground_model.agents
        _rows_close(round_trip.transition, ground_model.transition)
        _rows_close(round_trip.sensor, ground_model.sensor)
    elapsed = done("equivalence")
    print(
        f"PASS [3/7] equivalence: 50 liftable instances, worst value gap "
        f"{worst:.3e} < 1e-9, round-trips entry-wise ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 4. value iteration against closed forms


def test_criterion_4_value_iteration():
    done = _timed(10.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        r = float(rng.uniform(-5.0, 5.0))
        gamma = float(rng.uniform(0.1, 0.95))
        model = Mdp(
            StateSpace(("only",)),
            {"only": ("stay",)},
            {("only", "stay"): DiscreteDistribution([1.0])},
            {"only": r},
            gamma,
        )
        table, _policy = mdp_value_iteration(model, epsilon=1e-6)
        assert abs(table.values["only"] - r / (1.0 - gamma)) < 1e-6

    for _ in range(20):
        model = random_mdp(
            rng, n_states=int(rng.integers(2, 6)), n_actions=int(rng.integers(1, 4))
        )
        epsilon = 1e-6
        table, _policy = mdp_value_iteration(model, epsilon=epsilon)
        bound = epsilon * (1.0 - model.discount) / model.discount
        # Bellman residual straight from the tables
        residual = 0.0
        for s in model.states:
            best = max(
                model.reward[s]
                + model.discount
                * sum(
                    p * table.values[s2]
                    for s2, p in zip(
                        model.states, model.transition[(s, a)].probs
                    )
                )
                for a in model.actions[s]
            )
            residual = max(residual, abs(best - table.values[s]))
        assert residual < bound
    elapsed = done("value iteration")
    print(
        f"PASS [4/7] value iteration: 10 geometric closed forms within 1e-6, "
        f"20 random MDPs with Bellman residual under eps(1-g)/g ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 5. pruning never changes the upper surface


def _local_plan_value(model, plan):
    """Independent recursive plan evaluation (root action, then branches)."""
    n = len(model.states.labels)
    if not plan.subplans:
        return np.array([model.reward[s] for s in model.states])
    subvalues = [_local_plan_value(model, sub) for sub in plan.subplans]
    out = np.zeros(n)
    for i, s in enumerate(model.states):
        trans = model.transition[(s, plan.action)].probs
        acc = 0.0
        for j, s2 in enumerate(model.states):
            omega = model.sensor[s2].probs
            acc += trans[j] * sum(
                omega[o] * subvalues[o][j] for o in range(len(omega))
            )
        out[i] = model.reward[s] + model.discount * acc
    return out


def test_criterion_5_pruning_soundness():
    done = _timed(60.0)
    rng = np.random.default_rng(55)
    grid = np.array([[1.0 - p, p] for p in np.arange(0.0, 1.0 + 1e-12, 0.01)])
    worst = 0.0
    for _ in range(20):
        model = random_pomdp(rng, n_states=2, n_actions=2, n_obs=2)
        survivors = pomdp_plan_iteration(model, horizon=2)
        pruned = np.array([v.alpha for v in survivors])

        all_plans = enumerate_plans(
            model.action_union(), len(model.observations), 2, cap=10**6
        )
        full = np.array([_local_plan_value(model, p) for p in all_plans])

        pruned_surface = (grid @ pruned.T).max(axis=1)
        full_surface = (grid @ full.T).max(axis=1)
        gap = float(np.max(np.abs(pruned_surface - full_surface)))
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = done("pruning")
    print(
        f"PASS [5/7] pruning: 20 POMDPs, pruned vs all-plans surface gap "
        f"{worst:.3e} < 1e-9 on the 0.01 belief grid ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 6. the hand-checked nano desk instance


def test_criterion_6_nano_desk():
    done = _timed(60.0)
    model = generate_nano(nano_desk_preset())
    result = lifted_exhaustive(model, horizon=3)

    # two steps of discount, marker present half the time, payoff 10 - 2
    hand_value = 0.9 * 0.9 * 0.5 * (10.0 - 2.0)
    assert result.value == pytest.approx(hand_value, abs=1e-9)

    by_name = dict(zip(model.partition_names, result.policy.plans))
    (sensor_plan, _), = by_name["sensor0"]
    (bot_plan, _), = by_name["bot0"]
    obs = model.partitioning.observation_ranges[0]
    detect, none = obs.index("detect"), obs.index("none")
    assert sensor_plan.action == "release"
    assert bot_plan.action == "noop"
    assert bot_plan.subplans[detect].action == "release"
    assert bot_plan.subplans[none].action == "noop"

    peak = lifted_exhaustive(model, horizon=3, peak_only=True)
    assert peak.value == pytest.approx(result.value, abs=1e-12)
    elapsed = done("nano desk")
    print(
        f"PASS [6/7] nano desk: horizon-3 value {result.value:.12g} matches "
        f"hand computation {hand_value}, policy releases on message, peak-only "
        f"agrees ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 7. exponential vs binomial key growth


def test_criterion_7_key_growth():
    done = _timed(1.0)
    pairs = []
    for n_agents in range(2, 7):
        team = count_based_team(n_agents=n_agents)
        lifted = lift_chain(team)

        ground_keys = {len(row) for row in team.sensor.values()}
        lifted_keys = {len(row) for row in lifted.sensor.values()}
        assert ground_keys == {2**n_agents}
        assert lifted_keys == {n_agents + 1}
        assert n_agents + 1 == math.comb(n_agents + 1, 1)
        pairs.append((2**n_agents, n_agents + 1))
    assert pairs[-1] == (64, 7)
    elapsed = done("key growth")
    print(
        f"PASS [7/7] key growth: ground vs lifted sensor keys for N=2..6 are "
        f"{pairs}, ending at 64 vs 7 ({elapsed:.2f}s)"
    )
