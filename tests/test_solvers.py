"""Solver tests backed by independent oracles.

Every solver claim is recomputed here by the slowest trustworthy route:
policy enumeration plus a linear solve for value iteration, recursive
plan evaluation for the plan-set backup, and memoized joint-plan
enumeration for the team solvers.  The lifted solver is additionally
checked against the ground solver on models where the observation
histogram carries strictly more information than any single member's
observation, which is the case that separates correct counting semantics
from naive ones.
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declift.counting import enumerate_histograms
from declift.errors import CapacityExceeded, NonConvergent, ValidationError
from declift.lifting import (
    LiftedDecPomdp,
    Partitioning,
    ground,
    lift,
    range_partition,
    symmetry_refine,
)
from declift.models import (
    Belief,
    DiscreteDistribution,
    GroundDecPomdp,
    Mdp,
    Pomdp,
    StateSpace,
    validate_model,
)
from declift.solvers import (
    ConditionalPlan,
    PlanValueVector,
    decpomdp_exhaustive,
    dominance_prune,
    enumerate_plans,
    lifted_exhaustive,
    mdp_value_iteration,
    plan_count,
    pomdp_plan_iteration,
)


# ---------------------------------------------------------------------------
# builders

def random_row(rng, n):
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


def random_mdp(rng, n_states=3, n_actions=2, gamma=0.9):
    states = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    actions = {s: tuple(f"a{j}" for j in range(n_actions)) for s in states}
    transition = {
        (s, a): DiscreteDistribution(random_row(rng, n_states))
        for s in states
        for a in actions[s]
    }
    reward = {s: float(rng.uniform(-2.0, 2.0)) for s in states}
    return Mdp(states, actions, transition, reward, gamma)


def random_pomdp(rng, n_states=2, n_actions=2, n_obs=2, gamma=0.9):
    base = random_mdp(rng, n_states, n_actions, gamma)
    observations = tuple(f"z{j}" for j in range(n_obs))
    sensor = {s: DiscreteDistribution(random_row(rng, n_obs)) for s in base.states}
    return Pomdp(
        base.states,
        base.actions,
        base.transition,
        base.reward,
        base.discount,
        observations,
        sensor,
    )


def count_based_team(sensor_kind="iid", n_agents=2, gamma=0.9):
    """Team model whose dynamics depend only on how many agents play "x".

    With the "iid" sensor each agent independently sees "o" with a
    state-dependent rate.  With the "parity" sensor the count of "o"
    symbols is even exactly in state lo, so any single observation is
    pure noise while the histogram identifies the state.
    """
    agents = tuple(f"a{i}" for i in range(n_agents))
    states = StateSpace(("lo", "hi"))
    actions = {a: ("x", "y") for a in agents}
    observations = {a: ("o", "n") for a in agents}
    transition = {}
    for s in states:
        for ja in itertools.product(("x", "y"), repeat=n_agents):
            k = ja.count("x")
            if s == "lo":
                p_hi = 0.15 + 0.7 * k / n_agents
            else:
                p_hi = 0.9 - 0.55 * k / n_agents
            transition[(s, ja)] = DiscreteDistribution([1.0 - p_hi, p_hi])
    sensor = {}
    for s in states:
        row = {}
        if sensor_kind == "iid":
            q = 0.8 if s == "hi" else 0.3
            for jo in itertools.product(("o", "n"), repeat=n_agents):
                p = 1.0
                for o in jo:
                    p *= q if o == "o" else 1.0 - q
                row[jo] = p
        elif sensor_kind == "parity":
            share = 1.0 / 2 ** (n_agents - 1)
            want_even = s == "lo"
            for jo in itertools.product(("o", "n"), repeat=n_agents):
                if (jo.count("o") % 2 == 0) == want_even:
                    row[jo] = share
        else:
            raise ValueError(sensor_kind)
        sensor[s] = row
    reward = {"lo": 0.0, "hi": 1.0}
    return GroundDecPomdp(
        agents,
        states,
        actions,
        observations,
        transition,
        sensor,
        reward,
        gamma,
        Belief(states, [0.6, 0.4]),
    )


def random_team(rng, n_states=2, gamma=0.9):
    """Unstructured two-agent model; generally not liftable."""
    agents = ("a0", "a1")
    states = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    actions = {a: ("x", "y") for a in agents}
    observations = {a: ("o", "n") for a in agents}
    transition = {
        (s, ja): DiscreteDistribution(random_row(rng, n_states))
        for s in states
        for ja in itertools.product(("x", "y"), repeat=2)
    }
    joint_obs = list(itertools.product(("o", "n"), repeat=2))
    sensor = {
        s: {jo: float(p) for jo, p in zip(joint_obs, random_row(rng, 4))}
        for s in states
    }
    reward = {s: float(rng.uniform(-1.0, 1.0)) for s in states}
    return GroundDecPomdp(
        agents,
        states,
        actions,
        observations,
        transition,
        sensor,
        reward,
        gamma,
        Belief(states, random_row(rng, n_states)),
    )


def random_lifted(rng, sizes=(2,), gamma=0.9, observations=("o", "n")):
    """Liftable-by-construction model: rows drawn per histogram key."""
    n_partitions = len(sizes)
    agents = tuple(f"a{i}" for i in range(sum(sizes)))
    blocks, start = [], 0
    for n_k in sizes:
        blocks.append(tuple(range(start, start + n_k)))
        start += n_k
    part = Partitioning(
        tuple(blocks),
        tuple(("x", "y") for _ in sizes),
        tuple(observations for _ in sizes),
    )
    states = StateSpace(("s0", "s1"))
    action_keys = list(
        itertools.product(*(enumerate_histograms(n, 2) for n in sizes))
    )
    transition = {
        (s, key): DiscreteDistribution(random_row(rng, len(states)))
        for s in states
        for key in action_keys
    }
    sensor = {}
    for s in states:
        keys = list(
            itertools.product(
                *(enumerate_histograms(n, len(observations)) for n in sizes)
            )
        )
        sensor[s] = {k: float(p) for k, p in zip(keys, random_row(rng, len(keys)))}
    reward = {s: float(rng.uniform(-1.0, 1.0)) for s in states}
    return LiftedDecPomdp(
        agents,
        states,
        tuple(f"p{k}" for k in range(n_partitions)),
        part,
        transition,
        sensor,
        reward,
        gamma,
        Belief(states, random_row(rng, len(states))),
    )


# ---------------------------------------------------------------------------
# oracles

def policy_values(model: Mdp) -> dict[str, float]:
    """Optimal utilities by enumerating every deterministic policy.

    Each policy's utility solves (I - g T) u = R exactly; the optimum
    dominates pointwise, so the per-state max over policies is it.
    """
    states = list(model.states)
    n = len(states)
    reward = np.array([model.reward[s] for s in states])
    best = np.full(n, -np.inf)
    for choice in itertools.product(*(model.actions[s] for s in states)):
        t = np.stack(
            [model.transition[(s, a)].probs for s, a in zip(states, choice)]
        )
        u = np.linalg.solve(np.eye(n) - model.discount * t, reward)
        best = np.maximum(best, u)
    return dict(zip(states, best))


def eval_plan(model: Pomdp, plan: ConditionalPlan, state: str) -> float:
    value = model.reward[state]
    if not plan.subplans:
        return value
    row = model.transition[(state, plan.action)]
    acc = 0.0
    for t, pt in zip(model.states, row.probs):
        if pt == 0.0:
            continue
        srow = model.sensor[t].probs
        for o_idx, po in enumerate(srow):
            if po == 0.0:
                continue
            acc += pt * po * eval_plan(model, plan.subplans[o_idx], t)
    return value + model.discount * acc


def horizon_values(model, horizon: int) -> dict[str, float]:
    """Finite-horizon dynamic program for fully observable models."""
    values = {s: 0.0 for s in model.states}
    for _ in range(horizon):
        new = {}
        for s in model.states:
            best = None
            for a in model.actions[s]:
                row = model.transition[(s, a)]
                q = math.fsum(
                    p * values[t] for p, t in zip(row.probs, model.states)
                )
                if best is None or q > best:
                    best = q
            new[s] = model.reward[s] + model.discount * (best if best is not None else 0.0)
        values = new
    return values


def eval_joint(model: GroundDecPomdp, plans, state: str, memo) -> float:
    key = (plans, state)
    if key in memo:
        return memo[key]
    value = model.reward[state]
    if any(p.subplans for p in plans):
        ja = tuple(p.action for p in plans)
        row = model.transition[(state, ja)]
        acc = 0.0
        for t, pt in zip(model.states, row.probs):
            if pt == 0.0:
                continue
            for jo, po in model.sensor[t].items():
                if po == 0.0:
                    continue
                subs = tuple(
                    p.subplans[model.observations[agent].index(o)]
                    for p, agent, o in zip(plans, model.agents, jo)
                )
                acc += pt * po * eval_joint(model, subs, t, memo)
        value += model.discount * acc
    memo[key] = value
    return value


def brute_team_optimum(model: GroundDecPomdp, horizon: int) -> float:
    pools = [
        enumerate_plans(model.actions[a], len(model.observations[a]), horizon)
        for a in model.agents
    ]
    b0 = model.initial_belief.probs
    memo: dict = {}
    best = None
    for combo in itertools.product(*pools):
        v = math.fsum(
            b0[i] * eval_joint(model, combo, s, memo)
            for i, s in enumerate(model.states)
            if b0[i] != 0.0
        )
        if best is None or v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# value iteration

def test_value_iteration_geometric_series():
    states = StateSpace(("s",))
    model = Mdp(
        states,
        {"s": ("go",)},
        {("s", "go"): DiscreteDistribution([1.0])},
        {"s": 2.0},
        0.9,
    )
    table, policy = mdp_value_iteration(model, epsilon=1e-8)
    assert table.converged
    assert abs(table.values["s"] - 20.0) <= 1e-8
    assert policy == {"s": "go"}


@pytest.mark.parametrize("seed", range(8))
def test_value_iteration_matches_policy_enumeration(seed):
    rng = np.random.default_rng(seed)
    model = random_mdp(rng, n_states=3, n_actions=2, gamma=0.9)
    table, policy = mdp_value_iteration(model, epsilon=1e-10)
    oracle = policy_values(model)
    for s in model.states:
        assert abs(table.values[s] - oracle[s]) <= 1e-8
    # the greedy policy must itself achieve the optimal utilities
    states = list(model.states)
    t = np.stack([model.transition[(s, policy[s])].probs for s in states])
    reward = np.array([model.reward[s] for s in states])
    u = np.linalg.solve(np.eye(len(states)) - model.discount * t, reward)
    for i, s in enumerate(states):
        assert abs(u[i] - oracle[s]) <= 1e-8


def test_value_iteration_tie_breaks_by_declaration_order():
    states = StateSpace(("s",))
    row = DiscreteDistribution([1.0])
    model = Mdp(
        states,
        {"s": ("first", "second")},
        {("s", "first"): row, ("s", "second"): row},
        {"s": 1.0},
        0.5,
    )
    _, policy = mdp_value_iteration(model)
    assert policy["s"] == "first"


def test_value_iteration_discount_one_needs_cap():
    states = StateSpace(("s",))
    model = Mdp(
        states,
        {"s": ("go",)},
        {("s", "go"): DiscreteDistribution([1.0])},
        {"s": 0.0},
        1.0,
    )
    with pytest.raises(NonConvergent):
        mdp_value_iteration(model)
    table, _ = mdp_value_iteration(model, max_iterations=5)
    assert table.iterations == 5
    assert not table.converged


def test_value_iteration_rejects_bad_epsilon():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mdp_value_iteration(random_mdp(rng), epsilon=0.0)


# ---------------------------------------------------------------------------
# plan enumeration

@pytest.mark.parametrize("n_actions", [1, 2, 3])
@pytest.mark.parametrize("n_obs", [1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_plan_count_matches_enumeration(n_actions, n_obs, depth):
    actions = tuple(f"a{i}" for i in range(n_actions))
    plans = enumerate_plans(actions, n_obs, depth)
    assert len(plans) == plan_count(n_actions, n_obs, depth)
    assert len(set(plans)) == len(plans)
    assert all(p.depth == depth for p in plans)
    assert all(
        len(p.subplans) == (n_obs if depth > 1 else 0) for p in plans
    )


def test_plan_enumeration_order_is_action_major():
    plans = enumerate_plans(("a", "b"), 1, 2)
    as_pairs = [(p.action, p.subplans[0].action) for p in plans]
    assert as_pairs == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_plan_enumeration_respects_cap():
    with pytest.raises(CapacityExceeded) as err:
        enumerate_plans(("a", "b"), 2, 4, cap=100)
    assert err.value.measured > 100
    assert err.value.cap == 100


# ---------------------------------------------------------------------------
# plan-set backup and pruning

def test_dominance_prune_keeps_upper_surface():
    def vec(x, y):
        return PlanValueVector(ConditionalPlan("a"), np.array([x, y]))

    vectors = [
        vec(1.0, 0.0),
        vec(0.0, 1.0),
        vec(0.4, 0.4),  # below the surface everywhere
        vec(1.0, 0.0),  # duplicate of the first
        vec(0.6, 0.6),  # wins around the middle of the simplex
        vec(-0.1, 0.9),  # pointwise dominated by (0, 1)
    ]
    kept = dominance_prune(vectors)
    surfaces = {tuple(v.alpha) for v in kept}
    assert surfaces == {(1.0, 0.0), (0.0, 1.0), (0.6, 0.6)}


def test_dominance_prune_single_vector_kept():
    v = PlanValueVector(ConditionalPlan("a"), np.array([0.0, 0.0]))
    assert dominance_prune([v]) == [v]


@pytest.mark.parametrize("seed", range(6))
def test_plan_iteration_surface_matches_all_plans(seed):
    rng = np.random.default_rng(100 + seed)
    model = random_pomdp(rng)
    horizon = 2
    survivors = pomdp_plan_iteration(model, horizon)
    everything = [
        np.array([eval_plan(model, p, s) for s in model.states])
        for p in enumerate_plans(model.action_union(), len(model.observations), horizon)
    ]
    for x in np.arange(0.0, 1.0 + 1e-12, 0.05):
        b = np.array([x, 1.0 - x])
        pruned_best = max(float(b.dot(v.alpha)) for v in survivors)
        full_best = max(float(b.dot(alpha)) for alpha in everything)
        assert abs(pruned_best - full_best) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_plan_iteration_surface_matches_all_plans_horizon_three(seed):
    rng = np.random.default_rng(200 + seed)
    model = random_pomdp(rng)
    survivors = pomdp_plan_iteration(model, 3)
    everything = [
        np.array([eval_plan(model, p, s) for s in model.states])
        for p in enumerate_plans(model.action_union(), len(model.observations), 3)
    ]
    for x in np.arange(0.0, 1.0 + 1e-12, 0.1):
        b = np.array([x, 1.0 - x])
        pruned_best = max(float(b.dot(v.alpha)) for v in survivors)
        full_best = max(float(b.dot(alpha)) for alpha in everything)
        assert abs(pruned_best - full_best) <= 1e-9


def test_plan_iteration_depth_one_value_is_reward():
    rng = np.random.default_rng(7)
    model = random_pomdp(rng)
    survivors = pomdp_plan_iteration(model, 1)
    reward = np.array([model.reward[s] for s in model.states])
    assert len(survivors) == 1  # identical vectors collapse
    assert np.allclose(survivors[0].alpha, reward)


def test_plan_iteration_fully_observable_matches_dp():
    rng = np.random.default_rng(42)
    base = random_mdp(rng, n_states=3, n_actions=2, gamma=0.9)
    identity = np.eye(3)
    model = Pomdp(
        base.states,
        base.actions,
        base.transition,
        base.reward,
        base.discount,
        ("z0", "z1", "z2"),
        {s: DiscreteDistribution(identity[i]) for i, s in enumerate(base.states)},
    )
    for horizon in (1, 2, 3):
        survivors = pomdp_plan_iteration(model, horizon)
        oracle = horizon_values(model, horizon)
        for i, s in enumerate(model.states):
            best = max(v.alpha[i] for v in survivors)
            assert abs(best - oracle[s]) <= 1e-9


def test_plan_iteration_single_observation_is_open_loop():
    rng = np.random.default_rng(11)
    base = random_mdp(rng, n_states=2, n_actions=2, gamma=0.9)
    model = Pomdp(
        base.states,
        base.actions,
        base.transition,
        base.reward,
        base.discount,
        ("tick",),
        {s: DiscreteDistribution([1.0]) for s in base.states},
    )
    horizon = 3
    survivors = pomdp_plan_iteration(model, horizon)

    def sequence_value(seq, state, depth):
        value = model.reward[state]
        if depth > 1:
            row = model.transition[(state, seq[0])]
            value += model.discount * math.fsum(
                p * sequence_value(seq[1:], t, depth - 1)
                for p, t in zip(row.probs, model.states)
            )
        return value

    sequences = list(itertools.product(model.action_union(), repeat=horizon))
    for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.3, 0.7])):
        pruned_best = max(float(b.dot(v.alpha)) for v in survivors)
        open_loop_best = max(
            math.fsum(
                b[i] * sequence_value(seq, s, horizon)
                for i, s in enumerate(model.states)
            )
            for seq in sequences
        )
        assert abs(pruned_best - open_loop_best) <= 1e-9


def test_plan_iteration_reports_stats_and_respects_cap():
    rng = np.random.default_rng(3)
    model = random_pomdp(rng, n_actions=2, n_obs=2)
    stats = []
    pomdp_plan_iteration(model, 3, stats=stats)
    assert len(stats) == 3
    for generated, surviving in stats:
        assert 0 < surviving <= generated
    with pytest.raises(CapacityExceeded):
        pomdp_plan_iteration(model, 3, cap_plans=1)


# ---------------------------------------------------------------------------
# ground team search

@pytest.mark.parametrize("seed,horizon", [(0, 1), (0, 2), (1, 2), (2, 2), (0, 3)])
def test_exhaustive_matches_brute_force(seed, horizon):
    rng = np.random.default_rng(300 + seed)
    model = random_team(rng)
    result = decpomdp_exhaustive(model, horizon)
    assert abs(result.value - brute_team_optimum(model, horizon)) <= 1e-9


def test_exhaustive_single_agent_matches_plan_surface():
    rng = np.random.default_rng(5)
    pomdp = random_pomdp(rng)
    states = pomdp.states
    team = GroundDecPomdp(
        ("solo",),
        states,
        {"solo": pomdp.action_union()},
        {"solo": pomdp.observations},
        {
            (s, (a,)): dist
            for (s, a), dist in pomdp.transition.items()
        },
        {
            s: {(o,): float(p) for o, p in zip(pomdp.observations, pomdp.sensor[s].probs)}
            for s in states
        },
        pomdp.reward,
        pomdp.discount,
        Belief(states, [0.5, 0.5]),
    )
    for horizon in (1, 2, 3):
        survivors = pomdp_plan_iteration(pomdp, horizon)
        b0 = team.initial_belief.probs
        single_best = max(float(b0.dot(v.alpha)) for v in survivors)
        team_value = decpomdp_exhaustive(team, horizon).value
        assert abs(single_best - team_value) <= 1e-9


def test_exhaustive_value_monotone_in_horizon():
    model = count_based_team("iid")  # rewards are non-negative
    values = [decpomdp_exhaustive(model, h).value for h in (1, 2, 3)]
    assert values[0] <= values[1] + 1e-12
    assert values[1] <= values[2] + 1e-12


def test_exhaustive_tie_breaks_to_first_tuple():
    model = count_based_team("iid")
    flat = GroundDecPomdp(
        model.agents,
        model.states,
        model.actions,
        model.observations,
        model.transition,
        model.sensor,
        {s: 0.0 for s in model.states},
        model.discount,
        model.initial_belief,
    )
    result = decpomdp_exhaustive(flat, 2)
    assert result.value == 0.0

    def all_first(plan):
        return plan.action == "x" and all(all_first(p) for p in plan.subplans)

    for entry in result.policy.plans:
        [(plan, count)] = entry
        assert count == 1
        assert all_first(plan)


def test_exhaustive_respects_joint_cap():
    model = count_based_team("iid")
    with pytest.raises(CapacityExceeded) as err:
        decpomdp_exhaustive(model, 2, cap_joint=10)
    assert err.value.measured == 64
    assert err.value.cap == 10


def test_exhaustive_policy_shape():
    model = count_based_team("iid")
    result = decpomdp_exhaustive(model, 2)
    assert result.policy.horizon == 2
    assert len(result.policy.plans) == len(model.agents)
    assert result.statistics["per_agent_plans"] == [8, 8]
    assert result.statistics["joint_tuples"] == 64


# ---------------------------------------------------------------------------
# lifted team search

def lift_chain(model: GroundDecPomdp) -> LiftedDecPomdp:
    return lift(model, symmetry_refine(model, range_partition(model)))


@pytest.mark.parametrize("sensor_kind", ["iid", "parity"])
@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_lifted_matches_ground(sensor_kind, horizon):
    model = count_based_team(sensor_kind)
    lifted = lift_chain(model)
    assert len(lifted.partition_names) == 1
    ground_result = decpomdp_exhaustive(model, horizon)
    lifted_result = lifted_exhaustive(lifted, horizon)
    assert abs(ground_result.value - lifted_result.value) <= 1e-9


def test_lifted_matches_ground_three_member_partition():
    model = count_based_team("iid", n_agents=3)
    lifted = lift_chain(model)
    ground_result = decpomdp_exhaustive(model, 2)
    lifted_result = lifted_exhaustive(lifted, 2)
    assert abs(ground_result.value - lifted_result.value) <= 1e-9


@pytest.mark.parametrize("seed,sizes", [(0, (2,)), (1, (2,)), (2, (2, 1)), (3, (3,))])
def test_lifted_matches_ground_on_random_liftable_models(seed, sizes):
    rng = np.random.default_rng(400 + seed)
    lifted = random_lifted(rng, sizes)
    assert validate_model(lifted).ok
    grounded = ground(lifted)
    assert validate_model(grounded).ok
    for horizon in (1, 2):
        ground_result = decpomdp_exhaustive(grounded, horizon)
        lifted_result = lifted_exhaustive(lifted, horizon)
        assert abs(ground_result.value - lifted_result.value) <= 1e-9


@pytest.mark.parametrize("sizes", [(2,), (1, 2)])
def test_lifted_matches_ground_at_horizon_four(sizes):
    # with one observation symbol a depth-4 plan is an action sequence, which
    # keeps horizon 4, and so the memoised depth-3 vectors, cheap to reach
    lifted = random_lifted(np.random.default_rng(7), sizes, observations=("o",))
    ground_result = decpomdp_exhaustive(ground(lifted), 4)
    lifted_result = lifted_exhaustive(lifted, 4)
    assert abs(ground_result.value - lifted_result.value) <= 1e-9


def test_peak_only_matches_shared_plan_brute_force():
    model = count_based_team("iid", n_agents=3)
    lifted = lift_chain(model)
    horizon = 2
    full = lifted_exhaustive(lifted, horizon)
    peak = lifted_exhaustive(lifted, horizon, peak_only=True)
    assert peak.value <= full.value + 1e-12

    memo: dict = {}
    b0 = model.initial_belief.probs
    shared_best = max(
        math.fsum(
            b0[i] * eval_joint(model, (p, p, p), s, memo)
            for i, s in enumerate(model.states)
        )
        for p in enumerate_plans(("x", "y"), 2, horizon)
    )
    assert abs(peak.value - shared_best) <= 1e-9

    [entry] = peak.policy.plans
    [(_, count)] = entry
    assert count == 3


def test_lifted_policy_counts_cover_partitions():
    rng = np.random.default_rng(9)
    lifted = random_lifted(rng, (2, 1))
    result = lifted_exhaustive(lifted, 2)
    assert len(result.policy.plans) == 2
    for entry, size in zip(result.policy.plans, lifted.partitioning.sizes):
        assert sum(count for _, count in entry) == size
        assert all(count > 0 for _, count in entry)


def test_lifted_respects_caps():
    model = count_based_team("iid", n_agents=3)
    lifted = lift_chain(model)
    with pytest.raises(CapacityExceeded):
        lifted_exhaustive(lifted, 2, cap_joint=10)
    with pytest.raises(CapacityExceeded):
        lifted_exhaustive(lifted, 3, cap_plans=16)


@pytest.mark.parametrize("defect", ["missing", "mass"])
def test_lifted_rejects_bad_sensor_row_before_searching(defect):
    lifted = random_lifted(np.random.default_rng(3), (2,))
    sensor = dict(lifted.sensor)
    if defect == "missing":
        del sensor["s1"]
    else:
        sensor["s1"] = {key: 0.5 * p for key, p in sensor["s1"].items()}
    broken = dataclasses.replace(lifted, sensor=sensor)
    # horizon 1 reads no sensor row, so only an up-front check can refuse it
    with pytest.raises(ValidationError, match="sensor row for state 's1'"):
        lifted_exhaustive(broken, 1)


def test_lifted_rejects_missing_transition_row_before_searching():
    lifted = random_lifted(np.random.default_rng(3), (2, 1))
    missing = ("s1", ((1, 1), (0, 1)))
    transition = dict(lifted.transition)
    del transition[missing]
    broken = dataclasses.replace(lifted, transition=transition)
    # horizon 1 reads no transition row, so only an up-front check can refuse it
    with pytest.raises(ValidationError, match=re.escape(repr(missing))):
        lifted_exhaustive(broken, 1)


def test_lifted_tie_breaks_to_first_multiset():
    lifted = random_lifted(np.random.default_rng(5), (2, 1))
    flat = dataclasses.replace(lifted, reward={s: 0.0 for s in lifted.states})
    result = lifted_exhaustive(flat, 2)
    assert result.value == 0.0
    first = enumerate_plans(("x", "y"), 2, 2)[0]
    assert result.policy.plans == (((first, 2),), ((first, 1),))


@pytest.mark.parametrize("sizes,horizon", [((2, 1), 2), ((2,), 3)])
def test_lifted_leaf_actions_tie_break_to_first_action(sizes, horizon):
    # a plan's last actions change no value, so the earliest of the tied
    # optimal multisets takes the first action at every leaf
    lifted = random_lifted(np.random.default_rng(11), sizes)
    result = lifted_exhaustive(lifted, horizon)

    def leaves(plan):
        if not plan.subplans:
            return {plan.action}
        return set().union(*(leaves(p) for p in plan.subplans))

    for entry in result.policy.plans:
        for plan, _ in entry:
            assert leaves(plan) == {"x"}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(
        [
            ((1,), 1),
            ((2,), 1),
            ((2, 1), 1),
            ((1,), 2),
            ((2,), 2),
            ((1, 1), 2),
            ((2, 1), 2),
            ((2,), 3),
        ]
    ),
)
def test_lifted_and_ground_optima_agree_on_generated_models(seed, case):
    sizes, horizon = case
    lifted = random_lifted(np.random.default_rng(seed), sizes)
    ground_value = decpomdp_exhaustive(ground(lifted), horizon).value
    assert abs(lifted_exhaustive(lifted, horizon).value - ground_value) <= 1e-9


def test_solvers_reject_zero_horizon():
    model = count_based_team("iid")
    lifted = lift_chain(model)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        decpomdp_exhaustive(model, 0)
    with pytest.raises(ValueError):
        lifted_exhaustive(lifted, 0)
    with pytest.raises(ValueError):
        pomdp_plan_iteration(random_pomdp(rng), 0)
