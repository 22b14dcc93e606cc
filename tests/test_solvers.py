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
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog as highs_linprog

from declift.counting import enumerate_histograms, histogram_multiplicity
from declift.errors import CapacityExceeded, NonConvergent, ValidationError
from declift.modelio import serialize_model
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
from declift import solvers
from declift.nano import generate_nano, nano_desk_preset
from declift.solvers import (
    DOMINANCE_TOL,
    ConditionalPlan,
    PlanValueVector,
    decpomdp_exhaustive,
    dominance_prune,
    enumerate_plans,
    lifted_exhaustive,
    linprog,
    mdp_value_iteration,
    plan_count,
    pomdp_plan_iteration,
    verify_equivalence,
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
    # memo is keyed by plan identity, which hashes far faster than a plan
    # tree; each entry holds its plans, so no id is reused while it lives
    key = (tuple(map(id, plans)), state)
    if key in memo:
        return memo[key][1]
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
    memo[key] = (plans, value)
    return value


def joint_value(model: GroundDecPomdp, plans, memo) -> float:
    b0 = model.initial_belief.probs
    return math.fsum(
        b0[i] * eval_joint(model, plans, s, memo)
        for i, s in enumerate(model.states)
        if b0[i] != 0.0
    )


def brute_team_optimum(model: GroundDecPomdp, horizon: int) -> float:
    pools = [
        enumerate_plans(model.actions[a], len(model.observations[a]), horizon)
        for a in model.agents
    ]
    memo: dict = {}
    best = None
    for combo in itertools.product(*pools):
        v = joint_value(model, combo, memo)
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


def test_value_iteration_refuses_a_missing_row():
    model = random_mdp(np.random.default_rng(2))
    transition = dict(model.transition)
    del transition[("s2", "a0")]
    model = dataclasses.replace(model, transition=transition)
    row = "transition row for ('s2', 'a0')"
    with pytest.raises(ValidationError, match=re.escape(f"model has no {row}")):
        mdp_value_iteration(model)


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
    # two observations: the action varies slowest, then the subplan after
    # the first observation, then the one after the second
    pool = [ConditionalPlan(a) for a in ("a", "b")]
    for _ in range(2):
        pool = [
            ConditionalPlan(a, (first, second))
            for a, first, second in itertools.product(("a", "b"), pool, pool)
        ]
    assert enumerate_plans(("a", "b"), 2, 3) == pool


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
    kept = prune_vectors(vectors)
    surfaces = {tuple(v.alpha) for v in kept}
    assert surfaces == {(1.0, 0.0), (0.0, 1.0), (0.6, 0.6)}


def test_dominance_prune_single_vector_kept():
    v = PlanValueVector(ConditionalPlan("a"), np.array([0.0, 0.0]))
    assert prune_vectors([v]) == [v]


def test_dominance_prune_empty_input():
    assert dominance_prune(np.empty((0, 2))) == []


def prune_vectors(vectors):
    """`dominance_prune` over the stacked alphas, mapped back to the vectors."""
    if not vectors:
        return []
    return [vectors[i] for i in dominance_prune(np.stack([v.alpha for v in vectors]))]


def loop_prefilter(vectors, margin_tol=DOMINANCE_TOL):
    """The dedup and pointwise filters of `dominance_prune` as loops over pairs."""
    deduped = []
    for v in vectors:
        if any(float(np.max(np.abs(v.alpha - u.alpha))) <= margin_tol for u in deduped):
            continue
        deduped.append(v)
    return [
        v
        for i, v in enumerate(deduped)
        if not any(
            j != i and bool(np.all(deduped[j].alpha >= v.alpha))
            for j in range(len(deduped))
        )
    ]


@st.composite
def alpha_sets(draw):
    """Vector sets seeded with duplicates, near-duplicates and dominated copies."""
    n_states = draw(st.integers(1, 4))
    entry = st.integers(-4, 4).map(lambda k: k / 4)
    alphas = [
        np.array(draw(st.lists(entry, min_size=n_states, max_size=n_states)))
        for _ in range(draw(st.integers(0, 7)))
    ]
    for base in list(alphas):
        kind = draw(st.sampled_from(["none", "exact", "near", "dominated"]))
        if kind == "exact":
            alphas.append(base.copy())
        elif kind == "near":
            # offsets up to twice the tolerance land on both sides of it;
            # on a zero entry, +-1 lands exactly on it
            scale = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-2.0, 2.0)) * DOMINANCE_TOL
            alphas.append(base + scale * np.linspace(1.0, 0.5, n_states))
        elif kind == "dominated":
            drop = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n_states,
                                 max_size=n_states))
            alphas.append(base - np.array(drop))
    order = draw(st.permutations(range(len(alphas))))
    return [PlanValueVector(ConditionalPlan(f"p{k}"), alphas[k]) for k in order]


@settings(max_examples=150, deadline=None)
@given(vectors=alpha_sets())
def test_dominance_prune_prefilter_matches_pairwise_loops(vectors):
    expected = loop_prefilter(vectors)
    if vectors:
        rows = np.stack([v.alpha for v in vectors])
        got = [vectors[i] for i in solvers._prefilter(rows, DOMINANCE_TOL)]
        assert [id(v) for v in got] == [id(v) for v in expected]
    # the LP stage sees the prefilter's survivors in order, so pruning the
    # pairwise survivors again must give the same objects in the same order
    kept = prune_vectors(vectors)
    assert [id(v) for v in kept] == [id(v) for v in prune_vectors(expected)]


@settings(max_examples=60, deadline=None)
@given(vectors=alpha_sets(), seed=st.integers(0, 2**32 - 1))
def test_dominance_prune_keeps_every_vector_maximal_at_a_sampled_belief(vectors, seed):
    if not vectors:
        return
    rows = np.stack([v.alpha for v in vectors])
    n_states = rows.shape[1]
    rng = np.random.default_rng(seed)
    corners, centre = np.eye(n_states), np.full(n_states, 1.0 / n_states)
    beliefs = np.vstack([corners, centre, rng.dirichlet(np.ones(n_states), 30)])
    kept = {id(v) for v in prune_vectors(vectors)}
    for values in beliefs @ rows.T:
        best = int(np.argmax(values))
        runner_up = np.delete(values, best).max(initial=-np.inf)
        if values[best] - runner_up > DOMINANCE_TOL:
            assert id(vectors[best]) in kept


@pytest.mark.parametrize("offset, survivor", [(DOMINANCE_TOL, 0), (2 * DOMINANCE_TOL, 1)])
def test_dominance_prune_tolerance_boundary(offset, survivor):
    # a copy exactly margin_tol away collapses onto the earlier vector; one
    # further away survives the dedup and then dominates it
    vectors = [
        PlanValueVector(ConditionalPlan("a"), np.array([0.0, 1.0])),
        PlanValueVector(ConditionalPlan("b"), np.array([offset, 1.0])),
    ]
    assert prune_vectors(vectors) == loop_prefilter(vectors) == [vectors[survivor]]


def test_linprog_is_looked_up_by_module_name(monkeypatch):
    vectors = [
        PlanValueVector(ConditionalPlan("a"), np.array(alpha))
        for alpha in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.6])
    ]
    calls = []
    real = solvers.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "linprog", counting_linprog)
    kept = prune_vectors(vectors)
    # the two corner winners skip the LP; only the middle vector needs it
    assert calls == [(2, 2)]
    assert kept == vectors


def highs_margin(table):
    """The margin LP of `solvers.linprog`, solved by scipy's HiGHS instead."""
    k, n = table.shape
    res = highs_linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.hstack([-table, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.r_[np.ones(n), 0.0].reshape(1, -1),
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * n + [(None, None)],
        method="highs",
    )
    assert res.success, res.message
    return -res.fun


@st.composite
def margin_tables(draw):
    """(table, on_grid): v - u_j rows on the quarter grid or continuous."""
    n_states, n_others = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    shape = (n_others + 1, n_states)
    on_grid = draw(st.booleans())
    if on_grid:
        # quarter-grid entries give exact ties and exact zero margins
        rows = draw(arrays(float, shape, elements=st.integers(-4, 4).map(lambda k: k / 4)))
    else:
        rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5.0, 5.0, shape)
    return rows[0] - rows[1:], on_grid


@pytest.mark.parametrize(
    "table, margin",
    [
        ([[1.0, -1.0], [-1.0, 1.0]], 0.0),
        ([[2.0], [3.0]], 2.0),
        ([[0.4, -0.6], [-0.6, 0.4]], -0.1),
        ([[0.0, 0.0, 0.0]], 0.0),
        ([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]], 2.0),
    ],
)
def test_margin_lp_known_values(table, margin):
    assert solvers.linprog(np.array(table)) == pytest.approx(margin, abs=1e-15)


def test_margin_lp_refuses_pivot_overrun_and_empty_tables(monkeypatch):
    monkeypatch.setattr(solvers, "LP_PIVOT_FACTOR", 0)
    with pytest.raises(NonConvergent):
        solvers.linprog(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError):
        solvers.linprog(np.empty((0, 2)))


def test_margin_lp_refuses_an_empty_ratio_test(monkeypatch):
    # a tolerance this coarse leaves an improving column with no pivot row
    monkeypatch.setattr(solvers, "LP_TOL", 0.3)
    with pytest.raises(NonConvergent, match=r"margin LP over a 3 x 3 table"):
        solvers.linprog(np.array([[5.0, -2.0, 3.0], [2.0, -5.0, -1.0], [4.0, 1.0, -5.0]]))


def test_scipy_never_loads_at_runtime(tmp_path):
    pomdp = tmp_path / "pomdp.json"
    pomdp.write_text(serialize_model(random_pomdp(np.random.default_rng(5), n_states=3)))
    script = """
import sys
import numpy as np

def scipy_loaded():
    return [m for m in ("scipy", "scipy.optimize") if m in sys.modules]

import declift
assert not scipy_loaded(), "import declift"
from declift.cli import main
assert main(["analyze-size", "--preset", "paper"]) == 0
assert not scipy_loaded(), "analyze-size"
from declift.solvers import dominance_prune
assert len(dominance_prune(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]))) == 3
assert not scipy_loaded(), "pruning LP"
assert main(["solve", sys.argv[1], "--horizon", "4"]) == 0
assert not scipy_loaded(), "POMDP solve"
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(solvers.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(pomdp)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("instance:")
    assert "plan iteration to horizon 4:" in proc.stdout


@settings(max_examples=200, deadline=None)
@given(drawn=margin_tables())
def test_margin_lp_matches_highs(drawn):
    table, on_grid = drawn
    margin, oracle = solvers.linprog(table), highs_margin(table)
    assert abs(margin - oracle) <= 1e-9
    if abs(oracle + DOMINANCE_TOL) > 1e-9:
        assert (margin >= -DOMINANCE_TOL) == (oracle >= -DOMINANCE_TOL)
    # a quarter-grid margin is a ratio of integer determinants whose
    # denominator stays below 4 * 20**7, so within 1e-10 of zero means zero
    if on_grid and abs(oracle) <= 1e-10:
        assert margin >= -DOMINANCE_TOL and oracle >= -DOMINANCE_TOL


def test_plan_iteration_survivors_match_highs_pruning(monkeypatch):
    oracle_calls = []

    def counting_highs(table):
        oracle_calls.append(table.shape)
        return highs_margin(table)

    for seed in range(40):
        rng = np.random.default_rng(300 + seed)
        model = random_pomdp(rng, n_states=2 + (seed // 2) % 3, n_actions=3)
        horizon = 3 + seed % 2
        shipped_stats, oracle_stats = [], []
        monkeypatch.setattr(solvers, "linprog", linprog)
        shipped = pomdp_plan_iteration(model, horizon, stats=shipped_stats)
        monkeypatch.setattr(solvers, "linprog", counting_highs)
        oracle = pomdp_plan_iteration(model, horizon, stats=oracle_stats)
        assert [v.plan for v in shipped] == [v.plan for v in oracle], seed
        assert all(np.array_equal(a.alpha, b.alpha) for a, b in zip(shipped, oracle)), seed
        assert shipped_stats == oracle_stats, seed
    # the generated models reach the LP stage, not only the prefilter
    assert len(oracle_calls) >= 100


def per_candidate_plan_iteration(model, horizon):
    """Plan-set backup one candidate at a time: a reference for the batched one."""
    actions = model.action_union()
    states = list(model.states)
    reward = np.array([model.reward[s] for s in states])
    omega = np.stack([model.sensor[s].probs for s in states])
    survivors, stats = [], []
    for depth in range(1, horizon + 1):
        if depth == 1:
            candidates = [PlanValueVector(ConditionalPlan(a), reward.copy()) for a in actions]
        else:
            candidates = []
            for a in actions:
                matrix = np.stack([model.transition[(s, a)].probs for s in states])
                for assignment in itertools.product(
                    survivors, repeat=len(model.observations)
                ):
                    cont = np.zeros(len(states))
                    for o, pv in enumerate(assignment):
                        cont += omega[:, o] * pv.alpha
                    alpha = reward + model.discount * matrix.dot(cont)
                    plan = ConditionalPlan(a, tuple(pv.plan for pv in assignment))
                    candidates.append(PlanValueVector(plan, alpha))
        survivors = prune_vectors(candidates)
        stats.append((len(candidates), len(survivors)))
    return survivors, stats


def test_plan_iteration_matches_the_per_candidate_loop_bit_for_bit():
    for seed in range(80):
        rng = np.random.default_rng(400 + seed)
        n_states, n_actions, n_obs = 2 + seed % 3, 2 + seed // 3 % 2, 2 + seed // 6 % 2
        model = random_pomdp(rng, n_states, n_actions, n_obs)
        horizon = 1 + seed % 4
        stats = []
        survivors = pomdp_plan_iteration(model, horizon, stats=stats)
        expected, expected_stats = per_candidate_plan_iteration(model, horizon)
        assert [v.plan for v in survivors] == [v.plan for v in expected], seed
        assert [v.alpha.tobytes() for v in survivors] == [
            v.alpha.tobytes() for v in expected
        ], seed
        assert stats == expected_stats, seed


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


def test_plan_iteration_checks_the_cap_at_depth_one():
    # the team solvers' pools refuse depth 1 too (enumerate_plans)
    model = random_pomdp(np.random.default_rng(0), n_actions=3)
    with pytest.raises(CapacityExceeded) as err:
        pomdp_plan_iteration(model, 1, cap_plans=1)
    assert str(err.value) == "3 depth-1 candidate plans exceed the plan cap 1"
    assert (err.value.measured, err.value.cap) == (3, 1)
    stats = []
    pomdp_plan_iteration(model, 1, cap_plans=3, stats=stats)
    assert stats == [(3, 1)]


@pytest.mark.parametrize("table", ["transition", "sensor"])
def test_plan_iteration_refuses_a_missing_row_before_searching(table, monkeypatch):
    model = random_pomdp(np.random.default_rng(5), n_states=3)
    if table == "transition":
        transition = dict(model.transition)
        del transition[("s1", "a1")]
        model = dataclasses.replace(model, transition=transition)
        row = "transition row for ('s1', 'a1')"
    else:
        sensor = dict(model.sensor)
        del sensor["s2"]
        model = dataclasses.replace(model, sensor=sensor)
        row = "sensor row for state 's2'"

    def no_search(vectors):
        raise AssertionError("searched a model with a missing row")

    monkeypatch.setattr(solvers, "dominance_prune", no_search)
    with pytest.raises(ValidationError, match=re.escape(f"model has no {row}")):
        pomdp_plan_iteration(model, 2)


# ---------------------------------------------------------------------------
# ground team search

BRUTE_FORCE_CASES = [(0, 1, 2), (0, 2, 2), (1, 2, 2), (2, 2, 2), (0, 3, 2), (3, 1, 3), (3, 2, 3)]


@pytest.mark.parametrize(
    "seed,horizon,n_states",
    BRUTE_FORCE_CASES,
    ids=[f"{s}-{h}" + ("" if n == 2 else f"-{n}states") for s, h, n in BRUTE_FORCE_CASES],
)
def test_exhaustive_matches_brute_force(seed, horizon, n_states):
    rng = np.random.default_rng(300 + seed)
    model = random_team(rng, n_states=n_states)
    result = decpomdp_exhaustive(model, horizon)
    optimum = brute_team_optimum(model, horizon)
    assert abs(result.value - optimum) <= 1e-9
    plans = tuple(plan for [(plan, _)] in result.policy.plans)
    assert abs(joint_value(model, plans, {}) - optimum) <= 1e-9


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
    def all_first(plan):
        return plan.action == "x" and all(all_first(p) for p in plan.subplans)

    for n_agents in (2, 3):
        model = count_based_team("iid", n_agents=n_agents)
        flat = dataclasses.replace(model, reward={s: 0.0 for s in model.states})
        result = decpomdp_exhaustive(flat, 2)
        assert result.value == 0.0
        assert len(result.policy.plans) == n_agents
        for entry in result.policy.plans:
            [(plan, count)] = entry
            assert count == 1
            assert all_first(plan)


def test_exhaustive_rejects_missing_sensor_row_before_searching():
    model = random_team(np.random.default_rng(3))
    sensor = dict(model.sensor)
    del sensor["s1"]
    broken = dataclasses.replace(model, sensor=sensor)
    # horizon 1 reads no sensor row, so only an up-front check can refuse it
    with pytest.raises(ValidationError, match="sensor row for state 's1'"):
        decpomdp_exhaustive(broken, 1)


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


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 3), st.data())
def test_group_allocations_split_every_member_tuple_once(counts, n_obs, data):
    # the member-level ways of all allocations add up to every observation
    # tuple behind the histogram, each counted once
    groups = [(3 * g, count) for g, count in enumerate(counts)]
    obs = data.draw(st.sampled_from(list(enumerate_histograms(sum(counts), n_obs))))
    allocations = list(solvers._group_allocations(groups, obs))
    for rows, ways in allocations:
        assert [sum(row) for row in rows] == counts
        assert tuple(map(sum, zip(*rows))) == obs
        assert ways == math.prod(map(histogram_multiplicity, rows))
    assert len({rows for rows, _ in allocations}) == len(allocations)
    assert sum(ways for _, ways in allocations) == histogram_multiplicity(obs)


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
    for sizes in [(2,), (1, 1)]:
        lifted = random_lifted(np.random.default_rng(3), sizes)
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
    for sizes, missing in [
        ((2, 1), ("s1", ((1, 1), (0, 1)))),
        ((1, 1), ("s1", ((0, 1), (1, 0)))),
    ]:
        lifted = random_lifted(np.random.default_rng(3), sizes)
        transition = dict(lifted.transition)
        del transition[missing]
        broken = dataclasses.replace(lifted, transition=transition)
        # horizon 1 reads no transition row, so only an up-front check can
        # refuse it
        with pytest.raises(ValidationError, match=re.escape(repr(missing))):
            lifted_exhaustive(broken, 1)


def assert_peak_only_below_full(seed, sizes, horizon):
    # peak-only candidates are a subset of the full multisets, valued by
    # the same backup, so the bound holds exactly
    lifted = random_lifted(np.random.default_rng(seed), sizes)
    full = lifted_exhaustive(lifted, horizon).value
    assert lifted_exhaustive(lifted, horizon, peak_only=True).value <= full


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(
        [((2,), 1), ((2, 1), 1), ((3,), 1), ((2,), 2), ((2, 1), 2), ((3,), 2)]
    ),
)
def test_peak_only_value_never_exceeds_full_value(seed, case):
    assert_peak_only_below_full(seed, *case)


@settings(max_examples=1, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_peak_only_value_never_exceeds_full_value_at_horizon_three(seed):
    # one draw: the full search of a size-2 partition at h3 has 8,256 candidates
    assert_peak_only_below_full(seed, (2,), 3)


def test_lifted_tie_breaks_to_first_multiset():
    first = enumerate_plans(("x", "y"), 2, 2)[0]
    for sizes in [(2, 1), (1, 1)]:
        lifted = random_lifted(np.random.default_rng(5), sizes)
        flat = dataclasses.replace(lifted, reward={s: 0.0 for s in lifted.states})
        result = lifted_exhaustive(flat, 2)
        assert result.value == 0.0
        assert result.policy.plans == tuple(((first, n),) for n in sizes)


@pytest.mark.parametrize(
    "sizes,horizon", [((2, 1), 2), ((2,), 3), ((1,), 3), ((1, 1), 2)]
)
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


def product_order_root_scan(model, horizon, peak_only=False):
    """A horizon-1 or -2 root search over every joint candidate in product order.

    At those horizons a candidate is worth the reward, or the reward plus
    one discounted transition of it under the candidate's action histogram.
    Returns the value, policy plans and statistics of the first strict
    maximum, valued with the solver's own expression.
    """
    part = model.partitioning
    states = list(model.states)
    reward = np.array([model.reward[s] for s in states])
    b0 = model.initial_belief.probs
    support = np.nonzero(b0)[0]
    pools, per_partition = [], []
    for actions, observations, size in zip(
        part.action_ranges, part.observation_ranges, part.sizes
    ):
        plans = enumerate_plans(actions, len(observations), horizon)
        pools.append(plans)
        indices = range(len(plans))
        if peak_only:
            per_partition.append([(i,) * size for i in indices])
        else:
            per_partition.append(list(itertools.combinations_with_replacement(indices, size)))
    vectors: dict = {}
    best = None
    for combo in itertools.product(*per_partition):
        key = tuple(
            tuple(sum(pools[k][i].action == a for i in multiset) for a in part.action_ranges[k])
            for k, multiset in enumerate(combo)
        )
        if key not in vectors:
            vec = reward
            if horizon == 2:
                trans = np.array([model.transition[(s, key)].probs for s in states])
                vec = reward + model.discount * trans.dot(reward)
            vectors[key] = math.fsum((b0[support] * vec[support]).tolist())
        if best is None or vectors[key] > best[0]:
            best = (vectors[key], combo)
    value, combo = best
    plans = tuple(
        tuple((pools[k][i], multiset.count(i)) for i in sorted(set(multiset)))
        for k, multiset in enumerate(combo)
    )
    statistics = {
        "per_partition_plans": [len(plans_k) for plans_k in pools],
        "per_partition_candidates": [len(c) for c in per_partition],
        "joint_candidates": math.prod(len(c) for c in per_partition),
        "peak_only": peak_only,
    }
    return value, plans, statistics


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.sampled_from(
        [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]
    ),
    horizon=st.sampled_from([1, 2]),
    peak_only=st.booleans(),
)
def test_shallow_root_search_matches_the_product_order_scan(seed, sizes, horizon, peak_only):
    # the solver values each joint action histogram once; the reference
    # scans every candidate, so value bits, tie-broken policy and
    # statistics must all agree
    lifted = random_lifted(np.random.default_rng(seed), sizes)
    result = lifted_exhaustive(lifted, horizon, peak_only=peak_only)
    value, plans, statistics = product_order_root_scan(lifted, horizon, peak_only)
    assert result.value.hex() == value.hex()
    assert result.policy.plans == plans
    assert result.statistics == statistics


def test_shallow_root_ties_fall_to_the_first_partitions_first_candidate():
    # two singleton partitions over actions (x, y): the joint histograms
    # (x, y) and (y, x) tie for the optimum.  A depth-2 pool holds plans
    # 0-3 with action x and 4-7 with y, so (x, y) is first met at candidate
    # (0, 4) and (y, x) at (4, 0): partition 0 decides for (x, y), although
    # partition 1 alone would pick (y, x)
    lifted = random_lifted(np.random.default_rng(2), (1, 1))
    to_s0 = DiscreteDistribution(np.array([1.0, 0.0]))
    to_s1 = DiscreteDistribution(np.array([0.0, 1.0]))
    x, y = (1, 0), (0, 1)
    rows = {(x, y): to_s0, (y, x): to_s0, (x, x): to_s1, (y, y): to_s1}
    tied = dataclasses.replace(
        lifted,
        transition={(s, key): rows[key] for s in lifted.states for key in rows},
        reward={"s0": 1.0, "s1": 0.0},
    )
    result = lifted_exhaustive(tied, 2)
    plans = enumerate_plans(("x", "y"), 2, 2)
    assert result.policy.plans == (((plans[0], 1),), ((plans[4], 1),))
    value, reference_plans, _ = product_order_root_scan(tied, 2)
    assert (result.value, result.policy.plans) == (value, reference_plans)


def test_shallow_root_search_values_each_joint_histogram_once(monkeypatch):
    # the size-4 desk preset at horizon 2: two partitions of 330 plan
    # multisets each, whose actions form 5 histograms each
    model = generate_nano(dataclasses.replace(nano_desk_preset(), partition_size=4))
    yielded = []

    def product(*iterables):
        for combo in itertools.product(*iterables):
            yielded.append(combo)
            yield combo

    monkeypatch.setattr(
        solvers,
        "itertools",
        types.SimpleNamespace(
            product=product,
            combinations_with_replacement=itertools.combinations_with_replacement,
        ),
    )
    result = lifted_exhaustive(model, 2)
    assert len(yielded) == 25
    assert result.statistics["joint_candidates"] == 108_900
    assert result.value == 0.0


def test_shallow_root_search_caps_the_work_it_does():
    # the size-8 desk preset at horizon 2: its policy class holds 6,435^2
    # candidates, over the default joint cap, but the root walks 2 x 6,435
    # multisets and values 9 x 9 joint action histogram classes
    params = dataclasses.replace(nano_desk_preset(), partition_size=8)
    result = lifted_exhaustive(generate_nano(params), 2)
    assert result.statistics["per_partition_candidates"] == [6435, 6435]
    assert result.statistics["joint_candidates"] == 6435**2 > solvers.DEFAULT_JOINT_CAP
    sibling = generate_nano(dataclasses.replace(params, partition_size=1))
    assert result.value == decpomdp_exhaustive(ground(sibling), 2).value


def test_shallow_root_search_refuses_oversized_partitions_up_front(monkeypatch):
    def walked(*_args):
        raise AssertionError("a partition's multisets were walked")

    monkeypatch.setattr(
        solvers,
        "itertools",
        types.SimpleNamespace(product=itertools.product, combinations_with_replacement=walked),
    )
    model = generate_nano(dataclasses.replace(nano_desk_preset(), partition_size=8))
    with pytest.raises(CapacityExceeded, match="6435 plan multisets of one partition"):
        lifted_exhaustive(model, 2, cap_joint=6434)
    # three one-agent partitions: 2 multisets each, but 8 joint classes
    monkeypatch.undo()
    lifted = random_lifted(np.random.default_rng(4), (1, 1, 1))
    with pytest.raises(CapacityExceeded, match="8 joint action histogram classes"):
        lifted_exhaustive(lifted, 1, cap_joint=7)
    assert lifted_exhaustive(lifted, 1, cap_joint=8).statistics["joint_candidates"] == 8


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
            ((2, 2), 1),
            ((2, 2), 2),
            ((1, 1, 1), 2),
            ((2, 1, 1), 2),
            ((3, 1), 2),
        ]
    ),
)
def test_lifted_and_ground_optima_agree_on_generated_models(seed, case):
    sizes, horizon = case
    lifted = random_lifted(np.random.default_rng(seed), sizes)
    ground_value = decpomdp_exhaustive(ground(lifted), horizon).value
    assert abs(lifted_exhaustive(lifted, horizon).value - ground_value) <= 1e-9


def member_plans(lifted: LiftedDecPomdp, policy) -> list:
    """Each agent's plan under a lifted policy: the members of block k take
    the entry's plans in order, each `count` times."""
    plans = [None] * len(lifted.agents)
    for block, entry in zip(lifted.partitioning.blocks, policy.plans):
        members = [plan for plan, count in entry for _ in range(count)]
        for agent, plan in zip(block, members):
            plans[agent] = plan
    return plans


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(
        [
            ((1,), 1),
            ((1,), 2),
            ((1,), 3),
            ((1, 1), 1),
            ((1, 1), 2),
            ((2,), 1),
            ((2,), 2),
            ((2,), 3),
            ((3,), 1),
            ((3,), 2),
            ((2, 1), 1),
            ((2, 1), 2),
            ((1, 2), 1),
            ((1, 2), 2),
            ((2, 2), 1),
            ((2, 2), 2),
            ((1, 1, 1), 2),
            ((2, 1, 1), 2),
            ((3, 1), 2),
        ]
    ),
    peak_only=st.booleans(),
)
def test_team_solvers_match_recursive_oracle(seed, case, peak_only):
    # both solvers, and the value of the policy each returns re-valued on
    # the ground model, against the recursion over trajectories; brute
    # force over the joint plans where it is quick, the ground solver
    # elsewhere.  A peak-only search returns the value of its own policy,
    # no more than the optimum, and the optimum on singleton partitions.
    sizes, horizon = case
    lifted = random_lifted(np.random.default_rng(seed), sizes)
    model = ground(lifted)
    ground_result = decpomdp_exhaustive(model, horizon)
    if plan_count(2, 2, horizon) ** len(model.agents) <= 512:
        optimum = brute_team_optimum(model, horizon)
        assert abs(ground_result.value - optimum) <= 1e-9
        plans = tuple(plan for [(plan, _)] in ground_result.policy.plans)
        assert abs(joint_value(model, plans, {}) - optimum) <= 1e-9
    else:
        optimum = ground_result.value
    result = lifted_exhaustive(lifted, horizon, peak_only=peak_only)
    value = joint_value(model, member_plans(lifted, result.policy), {})
    assert abs(value - result.value) <= 1e-9
    if peak_only and max(sizes) > 1:
        assert result.value <= optimum + 1e-9
    else:
        assert abs(result.value - optimum) <= 1e-9


def one_state_pomdp(reward: float, gamma: float = 0.9) -> Pomdp:
    states = StateSpace(("s",))
    return Pomdp(
        states,
        {"s": ("a",)},
        {("s", "a"): DiscreteDistribution([1.0])},
        {"s": reward},
        gamma,
        ("o",),
        {"s": DiscreteDistribution([1.0])},
    )


def test_solvers_refuse_rewards_whose_values_leave_the_float_range():
    # max |reward| * (1 + g + ... + g^(h-1)) must be a finite float; value
    # iteration sums 1/(1-g), or max_iterations rewards at g = 1
    huge = one_state_pomdp(1e308)
    mdp = Mdp(huge.states, huge.actions, huge.transition, huge.reward, huge.discount)
    lifted = random_lifted(np.random.default_rng(0), (2,))
    lifted = dataclasses.replace(lifted, reward={s: 1e308 for s in lifted.reward})
    calls = [
        lambda: mdp_value_iteration(mdp),
        lambda: mdp_value_iteration(dataclasses.replace(mdp, discount=1.0), max_iterations=10),
        lambda: mdp_value_iteration(dataclasses.replace(mdp, reward={"s": math.nan})),
        lambda: pomdp_plan_iteration(huge, 2),
        lambda: pomdp_plan_iteration(dataclasses.replace(huge, reward={"s": -math.nan}), 1),
        lambda: decpomdp_exhaustive(ground(lifted), 2),
        lambda: lifted_exhaustive(lifted, 2),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="leave the float range"):
            call()
    # the same rewards stay finite over fewer discounted steps
    capped = dataclasses.replace(mdp, reward={"s": 1e307}, discount=1.0)
    table, _ = mdp_value_iteration(capped, max_iterations=10)
    assert not table.converged and math.isfinite(table.values["s"])
    assert pomdp_plan_iteration(huge, 1)[0].alpha.tolist() == [1e308]


def test_rewards_of_1e300_solve_as_before():
    model = one_state_pomdp(1e300)
    mdp = Mdp(model.states, model.actions, model.transition, model.reward, model.discount)
    table, policy = mdp_value_iteration(mdp)
    assert (table.iterations, table.converged, policy) == (327, True, {"s": "a"})
    assert table.values["s"] == 9.9999999999999922e300
    assert [v.alpha.tolist() for v in pomdp_plan_iteration(model, 2)] == [[1.9e300]]


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


# ---------------------------------------------------------------------------
# ground and lifted optima compared

def test_verify_equivalence_api_reports_sizes():
    report = verify_equivalence(count_based_team(), horizon=2)
    assert report.passed
    assert report.size_params.agents == 2
    assert report.size_comparison.exact_key_counts == ((3, 3),)


def test_split_witness_finds_separated_pair():
    model = random_team(np.random.default_rng(5))
    candidate = range_partition(model)
    refined = symmetry_refine(model, candidate)
    assert refined.blocks != candidate.blocks
    assert solvers._split_witness(candidate, refined) == (0, 1)
