"""Exact solvers over the model types.

Four solver families live here: infinite-horizon value iteration for MDPs,
finite-horizon plan-set backup with dominance pruning for POMDPs, and
exhaustive finite-horizon team search in ground and in counting form.

Value convention, used consistently by every finite-horizon routine: a
depth-d plan executed from state s collects the state reward now and the
discounted rewards of the d-1 following states.  A depth-0 plan is worth
exactly 0, so a horizon-1 solve is worth the expected immediate reward and
the last action of any plan influences nothing.  Rewards depend on the
state alone.

The two team solvers search the same policy class.  In ground form a joint
policy assigns one conditional plan per agent.  In counting form agents of
a partition are interchangeable, so only the multiset of member plans
matters; the search enumerates those multisets and the evaluator never
leaves histogram space.  Both evaluators back up one value vector over
states per joint plan node: the ground one per tuple of agent plans, the
lifted one per joint occupancy (how many members of each partition sit at
each plan node).  Observation histograms are split over the plan nodes of
a partition with multivariate hypergeometric weights, which is exactly
the distribution induced by any permutation-invariant sensor; that split
does not depend on the state, so it is cached per partition as an
allocation kernel.  Depth-1 vectors equal the reward, so a depth-2 vector
depends only on the action histogram the occupancy induces.  Optimal
values of the two forms therefore agree on liftable models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .counting import (
    bounded_compositions,
    enumerate_histograms,
    histogram_multiplicity,
)
from .errors import CapacityExceeded, NonConvergent, ValidationError
from .lifting import LiftedDecPomdp
from .models import DEFAULT_JOINT_CAP, PROB_TOL, GroundDecPomdp, Mdp, Pomdp

DEFAULT_PLAN_CAP = 1_000_000
DOMINANCE_TOL = 1e-12


# ---------------------------------------------------------------------------
# value iteration

@dataclass
class UtilityTable:
    values: dict[str, float]
    iterations: int
    converged: bool


def mdp_value_iteration(
    model: Mdp, epsilon: float = 1e-6, max_iterations: int | None = None
) -> tuple[UtilityTable, dict[str, str]]:
    """Value iteration with the standard contraction stopping rule.

    Sweeps stop once no utility moves by more than epsilon * (1 - g) / g,
    which bounds the distance to the fixed point by epsilon.  A discount of
    exactly 1 never meets that rule, so it requires an explicit iteration
    cap and the result is flagged as not converged.  The greedy policy
    breaks ties by action declaration order.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    gamma = model.discount
    if gamma >= 1.0 and max_iterations is None:
        raise NonConvergent(
            "discount 1 admits no convergence guarantee; pass max_iterations"
        )
    threshold = epsilon * (1.0 - gamma) / gamma
    utility = {s: 0.0 for s in model.states}
    iterations = 0
    converged = False
    while max_iterations is None or iterations < max_iterations:
        new = {}
        for s in model.states:
            best = None
            for a in model.actions.get(s, ()):
                row = model.transition[(s, a)]
                q = float(np.dot(row.probs, [utility[t] for t in model.states]))
                if best is None or q > best:
                    best = q
            new[s] = model.reward[s] + gamma * (best if best is not None else 0.0)
        delta = max(abs(new[s] - utility[s]) for s in model.states)
        utility = new
        iterations += 1
        if gamma < 1.0 and delta < threshold:
            converged = True
            break

    policy = {}
    for s in model.states:
        best_action, best_q = None, None
        for a in model.actions.get(s, ()):
            row = model.transition[(s, a)]
            q = float(np.dot(row.probs, [utility[t] for t in model.states]))
            if best_q is None or q > best_q:
                best_action, best_q = a, q
        if best_action is not None:
            policy[s] = best_action
    return UtilityTable(utility, iterations, converged), policy


# ---------------------------------------------------------------------------
# conditional plans

@dataclass(frozen=True)
class ConditionalPlan:
    """Take `action`, then continue with one subplan per observation symbol.

    Subplans are positional, aligned with the executing agent's observation
    range; an empty tuple ends the plan after its action.
    """

    action: str
    subplans: tuple["ConditionalPlan", ...] = ()

    @property
    def depth(self) -> int:
        return 1 + (max(p.depth for p in self.subplans) if self.subplans else 0)


def plan_count(n_actions: int, n_obs: int, depth: int) -> int:
    """Number of depth-d conditional plans: actions ** (tree node count)."""
    if depth < 1:
        return 1 if depth == 0 else 0
    if n_obs == 1:
        nodes = depth
    else:
        nodes = (n_obs ** depth - 1) // (n_obs - 1)
    return n_actions ** nodes


def _indexed_plans(n_actions: int, n_obs: int, depth: int, cap: int):
    """Per-depth pools of (action index, child index tuple) nodes.

    pools[d-1] lists all depth-d plans; children index into pools[d-2].
    The construction order (action-major, then lexicographic over children)
    is the declaration-order tie-break every solver relies on.
    """
    for d in range(1, depth + 1):
        count = plan_count(n_actions, n_obs, d)
        if count > cap:
            raise CapacityExceeded(
                f"{count} depth-{d} plans exceed the plan cap {cap}",
                measured=count,
                cap=cap,
            )
    pools = [[(a, ()) for a in range(n_actions)]]
    for _ in range(depth - 1):
        prev = len(pools[-1])
        pools.append(
            [
                (a, children)
                for a in range(n_actions)
                for children in itertools.product(range(prev), repeat=n_obs)
            ]
        )
    return pools


def _materialize_plan(pools, actions, depth: int, index: int, cache) -> ConditionalPlan:
    key = (depth, index)
    if key not in cache:
        action_idx, children = pools[depth - 1][index]
        subs = tuple(
            _materialize_plan(pools, actions, depth - 1, c, cache) for c in children
        )
        cache[key] = ConditionalPlan(actions[action_idx], subs)
    return cache[key]


def enumerate_plans(
    actions, n_observations: int, depth: int, cap: int = DEFAULT_PLAN_CAP
) -> list[ConditionalPlan]:
    """All depth-`depth` conditional plans over the given action labels.

    Order is deterministic: root action first (in the given order), then
    lexicographic over the child assignment.
    """
    actions = tuple(actions)
    pools = _indexed_plans(len(actions), n_observations, depth, cap)
    cache: dict = {}
    return [
        _materialize_plan(pools, actions, depth, i, cache)
        for i in range(len(pools[depth - 1]))
    ]


# ---------------------------------------------------------------------------
# plan-set backup with dominance pruning

@dataclass(frozen=True, eq=False)
class PlanValueVector:
    plan: ConditionalPlan
    alpha: np.ndarray


def dominance_prune(
    vectors: list[PlanValueVector], margin_tol: float = DOMINANCE_TOL
) -> list[PlanValueVector]:
    """Keep the vectors that top the value surface somewhere on the simplex.

    Near-duplicates (within margin_tol everywhere) collapse onto their
    earliest representative, pointwise-dominated vectors go next, and the
    rest face a linear feasibility test: a vector stays iff some belief
    gives it a margin of at least -margin_tol against all other survivors
    of the prefilter.  A vector that wins a corner of the simplex outright
    is kept without consulting the linear program, so corner-maximal
    vectors never disappear.
    """
    deduped: list[PlanValueVector] = []
    for v in vectors:
        if any(
            float(np.max(np.abs(v.alpha - u.alpha))) <= margin_tol for u in deduped
        ):
            continue
        deduped.append(v)

    filtered = [
        v
        for i, v in enumerate(deduped)
        if not any(
            j != i and bool(np.all(deduped[j].alpha >= v.alpha))
            for j in range(len(deduped))
        )
    ]
    if len(filtered) <= 1:
        return filtered

    stacked = np.stack([v.alpha for v in filtered])
    n_states = stacked.shape[1]
    corner_winners = {int(np.argmax(stacked[:, s])) for s in range(n_states)}

    kept = []
    for i, v in enumerate(filtered):
        if i in corner_winners:
            kept.append(v)
            continue
        others = np.delete(stacked, i, axis=0)
        # maximize d subject to b . (u - v) + d <= 0 for all other u,
        # b on the probability simplex
        a_ub = np.hstack([others - v.alpha, np.ones((others.shape[0], 1))])
        res = linprog(
            c=np.concatenate([np.zeros(n_states), [-1.0]]),
            A_ub=a_ub,
            b_ub=np.zeros(others.shape[0]),
            A_eq=np.concatenate([np.ones(n_states), [0.0]]).reshape(1, -1),
            b_eq=[1.0],
            bounds=[(0.0, 1.0)] * n_states + [(None, None)],
            method="highs",
        )
        if not res.success or -res.fun >= -margin_tol:
            kept.append(v)
    return kept


def pomdp_plan_iteration(
    model: Pomdp,
    horizon: int,
    cap_plans: int = DEFAULT_PLAN_CAP,
    stats: list | None = None,
) -> list[PlanValueVector]:
    """Exact finite-horizon plan-set backup.

    Builds every depth-d plan from the depth-(d-1) survivors, computes its
    value vector, prunes, and repeats up to `horizon`.  Candidate counts
    are checked against `cap_plans` before each generation step.  When
    `stats` is given, one (generated, surviving) pair is appended per
    depth.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    actions = model.action_union()
    states = list(model.states)
    n = len(states)
    reward = np.array([model.reward[s] for s in states])
    n_obs = len(model.observations)
    omega = np.stack([model.sensor[s].probs for s in states])  # [s', o]
    trans = {}
    for a in actions:
        rows = np.zeros((n, n))
        for i, s in enumerate(states):
            row = model.transition.get((s, a))
            if row is not None:
                rows[i] = row.probs
        trans[a] = rows

    survivors: list[PlanValueVector] = []
    for depth in range(1, horizon + 1):
        if depth == 1:
            candidates = [
                PlanValueVector(ConditionalPlan(a), reward.copy()) for a in actions
            ]
        else:
            n_candidates = len(actions) * len(survivors) ** n_obs
            if n_candidates > cap_plans:
                raise CapacityExceeded(
                    f"{n_candidates} depth-{depth} candidate plans exceed the "
                    f"plan cap {cap_plans}",
                    measured=n_candidates,
                    cap=cap_plans,
                )
            candidates = []
            for a in actions:
                for assignment in itertools.product(survivors, repeat=n_obs):
                    cont = np.zeros(n)
                    for o, pv in enumerate(assignment):
                        cont += omega[:, o] * pv.alpha
                    alpha = reward + model.discount * trans[a].dot(cont)
                    plan = ConditionalPlan(a, tuple(pv.plan for pv in assignment))
                    candidates.append(PlanValueVector(plan, alpha))
        survivors = dominance_prune(candidates)
        if stats is not None:
            stats.append((len(candidates), len(survivors)))
    return survivors


# ---------------------------------------------------------------------------
# exhaustive team search, ground form

@dataclass(frozen=True)
class JointPolicy:
    """One entry per agent (ground) or per partition (lifted).

    Each entry lists (plan, member count) pairs; ground entries are
    singletons with count 1, lifted entries assign every member of the
    partition to some plan.
    """

    horizon: int
    plans: tuple[tuple[tuple[ConditionalPlan, int], ...], ...]


@dataclass
class SolveResult:
    value: float
    policy: JointPolicy
    statistics: dict = field(default_factory=dict)


def _require_row(row, what):
    if row is None:
        raise ValidationError(f"model has no {what}; solve needs complete rows")
    return row


def decpomdp_exhaustive(
    model: GroundDecPomdp,
    horizon: int,
    cap_plans: int = DEFAULT_PLAN_CAP,
    cap_joint: int = DEFAULT_JOINT_CAP,
) -> SolveResult:
    """Optimal joint policy by exact enumeration.

    Every tuple of per-agent depth-`horizon` plans is evaluated by the
    exact expectation over state and joint-observation trajectories from
    the model's initial belief; no sampling, no pruning.  Ties fall to the
    earliest tuple in declaration order.  Joint tuple counts are checked
    against `cap_joint` at every depth before anything is enumerated.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    agents = model.agents
    states = list(model.states)
    n = len(states)
    reward = np.array([model.reward[s] for s in states])
    gamma = model.discount
    b0 = model.initial_belief.probs

    act_ranges = [model.actions[a] for a in agents]
    obs_ranges = [model.observations[a] for a in agents]
    for d in range(1, horizon + 1):
        joint = math.prod(
            plan_count(len(ar), len(orr), d) for ar, orr in zip(act_ranges, obs_ranges)
        )
        if joint > cap_joint:
            raise CapacityExceeded(
                f"{joint} joint plan tuples at depth {d} exceed the joint cap "
                f"{cap_joint}",
                measured=joint,
                cap=cap_joint,
            )

    pools = [
        _indexed_plans(len(ar), len(orr), horizon, cap_plans)
        for ar, orr in zip(act_ranges, obs_ranges)
    ]

    joint_obs = list(itertools.product(*obs_ranges))
    joint_obs_idx = list(
        itertools.product(*(range(len(orr)) for orr in obs_ranges))
    )
    omega = np.zeros((n, len(joint_obs)))
    for i, s in enumerate(states):
        row = model.sensor.get(s, {})
        for j, jo in enumerate(joint_obs):
            omega[i, j] = row.get(jo, 0.0)

    trans = {}
    for ja in itertools.product(*act_ranges):
        rows = np.zeros((n, n))
        for i, s in enumerate(states):
            rows[i] = _require_row(
                model.transition.get((s, ja)), f"transition row for ({s!r}, {ja!r})"
            ).probs
        trans[ja] = rows

    evaluated = 0
    alphas: dict[tuple[int, ...], np.ndarray] = {}
    for depth in range(1, horizon + 1):
        new_alphas = {}
        for tup in itertools.product(*(range(len(p[depth - 1])) for p in pools)):
            if depth == 1:
                new_alphas[tup] = reward
                evaluated += 1
                continue
            nodes = [pools[i][depth - 1][tup[i]] for i in range(len(agents))]
            ja = tuple(act_ranges[i][nodes[i][0]] for i in range(len(agents)))
            children = np.empty((len(joint_obs), n))
            for j, jo in enumerate(joint_obs_idx):
                child = tuple(
                    nodes[i][1][jo[i]] for i in range(len(agents))
                )
                children[j] = alphas[child]
            cont = np.einsum("so,os->s", omega, children)
            new_alphas[tup] = reward + gamma * trans[ja].dot(cont)
            evaluated += 1
        alphas = new_alphas

    best_tup, best_value = None, None
    for tup, alpha in alphas.items():
        value = float(b0.dot(alpha))
        if best_value is None or value > best_value:
            best_tup, best_value = tup, value

    entries = []
    for i in range(len(agents)):
        plan = _materialize_plan(pools[i], act_ranges[i], horizon, best_tup[i], {})
        entries.append(((plan, 1),))
    policy = JointPolicy(horizon, tuple(entries))
    return SolveResult(
        value=best_value,
        policy=policy,
        statistics={
            "per_agent_plans": [len(p[horizon - 1]) for p in pools],
            "joint_tuples": len(alphas),
            "evaluations": evaluated,
        },
    )


# ---------------------------------------------------------------------------
# exhaustive team search, counting form

def _group_allocations(groups, obs_counts):
    """Distribute an observation histogram over plan-node groups.

    groups is a list of (node_index, member_count), obs_counts the
    histogram of observations seen by the whole partition.  Yields
    (per-group observation count rows, exact number of member-level ways).
    All member-level observation tuples behind a histogram are equally
    likely under a permutation-invariant sensor, so dividing the ways by
    the multinomial of obs_counts turns them into probabilities.
    """
    def rec(g, remaining):
        if g == len(groups):
            if all(x == 0 for x in remaining):
                yield (), 1
            return
        _, count = groups[g]
        for row in bounded_compositions(count, remaining):
            ways = histogram_multiplicity(row)
            rest_remaining = tuple(r - x for r, x in zip(remaining, row))
            for rest, rest_ways in rec(g + 1, rest_remaining):
                yield (row,) + rest, ways * rest_ways

    yield from rec(0, tuple(obs_counts))


def _lifted_tables(model: LiftedDecPomdp, states):
    """Dense transition and sensor matrices of a lifted model.

    Returns (trans, obs_keys, omega_t): trans maps every joint action
    histogram to its [state, next state] matrix, and omega_t[j] holds
    P(obs_keys[j] | state) over states for every observation key with
    mass somewhere.  The vector backup reads every state's rows, and its
    depth-2 shortcut is exact only when sensor rows carry unit mass, so a
    missing row or a sensor row whose mass is not 1 within PROB_TOL raises
    ValidationError here, before any search.
    """
    columns: dict = {}
    for s in states:
        row = _require_row(model.sensor.get(s), f"sensor row for state {s!r}")
        mass = math.fsum(row.values())
        if abs(mass - 1.0) > PROB_TOL:
            raise ValidationError(
                f"sensor row for state {s!r} has mass {mass!r}, not 1 within "
                f"{PROB_TOL}"
            )
        for key, prob in row.items():
            if prob != 0.0:
                columns.setdefault(key, len(columns))
    omega_t = np.zeros((len(columns), len(states)))
    for i, s in enumerate(states):
        for key, prob in model.sensor[s].items():
            if prob != 0.0:
                omega_t[columns[key], i] = prob

    part = model.partitioning
    action_spaces = [
        list(enumerate_histograms(len(block), len(acts)))
        for block, acts in zip(part.blocks, part.action_ranges)
    ]
    trans = {
        key: np.stack(
            [
                _require_row(
                    model.transition.get((s, key)),
                    f"lifted transition row for ({s!r}, {key!r})",
                ).probs
                for s in states
            ]
        )
        for key in itertools.product(*action_spaces)
    }
    return trans, list(columns), omega_t


def lifted_exhaustive(
    model: LiftedDecPomdp,
    horizon: int,
    peak_only: bool = False,
    cap_plans: int = DEFAULT_PLAN_CAP,
    cap_joint: int = DEFAULT_JOINT_CAP,
) -> SolveResult:
    """Optimal joint policy over per-partition plan multisets.

    Members of a partition are interchangeable, so a joint policy is, per
    partition, a multiset saying how many members follow each conditional
    plan; `peak_only` restricts the search to every member of a partition
    following one shared plan.  Ties fall to the earliest candidate in
    declaration order.

    Values are exact expectations computed in histogram space.  The
    execution state of a partition is the occupancy of its plan nodes, and
    one alpha-vector over states is backed up per (depth, joint occupancy):
    alpha = reward + gamma * T[action histogram] . cont, with cont the sum
    over observation keys of the sensor column times the expected child
    alpha.  Each partition's share of an observation key is allocated over
    its occupied nodes hypergeometrically; these allocation kernels, from
    (depth, occupancy, observation histogram) to child occupancies and
    their probabilities, do not depend on the state and are built once per
    entry.  Depth-1 vectors equal the reward, so a depth-2 vector depends
    on the action histogram alone and is memoised by it.  Root vectors are
    not memoised: every candidate is visited once.

    Raises ValidationError before searching when a state lacks a sensor
    row, a sensor row's mass is not 1, or a (state, action histogram)
    pair lacks a transition row.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    part = model.partitioning
    states = list(model.states)
    reward = np.array([model.reward[s] for s in states])
    gamma = model.discount
    b0 = model.initial_belief.probs
    n_partitions = len(part.blocks)
    sizes = part.sizes
    trans, obs_keys, omega_t = _lifted_tables(model, states)

    pools = [
        _indexed_plans(len(ar), len(orr), horizon, cap_plans)
        for ar, orr in zip(part.action_ranges, part.observation_ranges)
    ]

    multiset_counts = []
    for k in range(n_partitions):
        pool_size = len(pools[k][horizon - 1])
        count = pool_size if peak_only else math.comb(pool_size + sizes[k] - 1, sizes[k])
        multiset_counts.append(count)
    total_candidates = math.prod(multiset_counts)
    if total_candidates > cap_joint:
        raise CapacityExceeded(
            f"{total_candidates} joint plan-multiset candidates exceed the joint "
            f"cap {cap_joint}",
            measured=total_candidates,
            cap=cap_joint,
        )

    def action_histogram(k, depth, occ_k):
        # occ_k: sorted ((node_index, count), ...) over the depth-`depth` pool
        counts = [0] * len(part.action_ranges[k])
        nodes = pools[k][depth - 1]
        for node_idx, c in occ_k:
            counts[nodes[node_idx][0]] += c
        return tuple(counts)

    def allocate(k, depth, occ_k, obs_k):
        # [(child occupancy, child action histogram, probability)]; children
        # at depth 2 are merged by action histogram, all their vector needs
        nodes = pools[k][depth - 1]
        ways_by_child: dict = {}
        for rows, ways in _group_allocations(occ_k, obs_k):
            counts: dict[int, int] = {}
            for (node_idx, _), row in zip(occ_k, rows):
                children = nodes[node_idx][1]
                for o, m in enumerate(row):
                    if m:
                        counts[children[o]] = counts.get(children[o], 0) + m
            child = tuple(sorted(counts.items()))
            child_key = (
                None if depth == 3 else child,
                action_histogram(k, depth - 1, child),
            )
            ways_by_child[child_key] = ways_by_child.get(child_key, 0) + ways
        norm = histogram_multiplicity(obs_k)
        return [(c, a, ways / norm) for (c, a), ways in ways_by_child.items()]

    part_obs = [
        list(dict.fromkeys(key[k] for key in obs_keys)) for k in range(n_partitions)
    ]
    kernels: dict = {}

    def kernel(k, depth, occ_k):
        # the allocation kernels of one partition's occupancy, one per
        # observation key, each enumerated once per observation histogram
        key = (k, depth, occ_k)
        row = kernels.get(key)
        if row is None:
            split = {obs_k: allocate(k, depth, occ_k, obs_k) for obs_k in part_obs[k]}
            row = kernels[key] = [split[obs_key[k]] for obs_key in obs_keys]
        return row

    shallow: dict = {}
    memo: dict = {}

    def alpha(depth, occ, action_key):
        if depth == 1:
            return reward
        if depth == 2:
            hit = shallow.get(action_key)
            if hit is None:
                hit = shallow[action_key] = reward + gamma * trans[action_key].dot(reward)
            return hit
        key = (depth, occ)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = backup(depth, occ, action_key)
        return hit

    def backup(depth, occ, action_key):
        columns, weights, children = [], [], []
        rows = [kernel(k, depth, occ[k]) for k in range(n_partitions)]
        for j, entries in enumerate(zip(*rows)):
            for combo in itertools.product(*entries):
                child_occ, child_action, probs = zip(*combo)
                columns.append(j)
                weights.append(math.prod(probs))
                children.append(alpha(depth - 1, child_occ, child_action))
        coef = omega_t[columns] * np.array(weights)[:, None]
        cont = (coef * np.array(children)).sum(axis=0)
        return reward + gamma * trans[action_key].dot(cont)

    support = np.nonzero(b0)[0]
    b0_support = b0[support]

    def value_of(vec):
        return math.fsum((b0_support * vec[support]).tolist())

    def candidates(k):
        pool_size = len(pools[k][horizon - 1])
        if peak_only:
            for i in range(pool_size):
                yield ((i, sizes[k]),)
        else:
            for combo in itertools.combinations_with_replacement(
                range(pool_size), sizes[k]
            ):
                counts: dict[int, int] = {}
                for i in combo:
                    counts[i] = counts.get(i, 0) + 1
                yield tuple(sorted(counts.items()))

    per_partition = [
        [(occ_k, action_histogram(k, horizon, occ_k)) for occ_k in candidates(k)]
        for k in range(n_partitions)
    ]
    shallow_values: dict = {}
    best_occ, best_value = None, None
    for combo in itertools.product(*per_partition):
        occ, action_key = zip(*combo)
        if horizon > 2:
            v = value_of(backup(horizon, occ, action_key))
        else:
            # depth-1 and depth-2 values depend on the action histogram alone
            v = shallow_values.get(action_key)
            if v is None:
                v = shallow_values[action_key] = value_of(alpha(horizon, occ, action_key))
        if best_value is None or v > best_value:
            best_occ, best_value = occ, v

    cache: dict = {}
    plans = []
    for k in range(n_partitions):
        entry = tuple(
            (
                _materialize_plan(
                    pools[k], part.action_ranges[k], horizon, node_idx, cache.setdefault(k, {})
                ),
                count,
            )
            for node_idx, count in best_occ[k]
        )
        plans.append(entry)
    return SolveResult(
        value=float(best_value),
        policy=JointPolicy(horizon, tuple(plans)),
        statistics={
            "per_partition_plans": [len(p[horizon - 1]) for p in pools],
            "per_partition_candidates": multiset_counts,
            "joint_candidates": total_candidates,
            "peak_only": peak_only,
        },
    )
