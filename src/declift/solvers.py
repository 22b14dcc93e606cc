"""Exact solvers over the model types.

Four solver families live here: infinite-horizon value iteration for MDPs,
finite-horizon plan-set backup with dominance pruning for POMDPs, and
exhaustive finite-horizon team search in ground and in counting form.
`verify_equivalence` runs both team searches on one model and compares
the optima.  Every solver reads transition rows through one dense table
builder, `_transitions`, and checks its sensor rows with `_sensor_rows`
(the team solvers then fill their sensor matrices from the model's
columns); both refuse a missing row, and the latter a row whose mass is
not 1, before any search, as every solver refuses rewards whose values
could leave the float range (`_require_finite_values`).  Plan pools are
per-depth (actions, children) integer arrays in declaration order, built
by one pool builder, `_plan_pool`; that order is the tie-break of every
finite-horizon solver.

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
states per joint plan node.  The ground one is a tensor backup, `_backup`:
the values of every tuple of agent plans at one depth form one array,
filled from the previous depth's array by one gather per joint observation
and one transition product per joint action.  The lifted one keeps one
vector per joint occupancy (how many members of each partition sit at each
plan node).  Observation histograms are split over the plan nodes of a
partition with multivariate hypergeometric weights, which is exactly the
distribution induced by any permutation-invariant sensor; that split does
not depend on the state, so it is cached per partition as an allocation
kernel.  Depth-1 vectors equal the reward, so a depth-2 vector depends only
on the action histogram the occupancy induces.  Optimal values of the two
forms therefore agree on liftable models.  A root search at horizon 1 or 2
values each joint action histogram once, not every candidate behind it.
Deeper, the root builds no vector per candidate: b0 . alpha is the sum of
b0 . reward and one weighted scalar per term of the backup, each the dot
of a child vector with gamma * (b0 T[a]) * omega_j, memoised per root
action histogram.

The POMDP solver is the one-agent case of the same backup step, pruned
after every depth: `dominance_prune` returns the kept row indices, and
those rows of the pool are the next depth's children.  `_backup` applies
transitions as stacked matrix-vector products, which keeps POMDP values
bit-identical to a per-candidate backup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .counting import (
    DEFAULT_JOINT_CAP,
    DEFAULT_PLAN_CAP,
    bounded_compositions,
    histogram_multiplicity,
)
from .errors import (
    CapacityExceeded,
    InvalidParams,
    NonConvergent,
    NotLiftable,
    ValidationError,
)
from .lifting import ground, lift, range_partition, symmetry_refine
from .models import PROB_TOL, GroundDecPomdp, LiftedDecPomdp, Mdp, Pomdp
from .sizes import SizeParams, SizeReport, params_from_model, size_report

DEFAULT_EPSILON = 1e-6
DOMINANCE_TOL = 1e-12
LP_TOL = 1e-12
LP_PIVOT_FACTOR = 50
EQUIVALENCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# dense tables

def _require_row(row, what):
    if row is None:
        raise ValidationError(f"model has no {what}; solve needs complete rows")
    return row


def _transitions(model, states, keys, row_name: str) -> np.ndarray:
    """Transition matrices T[k, i, s'] of the rows (states[i], keys[k]).

    Rows are read key-major, state-minor; the first missing one raises
    ValidationError naming it as `<row_name> for (state, key)`.
    """
    transition = model.transition
    entry = transition.find(states, keys).T.ravel()
    missing = np.flatnonzero(entry < 0)
    if missing.size:
        k, i = divmod(int(missing[0]), len(states))
        _require_row(None, f"{row_name} for ({states[i]!r}, {keys[k]!r})")
    table = np.empty((len(entry), len(model.states)))
    for k, code in enumerate(transition.row_codes[entry].tolist()):
        table[k] = transition.rows[code].probs
    return table.reshape(len(keys), len(states), len(model.states))


def _sensor_rows(model, states) -> list:
    """The sensor row of each state, read by every solver before it searches.

    A missing row, or a row whose mass (`row.mass()`, the dense row of a
    POMDP or a team model's sparse `SensorRow`) is not 1 within PROB_TOL,
    raises ValidationError naming its state.
    """
    rows = []
    for s in states:
        row = _require_row(model.sensor.get(s), f"sensor row for state {s!r}")
        mass = row.mass()
        if not abs(mass - 1.0) <= PROB_TOL:
            raise ValidationError(
                f"sensor row for state {s!r} has mass {mass!r}, not 1 within {PROB_TOL}"
            )
        rows.append(row)
    return rows


def _require_finite_values(rewards, gamma: float, steps: float) -> None:
    """Raise ValidationError unless a sum of `steps` discounted rewards is
    bounded by a finite float, max |reward| * (1 + gamma + ... +
    gamma^(steps-1)); so a NaN reward is refused too."""
    bound = float(np.max(np.abs(np.array(rewards, dtype=float))))
    # a float discount below 1 adds nothing past 2**64 steps, and a search
    # that long never ends at 1; the cap keeps the power within float range
    terms = min(steps, 2**64)
    weight = terms if gamma == 1.0 else (1.0 - gamma**terms) / (1.0 - gamma)
    if not math.isfinite(bound * weight):
        span = "every step" if steps == math.inf else f"{steps} steps"
        raise ValidationError(
            f"rewards up to {bound!r} summed over {span} at discount {gamma!r} "
            "leave the float range"
        )


# ---------------------------------------------------------------------------
# value iteration

@dataclass
class UtilityTable:
    values: dict[str, float]
    iterations: int
    converged: bool


def mdp_value_iteration(
    model: Mdp, epsilon: float = DEFAULT_EPSILON, max_iterations: int | None = None
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
    states = list(model.states)
    steps = max_iterations if gamma >= 1.0 else math.inf
    _require_finite_values([model.reward[s] for s in states], gamma, steps)
    trans = {
        s: _transitions(model, [s], model.actions.get(s, ()), "transition row")[:, 0]
        for s in states
    }

    def q_values(utility):
        u = np.array([utility[t] for t in states])
        return {s: [float(np.dot(row, u)) for row in trans[s]] for s in states}

    utility = {s: 0.0 for s in states}
    iterations = 0
    converged = False
    while max_iterations is None or iterations < max_iterations:
        q = q_values(utility)
        new = {s: model.reward[s] + gamma * max(q[s], default=0.0) for s in states}
        delta = max(abs(new[s] - utility[s]) for s in states)
        utility = new
        iterations += 1
        if gamma < 1.0 and delta < threshold:
            converged = True
            break

    # max and index both take the first maximum: ties go to the earliest action
    q = q_values(utility)
    policy = {s: model.actions[s][q[s].index(max(q[s]))] for s in states if q[s]}
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


def _check_cap(count: int, cap: int, items: str, cap_name: str):
    if count > cap:
        raise CapacityExceeded(
            f"{count} {items} exceed the {cap_name} cap {cap}", measured=count, cap=cap
        )


def _plan_pool(n_actions: int, n_obs: int, n_children: int):
    """One depth's plan pool over `n_children` subplans: (actions, children).

    actions[q] is plan q's action index and children[q, o] the index of its
    subplan after observation o.  The order (action-major, then
    lexicographic over children) is the declaration-order tie-break every
    solver relies on; each action owns one contiguous block of equal size.
    With no observations over one subplan it is the depth-1 pool: one
    childless plan per action.
    """
    block = n_children ** n_obs
    children = np.indices((n_children,) * n_obs).reshape(n_obs, block).T
    return np.repeat(np.arange(n_actions), block), np.tile(children, (n_actions, 1))


def _indexed_plans(n_actions: int, n_obs: int, depth: int, cap: int):
    """Per-depth pools of every conditional plan, from depth 1 to `depth`.

    pools[d-1] is the `_plan_pool` of all depth-d plans, whose children
    index pools[d-2]; depth-1 plans have no children.  Every depth's count
    is checked against `cap` before any pool is built.
    """
    for d in range(1, depth + 1):
        _check_cap(plan_count(n_actions, n_obs, d), cap, f"depth-{d} plans", "plan")
    pools = [_plan_pool(n_actions, 0, 1)]
    for _ in range(depth - 1):
        pools.append(_plan_pool(n_actions, n_obs, len(pools[-1][0])))
    return pools


def _materialize_plan(pools, actions, depth: int, index: int, cache) -> ConditionalPlan:
    key = (depth, index)
    if key not in cache:
        action_idx, children = pools[depth - 1]
        subs = tuple(
            _materialize_plan(pools, actions, depth - 1, c, cache)
            for c in children[index].tolist()
        )
        cache[key] = ConditionalPlan(actions[action_idx[index]], subs)
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
        for i in range(len(pools[depth - 1][0]))
    ]


# ---------------------------------------------------------------------------
# the backup step of the POMDP and ground team solvers

def _backup(value, children, trans, sensor, reward, gamma, b0=None):
    """One depth of the tensor backup over N agents' plan pools.

    The POMDP solver calls it with N = 1.  value[q_1, ..., q_N, s] holds
    the child depth's values, children[i] is agent i's child-index array
    of the new depth (action-major, in equal blocks, as `_plan_pool`
    builds it), trans[a_1, ..., a_N] the [state, next state] matrix of a
    joint action index tuple and sensor[s', o_1, ..., o_N] the probability
    of a joint observation in the next state.
    The tuples of one joint action form a contiguous block; for each joint
    observation with mass somewhere, the block's children's values are
    gathered with `np.ix_`, weighted by the sensor and summed, and the
    action's transition applies to the sum as a stacked matrix-vector
    product.  A stacked matvec rounds each row as `T.dot(row)` does, which
    a matrix product against the whole block does not, so the one-agent
    case reproduces a per-candidate backup bit for bit.  Working block by
    block keeps the temporaries at one block's size.  Returns the new
    values V[q_1, ..., q_N, s] or, given the initial belief `b0` at the
    root, each tuple's value V . b0.
    """
    n_states = len(reward)
    observed = [tuple(jo) for jo in np.argwhere(sensor.any(axis=0))]
    sizes = [len(c) // n_actions for c, n_actions in zip(children, trans.shape)]
    shape = tuple(len(c) for c in children) + ((n_states,) if b0 is None else ())
    backed_up = np.empty(shape)
    for ja in np.ndindex(trans.shape[:-2]):
        block = tuple(slice(a * size, (a + 1) * size) for a, size in zip(ja, sizes))
        cont = np.zeros(tuple(sizes) + (n_states,))
        for jo in observed:
            rows = (c[sl, o] for c, sl, o in zip(children, block, jo))
            gathered = value[np.ix_(*rows)]
            gathered *= sensor[(slice(None),) + jo]
            cont += gathered
        alpha = np.matmul(trans[ja], cont[..., None])[..., 0]
        alpha *= gamma
        alpha += reward
        backed_up[block] = alpha if b0 is None else alpha @ b0
    return backed_up


# ---------------------------------------------------------------------------
# plan-set backup with dominance pruning

@dataclass(frozen=True, eq=False)
class PlanValueVector:
    plan: ConditionalPlan
    alpha: np.ndarray


def linprog(table: np.ndarray) -> float:
    """Best worst-case margin of a payoff table over the simplex.

    Returns max over b on the probability simplex of min_j table[j] . b,
    for a table of k >= 1 rows and n >= 1 columns.  The columns are the
    coordinates the belief ranges over and each row is one payoff
    difference; `dominance_prune` passes v - u_j for every other row u_j,
    so the result is the margin by which v can top all of them.

    The equality sum(b) = 1 is removed by substituting b[n-1] = 1 -
    sum(b[:n-1]), which leaves sum(b[:n-1]) <= 1.  The free margin t is
    shifted to z = t - table.min() >= 0, valid because every belief
    scores at least the table's minimum, so every right-hand side is
    non-negative and the all-slack basis is feasible without a phase I.
    A dense tableau simplex then maximises z under Bland's rule: the
    lowest-indexed column whose reduced cost is below -LP_TOL enters,
    and among the rows with an entry above LP_TOL and the smallest
    ratio, the one whose basic variable has the lowest index leaves.
    Basic values that rounding pushes below zero are reset to zero.
    The loop ends when no reduced cost is below -LP_TOL, and the margin
    is read off the objective row.  Bland's rule cannot cycle in exact
    arithmetic; as a hard bound against rounding, more than
    LP_PIVOT_FACTOR * (k + n) pivots raise NonConvergent.  So does an
    entering column with no entry above LP_TOL: the simplex row and the
    table rows bound every variable, so only rounding can empty the
    ratio test.
    `dominance_prune` looks this name up at call time, so it can be
    replaced to observe or count the LP calls.
    """
    table = np.asarray(table, dtype=float)
    k, n = table.shape
    if k == 0 or n == 0:
        raise ValueError("the margin LP needs at least one row and one column")
    floor = table.min()
    last = table[:, -1]
    # columns: b[0..n-2], z, one slack per row, the right-hand side;
    # rows: one per table row, the simplex row, the objective
    tableau = np.zeros((k + 2, n + k + 2))
    tableau[:k, : n - 1] = last[:, None] - table[:, :-1]
    tableau[:k, n - 1] = 1.0
    tableau[k, : n - 1] = 1.0
    tableau[: k + 1, n : n + k + 1] = np.eye(k + 1)
    tableau[:k, -1] = last - floor
    tableau[k, -1] = 1.0
    tableau[-1, n - 1] = -1.0
    basis = np.arange(n, n + k + 1)
    values = tableau[:-1, -1]
    for _ in range(LP_PIVOT_FACTOR * (k + n)):
        improving = np.flatnonzero(tableau[-1, :-1] < -LP_TOL)
        if not improving.size:
            return float(floor + tableau[-1, -1])
        col = improving[0]
        rows = np.flatnonzero(tableau[:-1, col] > LP_TOL)
        if not rows.size:
            raise NonConvergent(
                f"margin LP over a {k} x {n} table has no pivot row for column {col}"
            )
        ratios = values[rows] / tableau[rows, col]
        ties = rows[ratios == ratios.min()]
        row = ties[np.argmin(basis[ties])]
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row])
        np.maximum(values, 0.0, out=values)
        basis[row] = col
    raise NonConvergent(
        f"margin LP over a {k} x {n} table did not reach an optimal basis "
        f"within {LP_PIVOT_FACTOR * (k + n)} pivots"
    )


def _prefilter(rows: np.ndarray, margin_tol: float) -> list[int]:
    """Indices of the rows left by dedup and the pointwise filter, in order.

    A row within margin_tol everywhere of an earlier kept row is dropped,
    then a row that another kept row matches or beats everywhere.  Each
    test is one array reduction per row; no pairwise array is formed.
    """
    unique = np.empty_like(rows)  # the kept rows, in order
    deduped: list[int] = []
    for i, row in enumerate(rows):
        kept = unique[: len(deduped)]
        if deduped and np.abs(kept - row).max(axis=1).min() <= margin_tol:
            continue
        unique[len(deduped)] = row
        deduped.append(i)
    unique = unique[: len(deduped)]

    filtered = []
    for k, row in enumerate(unique):
        dominators = (unique >= row).all(axis=1)
        dominators[k] = False
        if not dominators.any():
            filtered.append(deduped[k])
    return filtered


def dominance_prune(alphas: np.ndarray, margin_tol: float = DOMINANCE_TOL) -> list[int]:
    """Indices, in order, of the rows that top the value surface somewhere.

    `alphas` holds one value vector per row over the states (columns).
    Near-duplicates (within margin_tol everywhere) collapse onto their
    earliest representative, and pointwise-dominated rows go next.  A row
    that wins a corner of the simplex outright is then kept without an LP,
    so corner-maximal rows never disappear.  Every other row v faces one
    margin LP, `linprog(v - others)`, over the table of its differences to
    all other survivors of the prefilter: v stays iff max over beliefs b
    of min_u b . (v - u) is at least -margin_tol.  `linprog` states the
    LP's own tolerance and its termination rule.
    """
    filtered = _prefilter(alphas, margin_tol)
    if len(filtered) <= 1:
        return filtered
    stacked = alphas[filtered]
    corner_winners = {int(np.argmax(stacked[:, s])) for s in range(stacked.shape[1])}
    return [
        i
        for k, i in enumerate(filtered)
        if k in corner_winners
        or linprog(stacked[k] - np.delete(stacked, k, axis=0)) >= -margin_tol
    ]


def pomdp_plan_iteration(
    model: Pomdp,
    horizon: int,
    cap_plans: int = DEFAULT_PLAN_CAP,
    stats: list | None = None,
) -> list[PlanValueVector]:
    """Exact finite-horizon plan-set backup.

    The one-agent case of the team backup: each depth's candidates are the
    `_plan_pool` over the previous depth's survivors, valued in one
    `_backup` call, pruned with `dominance_prune`, and the surviving rows
    of (actions, children) become that depth's pool.  Plan objects are
    built only for the survivors at `horizon`.  Candidate counts are
    checked against `cap_plans` before each generation step.  When `stats`
    is given, one (generated, surviving) pair is appended per depth.
    Plans may take any action in any state, so ValidationError is raised
    before searching when a state lacks a sensor row or a transition row
    for some action, or its sensor row's mass is not 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    actions = model.action_union()
    states = list(model.states)
    reward = np.array([model.reward[s] for s in states])
    _require_finite_values(reward, model.discount, horizon)
    n_obs = len(model.observations)
    omega = np.stack([row.probs for row in _sensor_rows(model, states)])  # [s', o]
    trans = _transitions(model, states, actions, "transition row")

    pools = []
    for depth in range(1, horizon + 1):
        n_candidates = len(actions) * (len(value) ** n_obs if depth > 1 else 1)
        _check_cap(n_candidates, cap_plans, f"depth-{depth} candidate plans", "plan")
        if depth == 1:
            pool = _plan_pool(len(actions), 0, 1)
            candidates = np.tile(reward, (len(actions), 1))
        else:
            pool = _plan_pool(len(actions), n_obs, len(value))
            candidates = _backup(value, [pool[1]], trans, omega, reward, model.discount)
        kept = dominance_prune(candidates)
        pools.append((pool[0][kept], pool[1][kept]))
        value = candidates[kept]
        if stats is not None:
            stats.append((len(candidates), len(kept)))
    cache: dict = {}
    return [
        PlanValueVector(_materialize_plan(pools, actions, horizon, q, cache), alpha)
        for q, alpha in enumerate(value)
    ]


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


def decpomdp_exhaustive(
    model: GroundDecPomdp,
    horizon: int,
    cap_plans: int = DEFAULT_PLAN_CAP,
    cap_joint: int = DEFAULT_JOINT_CAP,
) -> SolveResult:
    """Optimal joint policy by exact enumeration.

    Every tuple of per-agent depth-`horizon` plans is evaluated by the
    exact expectation over state and joint-observation trajectories from
    the model's initial belief, backed up one depth at a time by `_backup`
    over the full per-agent pools; no sampling, no pruning.  Ties fall to the
    earliest tuple in declaration order.  Joint tuple counts are checked
    against `cap_joint` at every depth before anything is enumerated.

    Raises ValidationError before searching when a state lacks a sensor
    row, a sensor row's mass is not 1, or a (state, joint action) pair
    lacks a transition row; a joint observation missing from a sensor row
    has probability 0.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    agents = model.agents
    states = list(model.states)
    n = len(states)
    reward = np.array([model.reward[s] for s in states])
    _require_finite_values(reward, model.discount, horizon)
    b0 = model.initial_belief.probs

    act_ranges = [model.actions[a] for a in agents]
    obs_ranges = [model.observations[a] for a in agents]
    for d in range(1, horizon + 1):
        joint = math.prod(
            plan_count(len(ar), len(orr), d) for ar, orr in zip(act_ranges, obs_ranges)
        )
        _check_cap(joint, cap_joint, f"joint plan tuples at depth {d}", "joint")

    pools = [
        _indexed_plans(len(ar), len(orr), horizon, cap_plans)
        for ar, orr in zip(act_ranges, obs_ranges)
    ]

    _sensor_rows(model, states)
    sensor = model.sensor.dense(states, list(itertools.product(*obs_ranges)))
    sensor = sensor.reshape((n,) + tuple(len(orr) for orr in obs_ranges))
    trans = _transitions(
        model, states, list(itertools.product(*act_ranges)), "transition row"
    )
    trans = trans.reshape(tuple(len(ar) for ar in act_ranges) + (n, n))
    value = np.broadcast_to(reward, tuple(len(p[0][0]) for p in pools) + (n,))
    for depth in range(2, horizon + 1):
        children = [p[depth - 1][1] for p in pools]
        root_b0 = b0 if depth == horizon else None
        value = _backup(value, children, trans, sensor, reward, model.discount, root_b0)
    if horizon == 1:
        value = value @ b0
    # the first maximum in C order is the earliest tuple in declaration order
    best_tup = np.unravel_index(np.argmax(value), value.shape)
    best_value = float(value[best_tup])

    entries = []
    for i in range(len(agents)):
        plan = _materialize_plan(pools[i], act_ranges[i], horizon, int(best_tup[i]), {})
        entries.append(((plan, 1),))
    policy = JointPolicy(horizon, tuple(entries))
    joint_tuples = [math.prod(len(p[d][0]) for p in pools) for d in range(horizon)]
    return SolveResult(
        value=best_value,
        policy=policy,
        statistics={
            "per_agent_plans": [len(p[horizon - 1][0]) for p in pools],
            "joint_tuples": joint_tuples[-1],
            "evaluations": sum(joint_tuples),
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
    return _allocations_from(groups, 0, tuple(obs_counts))


def _allocations_from(groups, g, remaining):
    # the groups g, g+1, ... of `_group_allocations`; module level, so the
    # recursion makes no closure cycle, and apart from it, so a wrapper set
    # on `_group_allocations` sees one call per enumeration
    if g == len(groups):
        if all(x == 0 for x in remaining):
            yield (), 1
        return
    _, count = groups[g]
    for row in bounded_compositions(count, remaining):
        ways = histogram_multiplicity(row)
        rest_remaining = tuple(r - x for r, x in zip(remaining, row))
        for rest, rest_ways in _allocations_from(groups, g + 1, rest_remaining):
            yield (row,) + rest, ways * rest_ways


def _lifted_observation_keys(model: LiftedDecPomdp, rows) -> list:
    """Observation keys with mass in some of these sensor rows, in
    first-appearance order."""
    codes = np.concatenate([row.codes[row.probs != 0.0] for row in rows]).tolist()
    return list(map(model.sensor.actions.__getitem__, dict.fromkeys(codes)))


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
    on the action histogram alone and is memoised by it.  The root search
    scans per-partition classes, not the product of candidates: at horizon
    1 or 2 the first candidate of each action histogram in declaration
    order, so each joint histogram is valued once; deeper, every candidate,
    valued without a root vector: b0 . reward plus, per (observation key
    j, weight w, child) term of its backup, w * u[a][j] . alpha_child with
    u[a][j] = gamma * (b0 T[a]) * omega_j.  u and each dot are memoised
    per root action histogram, so a candidate costs dictionary lookups and
    float products, summed by `math.fsum`.  `joint_candidates` counts the
    policy class searched, not the vectors valued.  `cap_joint` bounds the
    root's work: at horizon 3 or more the candidates valued; at horizon 1
    or 2 each partition's multisets walked and the joint classes valued.

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
    _require_finite_values(reward, gamma, horizon)
    b0 = model.initial_belief.probs
    n_partitions = len(part.blocks)
    sizes = part.sizes
    obs_keys = _lifted_observation_keys(model, _sensor_rows(model, states))
    omega_t = model.sensor.dense(states, obs_keys).T  # [observation key, state]
    action_keys = model.action_keys()
    matrices = _transitions(model, states, action_keys, "lifted transition row")
    trans = dict(zip(action_keys, matrices))

    pools = [
        _indexed_plans(len(ar), len(orr), horizon, cap_plans)
        for ar, orr in zip(part.action_ranges, part.observation_ranges)
    ]
    # each level once as Python lists, for the occupancy loops below
    node_actions = [[a.tolist() for a, _ in pool] for pool in pools]
    node_children = [[c.tolist() for _, c in pool] for pool in pools]
    pool_sizes = [len(acts[horizon - 1]) for acts in node_actions]

    multiset_counts = []
    for pool_size, size in zip(pool_sizes, sizes):
        count = pool_size if peak_only else math.comb(pool_size + size - 1, size)
        multiset_counts.append(count)
    total_candidates = math.prod(multiset_counts)
    if horizon <= 2:
        # the root walks each partition's multisets once, then values one
        # vector per joint action histogram class (checked below)
        for count in multiset_counts:
            _check_cap(count, cap_joint, "plan multisets of one partition", "joint")
    else:
        _check_cap(total_candidates, cap_joint, "joint plan-multiset candidates", "joint")

    def action_histogram(k, depth, occ_k):
        # occ_k: sorted ((node_index, count), ...) over the depth-`depth` pool
        counts = [0] * len(part.action_ranges[k])
        acts = node_actions[k][depth - 1]
        for node_idx, c in occ_k:
            counts[acts[node_idx]] += c
        return tuple(counts)

    def allocate(k, depth, occ_k, obs_k):
        # [(child occupancy, child action histogram, probability)]; children
        # at depth 2 are merged by action histogram, all their vector needs
        kids = node_children[k][depth - 1]
        ways_by_child: dict = {}
        for rows, ways in _group_allocations(occ_k, obs_k):
            counts: dict[int, int] = {}
            for (node_idx, _), row in zip(occ_k, rows):
                children = kids[node_idx]
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

    support = np.nonzero(b0)[0]
    b0_support = b0[support]

    def value_of(vec):
        return math.fsum((b0_support * vec[support]).tolist())

    def candidates(k):
        pool_size = pool_sizes[k]
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

    # Root classes: the candidates of one partition the root search must
    # tell apart, each class as its first candidate in declaration order.  A
    # depth-1 or depth-2 value depends on the action histogram alone, so
    # there a class is every candidate sharing one; deeper, each candidate
    # is its own class.  The product of classes visits, in order, the first
    # candidate of every joint class, so the first strict maximum is the
    # candidate a scan over the whole product would keep.
    per_partition = []
    for k in range(n_partitions):
        classes: dict = {}
        for occ_k in candidates(k):
            hist = action_histogram(k, horizon, occ_k)
            classes.setdefault(hist if horizon <= 2 else occ_k, (occ_k, hist))
        per_partition.append(list(classes.values()))
    if horizon <= 2:
        joint_classes = math.prod(map(len, per_partition))
        _check_cap(joint_classes, cap_joint, "joint action histogram classes", "joint")

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

    def terms(depth, occ):
        # the backup terms of a joint occupancy, (observation key index,
        # weight, child occupancy, child action histogram): per observation
        # key, the product over partitions of their kernel entries
        rows = [kernel(k, depth, occ[k]) for k in range(n_partitions)]
        for j, entries in enumerate(zip(*rows)):
            for combo in itertools.product(*entries):
                child_occ, child_action, probs = zip(*combo)
                yield j, math.prod(probs), child_occ, child_action

    def backup(depth, occ, action_key):
        columns, weights, children = [], [], []
        for j, weight, child_occ, child_action in terms(depth, occ):
            columns.append(j)
            weights.append(weight)
            children.append(alpha(depth - 1, child_occ, child_action))
        coef = omega_t[columns] * np.array(weights)[:, None]
        cont = (coef * np.array(children)).sum(axis=0)
        return reward + gamma * trans[action_key].dot(cont)

    # the root at horizon 3 or more: b0 . backup(horizon, occ, action_key)
    # as a sum of memoised scalars (see the docstring)
    immediate = value_of(reward)
    root_u: dict = {}
    root_dots: dict = {}

    def root_value(occ, action_key):
        u = root_u.get(action_key)
        if u is None:
            u = root_u[action_key] = gamma * (b0 @ trans[action_key]) * omega_t
        parts = [immediate]
        for j, weight, child_occ, child_action in terms(horizon, occ):
            key = (action_key, j, child_occ, child_action)
            dot = root_dots.get(key)
            if dot is None:
                child = alpha(horizon - 1, child_occ, child_action)
                dot = root_dots[key] = float(u[j].dot(child))
            parts.append(weight * dot)
        return math.fsum(parts)

    best_occ, best_value = None, None
    for combo in itertools.product(*per_partition):
        occ, action_key = zip(*combo)
        if horizon <= 2:
            v = value_of(alpha(horizon, occ, action_key))
        else:
            v = root_value(occ, action_key)
        if best_value is None or v > best_value:
            best_occ, best_value = occ, v
    # alpha and backup refer to each other through their closures; unlinking
    # them lets reference counting free the memo, the kernels and the pools
    # when this call returns
    alpha = backup = None

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
            "per_partition_plans": pool_sizes,
            "per_partition_candidates": multiset_counts,
            "joint_candidates": total_candidates,
            "peak_only": peak_only,
        },
    )


# ---------------------------------------------------------------------------
# ground and lifted optima compared

@dataclass(frozen=True)
class EquivalenceReport:
    """Ground and lifted optima for the same model, plus their size gap."""

    ground_value: float
    lifted_value: float
    delta: float
    size_comparison: SizeReport
    size_params: SizeParams
    passed: bool


def _split_witness(candidate, refined):
    """First agent pair a refinement separated inside one candidate block
    (`symmetry_refine` only splits blocks, so blocks that differ hold one)."""
    member_block = {}
    for b, block in enumerate(refined.blocks):
        for i in block:
            member_block[i] = b
    for block in candidate.blocks:
        first_in_group: dict[int, int] = {}
        for i in block:
            first_in_group.setdefault(member_block[i], i)
        if len(first_in_group) > 1:
            i, j = sorted(first_in_group.values())[:2]
            return i, j


def verify_equivalence(
    model,
    horizon: int,
    cap_plans: int = DEFAULT_PLAN_CAP,
    cap_joint: int = DEFAULT_JOINT_CAP,
) -> EquivalenceReport:
    """Solve a team model in ground and lifted form and compare the optima.

    A ground model must be liftable under its range partition: if the
    symmetry check has to split any block, the offending agent pair is
    reported instead of silently degrading to singleton partitions.  A
    lifted model is expanded back to ground form.  Both forms are solved
    exhaustively at the given horizon and the report carries the two
    values, their difference, and the table-size comparison; the check
    passes when the values differ by less than EQUIVALENCE_TOL.
    """
    if isinstance(model, LiftedDecPomdp):
        lifted = model
        ground_model = ground(model, cap=cap_joint)
    elif isinstance(model, GroundDecPomdp):
        ground_model = model
        candidate = range_partition(model)
        refined = symmetry_refine(model, candidate)
        if refined.blocks != candidate.blocks:
            i, j = _split_witness(candidate, refined)
            raise NotLiftable(
                f"agents {model.agents[i]!r} and {model.agents[j]!r} share "
                f"ranges but swapping them changes the tables; lift the "
                f"model first and verify the lifted document",
                detail=(i, j),
            )
        lifted = lift(model, candidate)
    else:
        raise InvalidParams("equivalence check needs a team model document")
    ground_result = decpomdp_exhaustive(
        ground_model, horizon, cap_plans=cap_plans, cap_joint=cap_joint
    )
    lifted_result = lifted_exhaustive(
        lifted, horizon, cap_plans=cap_plans, cap_joint=cap_joint
    )
    delta = ground_result.value - lifted_result.value
    params = params_from_model(lifted)
    return EquivalenceReport(
        ground_value=ground_result.value,
        lifted_value=lifted_result.value,
        delta=delta,
        size_comparison=size_report(params),
        size_params=params,
        passed=abs(delta) < EQUIVALENCE_TOL,
    )
