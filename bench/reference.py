"""Checks of CLI outputs against references the checked code did not make.

The POMDP reference is a belief-tree search written here in plain numpy.
A horizon-h value is convex and positively homogeneous in the belief, so
the search runs on unnormalised beliefs:

    V_1(b) = b . r
    V_d(b) = b . r + g * max_a sum_o V_(d-1)((b T_a) * w[:, o])

It never builds a plan set, so it is independent of plan iteration and of
its dominance pruning.  A solution passes when every reported vector is
the value of its own plan and the upper surface of the vectors matches
the search at the simplex corners and at seeded random beliefs.
"""

from __future__ import annotations

import math
import random

import numpy as np

TOLERANCE = 1e-9
BELIEF_SAMPLES = 12


class PomdpReference:
    """The horizon-h search values of one POMDP document.

    The model is held as dense numpy tables; the search runs once, here,
    at the simplex corners and at BELIEF_SAMPLES beliefs drawn from seed.
    """

    def __init__(self, doc: dict, horizon: int, seed: int):
        self.states = list(doc["states"])
        self.observations = list(doc["observations"])
        index = {s: i for i, s in enumerate(self.states)}
        n = len(self.states)
        self.actions = sorted({a for acts in doc["actions"].values() for a in acts})
        self.trans = {a: np.zeros((n, n)) for a in self.actions}
        for entry in doc["transition"]:
            for target, p in entry["next"].items():
                self.trans[entry["action"]][index[entry["state"]], index[target]] = p
        self.sensor = np.zeros((n, len(self.observations)))
        for entry in doc["sensor"]:
            for o, p in entry["row"].items():
                self.sensor[index[entry["state"]], self.observations.index(o)] = p
        self.reward = np.array([doc["reward"][s] for s in self.states])
        self.discount = doc["discount"]
        self.horizon = horizon
        rng = random.Random(f"beliefs:{seed}")
        beliefs = list(np.eye(n))
        for _ in range(BELIEF_SAMPLES):
            weights = np.array([rng.random() for _ in self.states])
            beliefs.append(weights / weights.sum())
        self.surface = [(b, self.value(b, horizon)) for b in beliefs]

    def value(self, belief: np.ndarray, depth: int) -> float:
        now = float(belief @ self.reward)
        if depth == 1:
            return now
        best = -math.inf
        for a in self.actions:
            predicted = belief @ self.trans[a]
            best = max(
                best,
                sum(
                    self.value(predicted * self.sensor[:, o], depth - 1)
                    for o in range(len(self.observations))
                ),
            )
        return now + self.discount * best

    def plan_alpha(self, plan: dict) -> np.ndarray:
        alpha = self.reward.copy()
        if "on" in plan:
            cont = sum(
                self.sensor[:, o] * self.plan_alpha(plan["on"][obs])
                for o, obs in enumerate(self.observations)
            )
            alpha = alpha + self.discount * (self.trans[plan["action"]] @ cont)
        return alpha

    def check_solution(self, solution: dict):
        """Return None when the solution is exact, else a reason."""
        vectors = solution["vectors"]
        if not vectors:
            return "no value vectors"
        alphas = []
        for v in vectors:
            reported = np.array([v["alpha"][s] for s in self.states])
            own = self.plan_alpha(v["plan"])
            if not np.allclose(reported, own, rtol=TOLERANCE, atol=TOLERANCE):
                return f"vector {reported} is not the value {own} of its plan"
            if _depth(v["plan"]) != self.horizon:
                return "plan depth differs from the horizon"
            alphas.append(reported)
        stacked = np.stack(alphas)
        for b, exact in self.surface:
            surface = float(np.max(stacked @ b))
            if not math.isclose(surface, exact, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
                return f"upper surface {surface!r} differs from search value {exact!r}"
        return None


def _depth(plan: dict) -> int:
    return 1 + max((_depth(p) for p in plan.get("on", {}).values()), default=0)


def size_table_lines(states, partitions, partition_size, actions, observations):
    """Expected `analyze-size` table, from the size formulas of the paper.

    Ground tables are s^2 a^N and s o^N, counting tables s^2 n^(aK) and
    s n^(oK), and peak-shaped tables s^2 a^K and s o^K, all in log2.
    """
    agents = partitions * partition_size
    s = math.log2(states)
    n = math.log2(partition_size)
    rows = [
        ("ground", 2 * s + agents * math.log2(actions), s + agents * math.log2(observations)),
        ("lifted", 2 * s + actions * partitions * n, s + observations * partitions * n),
        ("peak-shaped", 2 * s + partitions * math.log2(actions), s + partitions * math.log2(observations)),
    ]
    keys = ", ".join(
        f"{math.comb(partition_size + actions - 1, actions - 1)}/"
        f"{math.comb(partition_size + observations - 1, observations - 1)}"
        for _ in range(partitions)
    )
    return [
        f"instance: {states} states, {agents} agents, {partitions} partitions of {partition_size}",
        f"{'form':<12} {'log2(transition)':>20} {'log2(sensor)':>20}",
        *(f"{name:<12} {t:>20.17g} {o:>20.17g}" for name, t, o in rows),
        f"exact keys per partition (actions/observations): {keys}",
    ]
