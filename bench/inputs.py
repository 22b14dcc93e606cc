"""Seeded inputs for the benchmark workloads.

A seed changes numbers only, never table shapes, so every seed costs the
program the same amount of work:

- desk draws keep the desk preset's deterministic rates and redraw the
  initial marker rate and the three reward figures; seed 0 is the preset;
- the `--rates` file keeps every rate strictly inside (0, 1), so no row
  of the generated tables loses a zero-probability entry;
- the POMDP document is one fixed random model whose rewards get a
  positive affine map and whose state labels get a permutation.  Both
  leave the dominance structure of every plan pool unchanged, so pool
  sizes and LP calls repeat across seeds.

Only the standard library is used here: the documents are written as
plain JSON, not through declift's serializer.
"""

from __future__ import annotations

import dataclasses
import json
import random


def desk_params(seed: int):
    """Desk preset with a seeded marker rate and rewards; seed 0 is the preset."""
    from declift.nano import nano_desk_preset

    preset = nano_desk_preset()
    if seed == 0:
        return preset
    rng = random.Random(f"desk:{seed}")
    return dataclasses.replace(
        preset,
        marker_initial=rng.uniform(0.2, 0.8),
        reward_good=rng.uniform(6.0, 14.0),
        reward_bad=rng.uniform(10.0, 30.0),
        release_cost=rng.uniform(0.5, 4.0),
    )


def rates_document(seed: int) -> dict:
    """Overrides for `gen-nano --rates`; every rate lies strictly in (0, 1)."""
    rng = random.Random(f"rates:{seed}")
    return {
        "marker_appear": rng.uniform(0.05, 0.3),
        "marker_persist": rng.uniform(0.7, 0.95),
        "assemble_prob": rng.uniform(0.6, 0.95),
        "false_positive": rng.uniform(0.02, 0.1),
        "cross_type": rng.uniform(0.01, 0.05),
        "false_negative": rng.uniform(0.05, 0.2),
        "marker_initial": rng.uniform(0.2, 0.8),
        "discount": rng.uniform(0.85, 0.95),
        "reward_good": rng.uniform(5.0, 15.0),
        "reward_bad": rng.uniform(10.0, 30.0),
        "release_cost": rng.uniform(0.5, 3.0),
    }


# The fixed random POMDP behind every seed: 4 states, 3 actions and 2
# observations, drawn from this structure seed.  At horizon 5 its plan
# pools hold 1, 3, 6, 10 and 18 survivors and the solve takes about 1 s.
POMDP_SHAPE = (4, 3, 2)
POMDP_STRUCTURE_SEED = 7
POMDP_HORIZON = 5
POMDP_DISCOUNT = 0.95


def _random_row(rng: random.Random, width: int) -> list[float]:
    weights = [rng.uniform(0.05, 1.0) for _ in range(width)]
    total = sum(weights)
    return [w / total for w in weights]


def pomdp_document(seed: int) -> dict:
    """A `kind: pomdp` interchange document for the given seed."""
    n_states, n_actions, n_obs = POMDP_SHAPE
    base = random.Random(POMDP_STRUCTURE_SEED)
    trans = [[_random_row(base, n_states) for _ in range(n_actions)] for _ in range(n_states)]
    sensor = [_random_row(base, n_obs) for _ in range(n_states)]
    reward = [base.uniform(-5.0, 5.0) for _ in range(n_states)]

    rng = random.Random(f"pomdp:{seed}")
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-3.0, 3.0)
    label = [f"s{i}" for i in rng.sample(range(n_states), n_states)]
    actions = [f"a{i}" for i in range(n_actions)]
    observations = [f"o{i}" for i in range(n_obs)]
    return {
        "kind": "pomdp",
        "states": sorted(label),
        "actions": {label[s]: actions for s in range(n_states)},
        "observations": observations,
        "discount": POMDP_DISCOUNT,
        "transition": [
            {
                "state": label[s],
                "action": actions[a],
                "next": {label[t]: trans[s][a][t] for t in range(n_states)},
            }
            for s in range(n_states)
            for a in range(n_actions)
        ],
        "sensor": [
            {"state": label[s], "row": dict(zip(observations, sensor[s]))}
            for s in range(n_states)
        ],
        "reward": {label[s]: scale * reward[s] + shift for s in range(n_states)},
    }


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
