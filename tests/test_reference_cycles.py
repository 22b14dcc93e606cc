"""The library builds no reference cycles.

Each solver and compiler runs here with CPython's cyclic collector off;
a call that returns must leave nothing that only `gc.collect()` could
free, so reference counting alone releases its working set (memo,
allocation kernels, plan pools) when it returns.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from declift.cli import main
from declift.errors import CapacityExceeded
from declift.lifting import ground, lift, range_partition, symmetry_refine
from declift.modelio import parse_model, serialize_model
from declift.nano import generate_nano, nano_desk_preset
from declift.solvers import (
    decpomdp_exhaustive,
    lifted_exhaustive,
    mdp_value_iteration,
    pomdp_plan_iteration,
    verify_equivalence,
)
from test_solvers import random_lifted, random_mdp, random_pomdp


def unreachable_after(call):
    """Objects the cyclic collector finds after `call()` with it off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


DESK = generate_nano(nano_desk_preset())
DESK_GROUND = ground(DESK)
DESK_TEXT = serialize_model(DESK)
TWO_PARTITIONS = random_lifted(np.random.default_rng(5), sizes=(3, 2))
PAIR_GROUND = ground(random_lifted(np.random.default_rng(6), sizes=(2,)))


def refine_and_lift():
    candidate = range_partition(DESK_GROUND)
    lift(DESK_GROUND, symmetry_refine(DESK_GROUND, candidate))


CALLS = {
    "generate_nano": lambda: generate_nano(nano_desk_preset()),
    "ground": lambda: ground(DESK),
    "symmetry_refine and lift": refine_and_lift,
    "parse_model": lambda: parse_model(DESK_TEXT),
    "serialize_model": lambda: serialize_model(DESK_GROUND),
    "decpomdp_exhaustive": lambda: decpomdp_exhaustive(DESK_GROUND, 2),
    "pomdp_plan_iteration": lambda: pomdp_plan_iteration(
        random_pomdp(np.random.default_rng(0), n_actions=3), 3
    ),
    "mdp_value_iteration": lambda: mdp_value_iteration(random_mdp(np.random.default_rng(0))),
    "verify_equivalence ground": lambda: verify_equivalence(PAIR_GROUND, 2),
    "verify_equivalence lifted": lambda: verify_equivalence(DESK, 2),
}
for horizon in (1, 2, 3):
    for peak_only in (False, True):
        CALLS[f"lifted_exhaustive h{horizon} peak_only={peak_only}"] = (
            lambda h=horizon, p=peak_only: lifted_exhaustive(DESK, h, peak_only=p)
        )
CALLS["lifted_exhaustive two partitions h2"] = lambda: lifted_exhaustive(TWO_PARTITIONS, 2)
# the h3 root values each candidate from its memoised scalar terms
for sizes in ((1, 1), (2,)):
    generated = random_lifted(np.random.default_rng(7), sizes=sizes)
    for peak_only in (False, True):
        CALLS[f"lifted_exhaustive {sizes} h3 peak_only={peak_only}"] = (
            lambda m=generated, p=peak_only: lifted_exhaustive(m, 3, peak_only=p)
        )


@pytest.mark.parametrize("name", list(CALLS))
def test_a_call_leaves_nothing_for_the_cyclic_collector(name):
    assert unreachable_after(CALLS[name]) == 0


def test_a_refused_lifted_search_leaves_nothing_for_the_cyclic_collector():
    # the joint-class cap is checked after the per-partition walk: each of
    # the four partitions has 8 plan multisets, and 2**4 classes exceed 8
    singletons = random_lifted(np.random.default_rng(7), sizes=(1, 1, 1, 1))

    def refused():
        with pytest.raises(CapacityExceeded, match="joint action histogram classes"):
            lifted_exhaustive(singletons, 2, cap_joint=8)

    assert unreachable_after(refused) == 0


MODELS = Path(__file__).resolve().parents[1] / "models"


@pytest.mark.parametrize("command", ["solve", "verify-equivalence"])
def test_a_solving_command_leaves_only_the_argument_parser(command, capsys):
    # argparse's parser is cyclic; a command that runs no solver leaves it too
    def run(*argv):
        return lambda: main(list(argv))

    parser_only = unreachable_after(run("analyze-size", "--preset", "paper"))
    solving = unreachable_after(run(command, str(MODELS / "nano_desk.json"), "--horizon", "3"))
    assert 0 < solving == parser_only
