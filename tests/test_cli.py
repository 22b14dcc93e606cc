"""Command line driver: exit codes, artifacts, determinism."""

import gc
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from declift.cli import main
from declift.modelio import parse_model, serialize_model
from declift.models import (
    DiscreteDistribution,
    GroundDecPomdp,
    Mdp,
    Pomdp,
    StateSpace,
    validate_model,
)
from declift.lifting import LiftedDecPomdp

from test_solvers import count_based_team, random_pomdp, random_team

CHAIN_MDP = {
    "kind": "mdp",
    "states": ["s0", "s1"],
    "actions": {"s0": ["stay", "hop"], "s1": ["stay"]},
    "discount": 0.9,
    "transition": [
        {"state": "s0", "action": "stay", "next": {"s0": 1.0}},
        {"state": "s0", "action": "hop", "next": {"s1": 1.0}},
        {"state": "s1", "action": "stay", "next": {"s1": 1.0}},
    ],
    "reward": {"s0": 0.0, "s1": 1.0},
}


@pytest.fixture
def team_file(tmp_path):
    path = tmp_path / "team.json"
    path.write_text(serialize_model(count_based_team()))
    return str(path)


@pytest.fixture
def desk_file(tmp_path):
    path = tmp_path / "desk.json"
    assert main(["gen-nano", "--preset", "desk", "--out", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(team_file, capsys):
    assert main(["validate", team_file]) == 0
    assert "decpomdp" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(serialize_model(count_based_team()))
    doc["discount"] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "discount" in capsys.readouterr().out


def test_validate_requires_every_action_in_every_pomdp_state(tmp_path, capsys):
    # the agent cannot see the state, so solving needs a row for every
    # action in every state; state "b" lacks action "y"
    states = StateSpace(("a", "b"))
    model = Pomdp(
        states=states,
        actions={"a": ("x", "y"), "b": ("x",)},
        transition={
            ("a", "x"): DiscreteDistribution([1.0, 0.0]),
            ("a", "y"): DiscreteDistribution([0.0, 1.0]),
            ("b", "x"): DiscreteDistribution([0.5, 0.5]),
        },
        reward={"a": 0.0, "b": 1.0},
        discount=0.9,
        observations=("o",),
        sensor={s: DiscreteDistribution([1.0]) for s in states},
    )
    assert validate_model(model).codes() == ["range"]
    path = tmp_path / "pomdp.json"
    path.write_text(serialize_model(model))
    assert main(["validate", str(path)]) == 1
    assert "state 'b' declares actions ('x',), not all of ('x', 'y')" in capsys.readouterr().out
    # an MDP keeps its per-state ranges
    mdp = Mdp(model.states, model.actions, model.transition, model.reward, model.discount)
    assert validate_model(mdp).ok


def test_validate_reports_missing_rows_in_declaration_order(tmp_path):
    # a 3-state, 2-action MDP without (s0, a1) and (s2, a0): the report
    # must not follow the hash order of strings, which PYTHONHASHSEED sets
    states = ["s0", "s1", "s2"]
    missing = {("s0", "a1"), ("s2", "a0")}
    doc = {
        "kind": "mdp",
        "states": states,
        "actions": {s: ["a0", "a1"] for s in states},
        "discount": 0.9,
        "transition": [
            {"state": s, "action": a, "next": {"s0": 1.0}}
            for s in states
            for a in ("a0", "a1")
            if (s, a) not in missing
        ],
        "reward": {s: 0.0 for s in states},
    }
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(doc))
    outputs = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "declift.cli", "validate", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(_child_env(), PYTHONHASHSEED=str(seed)),
        )
        assert proc.returncode == 1
        outputs.add(proc.stdout)
    assert outputs == {
        "[missing-row] no transition row for ('s0', 'a1')\n"
        "[missing-row] no transition row for ('s2', 'a0')\n"
    }


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 1
    assert "error [parse]" in capsys.readouterr().err


def test_validate_an_int_beyond_the_float_range_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps({**CHAIN_MDP, "discount": 10**400}))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error [schema]: mdp.discount: integer beyond the float range\n"
    )


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "/does/not/exist.json"]) == 1
    assert "error [io]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, model_error, rates_error",
    [
        (b'\xff\xfe{"kind": "mdp"}', "[parse]: ", "[parse]: "),
        (b"[" * 100_000 + b"]" * 100_000, "[parse]: not valid JSON: ", "[schema]: rates file"),
    ],
    ids=["not-utf8", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["validate", "gen-nano"])
def test_an_unreadable_input_file_is_one_error_line(
    tmp_path, capsys, command, content, model_error, rates_error
):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if command == "validate":
        argv, message = ["validate", str(path)], model_error
    else:
        argv = ["gen-nano", "--rates", str(path), "--out", str(tmp_path / "m.json")]
        message = rates_error
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "m.json").exists()
    if content.startswith(b"\xff"):
        assert f"{path} is not UTF-8 text" in captured.err


# ---------------------------------------------------------------------------
# gen-nano


def test_gen_nano_desk_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-nano", "--preset", "desk", "--out", str(a)]) == 0
    assert main(["gen-nano", "--preset", "desk", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    model = parse_model(a.read_text())
    assert isinstance(model, LiftedDecPomdp)


def test_gen_nano_paper_falls_back_to_size_params(tmp_path, capsys):
    path = tmp_path / "paper.json"
    assert main(["gen-nano", "--preset", "paper", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "size-params"
    assert doc["agents"] == 320000
    assert doc["partitions"] == 5
    assert "above capacity" in capsys.readouterr().out


def test_gen_nano_flags_override_preset(tmp_path):
    path = tmp_path / "two.json"
    code = main(
        ["gen-nano", "--preset", "desk", "--kappa", "2", "--out", str(path)]
    )
    assert code == 0
    model = parse_model(path.read_text())
    # two marker partitions plus one message partition
    assert len(model.partitioning.blocks) == 3


def test_gen_nano_rates_file(tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text('{"false_negative": 0.25}')
    out = tmp_path / "m.json"
    args = ["gen-nano", "--preset", "desk", "--rates", str(rates), "--out", str(out)]
    assert main(args) == 0
    noisy = out.read_text()
    assert main(["gen-nano", "--preset", "desk", "--out", str(out)]) == 0
    assert noisy != out.read_text()


def test_gen_nano_rejects_unknown_rate(tmp_path, capsys):
    rates = tmp_path / "rates.json"
    rates.write_text('{"turbo": 1}')
    out = tmp_path / "m.json"
    code = main(["gen-nano", "--rates", str(rates), "--out", str(out)])
    assert code == 1
    assert "turbo" in capsys.readouterr().err


def test_gen_nano_rates_cannot_set_flag_fields(tmp_path, capsys):
    rates = tmp_path / "rates.json"
    rates.write_text('{"marker_types": 2, "discount": 0.5}')
    code = main(["gen-nano", "--rates", str(rates), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "rates file has unknown fields: marker_types\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"discount": 0.5', "rates file is not valid JSON: "),
        ('[{"discount": 0.5}]', "rates file must hold one JSON object\n"),
    ],
)
def test_gen_nano_rejects_a_rates_file_that_is_not_an_object(tmp_path, capsys, text, message):
    rates = tmp_path / "rates.json"
    rates.write_text(text)
    code = main(["gen-nano", "--rates", str(rates), "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert f"error [schema]: {message}" in capsys.readouterr().err


def test_gen_nano_rejects_bad_params(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["gen-nano", "--kappa", "0", "--out", str(out)]) == 1
    assert "error [invalid-params]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lift / ground


def test_lift_then_ground_round_trip(team_file, tmp_path):
    lifted_path = tmp_path / "lifted.json"
    ground_path = tmp_path / "ground.json"
    assert main(["lift", team_file, "--out", str(lifted_path)]) == 0
    lifted = parse_model(lifted_path.read_text())
    assert lifted.partitioning.sizes == (2,)
    assert main(["ground", str(lifted_path), "--out", str(ground_path)]) == 0
    back = parse_model(ground_path.read_text())
    original = count_based_team()
    assert isinstance(back, GroundDecPomdp)
    assert back.agents == original.agents
    for key, dist in original.transition.items():
        assert np.allclose(back.transition[key].probs, dist.probs, atol=1e-12)


def test_lift_rejects_wrong_kind(desk_file, tmp_path, capsys):
    assert main(["lift", desk_file, "--out", str(tmp_path / "x.json")]) == 1
    assert "error [invalid-params]" in capsys.readouterr().err


def test_ground_rejects_wrong_kind(team_file, tmp_path, capsys):
    assert main(["ground", team_file, "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "error [invalid-params]: ground needs a lifted-decpomdp document" in err


def test_ground_capacity_exit(desk_file, tmp_path, capsys):
    code = main(
        ["ground", desk_file, "--out", str(tmp_path / "g.json"), "--cap-joint", "1"]
    )
    assert code == 2
    assert "error [capacity]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_mdp(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_MDP))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    solution = json.loads(out.read_text())
    assert solution["model_kind"] == "mdp"
    assert solution["policy"]["s0"] == "hop"
    assert solution["values"]["s1"] == pytest.approx(10.0, abs=1e-5)
    assert "play hop" in capsys.readouterr().out


def test_solve_lifted_desk(desk_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", desk_file, "--horizon", "3", "--out", str(out)]) == 0
    solution = json.loads(out.read_text())
    assert solution["value"] == pytest.approx(3.24, abs=1e-9)
    assert solution["model_kind"] == "lifted-decpomdp"
    assert "3.24" in capsys.readouterr().out
    # determinism: a second run writes identical bytes
    first = out.read_bytes()
    assert main(["solve", desk_file, "--horizon", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_solve_peak_only_matches_on_desk(desk_file, tmp_path):
    full = tmp_path / "full.json"
    peak = tmp_path / "peak.json"
    assert main(["solve", desk_file, "--horizon", "3", "--out", str(full)]) == 0
    code = main(
        ["solve", desk_file, "--horizon", "3", "--peak-only", "--out", str(peak)]
    )
    assert code == 0
    v_full = json.loads(full.read_text())["value"]
    v_peak = json.loads(peak.read_text())["value"]
    assert v_peak == pytest.approx(v_full, abs=1e-12)


def test_solve_ground_team(team_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", team_file, "--horizon", "2", "--out", str(out)]) == 0
    solution = json.loads(out.read_text())
    assert solution["model_kind"] == "decpomdp"
    assert len(solution["policy"]) == 2
    assert all(entry["plans"][0]["count"] == 1 for entry in solution["policy"])


def test_solve_needs_horizon_for_team_models(team_file, capsys):
    assert main(["solve", team_file]) == 1
    assert "horizon" in capsys.readouterr().err


def test_solve_capacity_exit(desk_file, capsys):
    code = main(["solve", desk_file, "--horizon", "3", "--cap-joint", "5"])
    assert code == 2
    assert "error [capacity]" in capsys.readouterr().err


ONE_STATE_POMDP = {
    "kind": "pomdp",
    "states": ["s"],
    "actions": {"s": ["a"]},
    "observations": ["o"],
    "discount": 0.9,
    "transition": [{"state": "s", "action": "a", "next": {"s": 1.0}}],
    "sensor": [{"state": "s", "row": {"o": 1.0}}],
    "reward": {"s": 1.0},
}


@pytest.mark.parametrize(
    "name, flags",
    [
        ("mdp", []),
        ("pomdp", ["--horizon", "2"]),
        ("nano_desk", ["--horizon", "3"]),
        ("nano_desk_ground", ["--horizon", "3"]),
    ],
)
def test_solve_refuses_rewards_whose_values_leave_the_float_range(name, flags, tmp_path, capsys):
    # at 1e308 a value sum overflows: value iteration never met its stopping
    # rule, and the others wrote inf or nan into a document JSON rejects
    if name in ("mdp", "pomdp"):
        doc = dict(ONE_STATE_POMDP)
        if name == "mdp":
            doc = {**doc, "kind": "mdp"}
            del doc["observations"], doc["sensor"]
    else:
        models = Path(__file__).resolve().parents[1] / "models"
        doc = json.loads((models / f"{name}.json").read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**doc, "reward": {s: 1e308 for s in doc["reward"]}}))
    out = tmp_path / "solution.json"
    start = time.perf_counter()
    assert main(["solve", str(path), *flags, "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [validation]: rewards up to 1e+308 summed over ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_solve_at_a_horizon_beyond_the_float_range_meets_its_cap(desk_file, capsys):
    assert main(["solve", desk_file, "--horizon", str(10**400)]) == 2
    assert "error [capacity]" in capsys.readouterr().err


# the optional flags solve reads per model kind; --horizon is passed to every
# kind but the MDP, which it does not read
SOLVE_READS = {
    "mdp": {"--epsilon"},
    "pomdp": {"--horizon", "--cap-plans"},
    "decpomdp": {"--horizon", "--cap-plans", "--cap-joint"},
    "lifted-decpomdp": {"--horizon", "--peak-only", "--cap-plans", "--cap-joint"},
}
SOLVE_FLAGS = {
    "--horizon": ["--horizon", "1"],
    "--epsilon": ["--epsilon", "1e-6"],
    "--peak-only": ["--peak-only"],
    "--cap-plans": ["--cap-plans", "1000000"],
    "--cap-joint": ["--cap-joint", "10000000"],
}


@pytest.fixture
def kind_files(tmp_path, team_file, desk_file):
    mdp = tmp_path / "chain.json"
    mdp.write_text(json.dumps(CHAIN_MDP))
    pomdp = tmp_path / "pomdp.json"
    pomdp.write_text(serialize_model(random_pomdp(np.random.default_rng(0))))
    return {
        "mdp": str(mdp),
        "pomdp": str(pomdp),
        "decpomdp": team_file,
        "lifted-decpomdp": desk_file,
    }


@pytest.mark.parametrize("flag", SOLVE_FLAGS)
@pytest.mark.parametrize("kind", SOLVE_READS)
def test_solve_refuses_flags_its_model_kind_does_not_read(kind, flag, kind_files, capsys):
    base = ["solve", kind_files[kind]]
    if kind != "mdp":
        base += SOLVE_FLAGS["--horizon"]
    assert main(base) == 0
    plain = capsys.readouterr()
    if flag == "--horizon" and kind != "mdp":
        return
    code = main(base + SOLVE_FLAGS[flag])
    captured = capsys.readouterr()
    if flag in SOLVE_READS[kind]:
        # a read flag given at its default value changes nothing
        assert code == 0
        assert captured.out == plain.out and captured.err == ""
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error [invalid-params]: solve does not read {flag} on {kind} models\n"
        )


def test_solve_names_every_unread_flag_in_declaration_order(kind_files, capsys):
    argv = ["solve", kind_files["mdp"], "--cap-joint", "3", "--peak-only", "--horizon", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error [invalid-params]: solve does not read --horizon, --peak-only, "
        "--cap-joint on mdp models\n"
    )


def _child_env() -> dict:
    """The environment of a child Python that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    return env


def _run_with_closed_stdout(argv, buffered):
    # the read end of stdout's pipe is closed before the command starts, as
    # when `declift ... | head -2` has already taken its lines
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "declift.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_ends_quietly_and_keeps_the_document(team_file, tmp_path, buffered):
    out = tmp_path / "sol.json"
    code, err = _run_with_closed_stdout(
        ["solve", team_file, "--horizon", "2", "--out", str(out)], buffered
    )
    assert (code, err) == (0, "")
    reference = tmp_path / "reference.json"
    assert main(["solve", team_file, "--horizon", "2", "--out", str(reference)]) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    doc = json.loads(serialize_model(count_based_team()))
    doc["discount"] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _run_with_closed_stdout(["validate", str(path)], buffered=False) == (1, "")


def test_an_in_process_call_keeps_the_collector_and_freezes_nothing(team_file, capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["validate", team_file]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# two `main` calls in one process, with `gc.freeze` counted; a probe
# registered before them runs after their exit hooks and reports on stderr
_FREEZE_PROBE = """
import atexit, gc, sys
freezes = []
freeze = gc.freeze
gc.freeze = lambda: freezes.append(freeze())
atexit.register(lambda: print(len(freezes), gc.get_freeze_count() > 0, file=sys.stderr))
from declift.cli import main
for _ in range(2):
    main(sys.argv[1:])
"""


def test_a_process_that_calls_main_freezes_its_heap_once_at_exit(team_file):
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, "validate", team_file],
        capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
    )
    assert proc.stdout == "ok: decpomdp with 2 states, 2 agents\n" * 2
    assert proc.stderr == "1 True\n"


# ---------------------------------------------------------------------------
# analyze-size


def test_analyze_size_paper_table(capsys):
    assert main(["analyze-size", "--preset", "paper"]) == 0
    out = capsys.readouterr().out
    assert "320010" in out
    assert "320005" in out


# `python -m declift.cli ARGS`, run by runpy as `-m` runs it, that lists
# the modules it loaded on stderr when it exits
_LIST_MODULES_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
runpy.run_module("declift.cli", run_name="__main__", alter_sys=True)
"""


def _cli_loads(argv) -> tuple[str, set]:
    """(stdout, names of the loaded modules) of one CLI process."""
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES_AT_EXIT, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
    )
    return proc.stdout, set(proc.stderr.split())


def test_analyze_size_of_a_preset_loads_no_numpy():
    out, modules = _cli_loads(["analyze-size", "--preset", "paper"])
    assert out == (
        "instance: 32 states, 320000 agents, 5 partitions of 64000\n"
        "form             log2(transition)         log2(sensor)\n"
        "ground                     320010               320005\n"
        "lifted         169.65784284662087   164.65784284662087\n"
        "peak-shaped                    15                   10\n"
        "exact keys per partition (actions/observations): "
        + ", ".join(["64001/64001"] * 5)
        + "\n"
    )
    assert "declift.sizes" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("command", ["validate", "gen-nano", "ground", "lift"])
def test_commands_that_solve_nothing_load_no_solver(command, tmp_path):
    models = Path(__file__).resolve().parents[1] / "models"
    out = str(tmp_path / "out.json")
    argv = {
        "validate": ["validate", str(models / "nano_desk.json")],
        "gen-nano": ["gen-nano", "--preset", "desk", "--out", out],
        "ground": ["ground", str(models / "nano_desk.json"), "--out", out],
        "lift": ["lift", str(models / "nano_desk_ground.json"), "--out", out],
    }[command]
    _out, modules = _cli_loads(argv)
    assert "declift.models" in modules
    assert "declift.solvers" not in modules
    # numpy loads numpy.ma (about 10 ms and 2 MiB) on a plain np.unique call
    assert "numpy.ma" not in modules


def test_a_wrapper_set_on_the_cli_is_what_its_handler_calls(team_file, monkeypatch):
    # the benchmark tracer wraps library functions as attributes of declift.cli
    import declift.cli

    calls = []
    original = declift.cli.parse_model

    def wrapper(text):
        calls.append(len(text))
        return original(text)

    monkeypatch.setattr(declift.cli, "parse_model", wrapper)
    assert main(["validate", team_file]) == 0
    assert calls == [len(Path(team_file).read_text())]


def test_analyze_size_on_model_file(desk_file, tmp_path, capsys):
    out = tmp_path / "sizes.json"
    assert main(["analyze-size", desk_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "size-report"
    assert doc["params"]["partitions"] == 2
    assert "log2(transition)" in capsys.readouterr().out


def test_analyze_size_needs_exactly_one_source(team_file, capsys):
    assert main(["analyze-size"]) == 1
    assert main(["analyze-size", team_file, "--preset", "paper"]) == 1


# ---------------------------------------------------------------------------
# verify-equivalence


def test_verify_equivalence_symmetric_team(team_file, tmp_path, capsys):
    out = tmp_path / "eq.json"
    code = main(
        ["verify-equivalence", team_file, "--horizon", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert abs(doc["delta"]) < 1e-9
    assert doc["ground_value"] == pytest.approx(doc["lifted_value"], abs=1e-9)
    assert "pass:          yes" in capsys.readouterr().out


def test_verify_equivalence_lifted_input(desk_file):
    assert main(["verify-equivalence", desk_file, "--horizon", "3"]) == 0


def test_verify_equivalence_asymmetric_raises_not_liftable(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = tmp_path / "asym.json"
    path.write_text(serialize_model(random_team(rng)))
    assert main(["verify-equivalence", str(path), "--horizon", "2"]) == 1
    err = capsys.readouterr().err
    assert "error [not-liftable]" in err
    assert "a0" in err and "a1" in err


def test_verify_equivalence_single_agent_passes(tmp_path):
    model = count_based_team(n_agents=1)
    path = tmp_path / "solo.json"
    path.write_text(serialize_model(model))
    assert main(["verify-equivalence", str(path), "--horizon", "2"]) == 0


# ---------------------------------------------------------------------------
# command construction


def test_usage_error_exits_one(desk_file, team_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing input positional
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    # caps are offered only where an enumeration reads them
    out = str(tmp_path / "x.json")
    for argv in (
        ["lift", team_file, "--out", out, "--cap-plans", "5"],
        ["lift", team_file, "--out", out, "--cap-joint", "5"],
        ["gen-nano", "--preset", "desk", "--out", out, "--cap-plans", "5"],
        ["ground", desk_file, "--out", out, "--cap-plans", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_command_invariants(tmp_path, capsys):
    # value checks run before the handler opens its input
    missing = str(tmp_path / "x.json")
    for argv, message in (
        (["solve", missing, "--horizon", "0"], "horizon must be an integer >= 1"),
        (["solve", missing, "--epsilon", "0"], "epsilon must be positive"),
        (["solve", missing, "--horizon", "1", "--cap-plans", "0"], "caps must be positive"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error [invalid-params]: {message}\n"
    for argv, message in (
        (["solve"], "the following arguments are required: input"),
        (["nope"], "argument SUBCOMMAND: invalid choice: 'nope'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"error [usage]: {message}" in capsys.readouterr().err


def test_gen_nano_reports_generator_errors_before_caps(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    assert main(["gen-nano", "--kappa", "0", "--cap-joint", "0", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error [invalid-params]: marker_types must be >= 1, got 0\n"
    assert main(["gen-nano", "--cap-joint", "0", "--out", out]) == 1
    assert capsys.readouterr().err == "error [invalid-params]: caps must be positive\n"


def test_tracer_wrap_points_resolve():
    # the benchmark tracer wraps these names where the CLI looks them up, so
    # a refactor that unbinds one would silently drop its metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    unbound = [
        (module, attr)
        for module, attr, *_ in tracer.LAYERS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert unbound == []

