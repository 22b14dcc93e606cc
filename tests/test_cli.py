"""Command line driver: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from declift.cli import Command, main
from declift.errors import InvalidParams
from declift.modelio import parse_model, serialize_model
from declift.models import GroundDecPomdp
from declift.lifting import LiftedDecPomdp

from test_solvers import count_based_team, random_team


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


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 1
    assert "error [parse]" in capsys.readouterr().err


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "/does/not/exist.json"]) == 1
    assert "error [io]" in capsys.readouterr().err


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


def test_ground_capacity_exit(desk_file, tmp_path, capsys):
    code = main(
        ["ground", desk_file, "--out", str(tmp_path / "g.json"), "--cap-joint", "1"]
    )
    assert code == 2
    assert "error [capacity]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_mdp(tmp_path, capsys):
    doc = {
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
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
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


# ---------------------------------------------------------------------------
# analyze-size


def test_analyze_size_paper_table(capsys):
    assert main(["analyze-size", "--preset", "paper"]) == 0
    out = capsys.readouterr().out
    assert "320010" in out
    assert "320005" in out


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


def test_command_invariants():
    with pytest.raises(InvalidParams):
        Command(name="solve")  # no input path
    with pytest.raises(InvalidParams):
        Command(name="solve", input_path="x.json", horizon=0)
    with pytest.raises(InvalidParams):
        Command(name="solve", input_path="x.json", epsilon=0.0)
    with pytest.raises(InvalidParams):
        Command(name="gen-nano", output_path="x.json")
    with pytest.raises(InvalidParams):
        Command(name="nope")

