"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from declift import modelio, nano, parse_model, pomdp_plan_iteration
from declift.cli import _plan_doc

import calibration
import inputs
import reference
import run
import tracer
import worker
from workloads import WORKLOADS, DeskH3

ROOT = Path(__file__).resolve().parent.parent


def test_desk_seed_zero_is_the_bundled_desk_model():
    text = modelio.serialize_model(nano.generate_nano(inputs.desk_params(0)))
    assert text == (ROOT / "models" / "nano_desk.json").read_text()


def test_inputs_repeat_for_a_seed_and_keep_their_shape_across_seeds():
    assert inputs.rates_document(3) == inputs.rates_document(3)
    assert inputs.pomdp_document(3) == inputs.pomdp_document(3)
    assert inputs.desk_params(3) == inputs.desk_params(3)
    assert inputs.rates_document(3) != inputs.rates_document(4)
    a, b = inputs.pomdp_document(3), inputs.pomdp_document(4)
    assert a["reward"] != b["reward"]
    assert [len(e["next"]) for e in a["transition"]] == [len(e["next"]) for e in b["transition"]]


@pytest.mark.parametrize("seed", range(5))
def test_rates_lie_strictly_inside_the_unit_interval(seed):
    rates = inputs.rates_document(seed)
    for name in ("marker_appear", "marker_persist", "assemble_prob", "false_positive",
                 "cross_type", "false_negative", "marker_initial", "discount"):
        assert 0.0 < rates[name] < 1.0


def test_pomdp_seeds_cost_the_same_plan_pools():
    pools = []
    for seed in range(3):
        stats: list = []
        model = parse_model(json.dumps(inputs.pomdp_document(seed)))
        pomdp_plan_iteration(model, inputs.POMDP_HORIZON, stats=stats)
        pools.append(stats)
    assert pools[0] == pools[1] == pools[2]


def test_wrappers_restore_the_original_functions():
    targets = [
        (importlib.import_module(module), attr) for module, attr, *_ in tracer.LAYERS
    ]
    before = [getattr(module, attr) for module, attr in targets]
    t = tracer.Tracer().install()
    assert all(getattr(m, a) is not f for (m, a), f in zip(targets, before))
    assert not t.missing
    t.restore()
    assert all(getattr(m, a) is f for (m, a), f in zip(targets, before))


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    t.spans = [("outer", 0.0, 10.0, None), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)]
    summary = t.summary()
    assert summary["self_s"] == {"outer": 6.0, "inner": 4.0}


def _traced_counts(workload):
    p = worker.run_pass(workload, traced=True)
    assert worker.check_pass(workload, p) == []
    return p.trace["counts"]


def test_in_process_counters_repeat_exactly(tmp_path):
    workload = DeskH3(0, tmp_path)
    first, second = _traced_counts(workload), _traced_counts(workload)
    assert first == second
    assert first["solvers.allocation_enumerations"] > 0
    assert first["solvers.joint_candidates"] == 16_384


def test_cli_counters_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    workload = WORKLOADS["cli-session"](1, tmp_path)
    first, second = _traced_counts(workload), _traced_counts(workload)
    assert first == second
    assert first["solvers.linprog_calls"] > 0
    assert first["modelio.bytes_read"] > 0 and first["modelio.bytes_written"] > 0


def test_checks_reject_wrong_answers(tmp_path):
    desk = DeskH3(0, tmp_path)
    assert desk.check("lifted", 3.24) is None
    assert desk.check("ground", 3.24 + 1e-6) is not None

    doc = inputs.pomdp_document(0)
    model = parse_model(json.dumps(doc))
    vectors = pomdp_plan_iteration(model, 2)
    solution = {
        "vectors": [
            {"plan": _plan_doc(v.plan, model.observations),
             "alpha": dict(zip(model.states, map(float, v.alpha)))}
            for v in vectors
        ]
    }
    ref = reference.PomdpReference(doc, horizon=2, seed=0)
    assert ref.check_solution(solution) is None
    alpha = solution["vectors"][0]["alpha"]
    alpha[next(iter(alpha))] += 1e-6
    assert ref.check_solution(solution) is not None
    assert ref.check_solution({"vectors": []}) is not None


def test_belief_search_matches_plan_vectors_at_the_corners():
    doc = inputs.pomdp_document(0)
    ref = reference.PomdpReference(doc, horizon=3, seed=0)
    model = parse_model(json.dumps(doc))
    vectors = np.stack([v.alpha for v in pomdp_plan_iteration(model, 3)])
    for corner in np.eye(len(ref.states)):
        assert np.max(vectors @ corner) == pytest.approx(ref.value(corner, 3), abs=1e-9)


def test_reported_metrics_are_the_ones_benchmark_json_declares(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "import_times", lambda: {"declift": 0.5, "scipy.optimize": 0.4})
    workload = DeskH3(0, tmp_path)
    passes = [worker.run_pass(workload, traced=traced) for traced in (False, True)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = worker.per_layer_metrics(workload, passes, [])
    assert {name: m["unit"] for name, m in per_layer.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }
    end_to_end = run.end_to_end_metrics(worker.end_to_end_metrics(1.0), [(1.0, 1.0)], [0.5])
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}


def test_set_ups_are_scaled_by_the_slices_on_either_side(monkeypatch):
    # slices of 0.01, 0.02, 0.04, ... s per probe; CPU seconds equal the wall seconds
    walls = iter(calibration.REFERENCE_S * 2.0**i for i in range(20))
    monkeypatch.setattr(calibration, "slice_seconds", lambda: (w := next(walls), w))
    cal = run.Calibrated(start_worker=lambda: 1.0)  # 0.01, before the worker
    cal.on_wait(None)  # 0.02
    cal.on_wait(0.2)  # 0.04, then two set-ups, each followed by a slice (0.08, 0.16)
    assert cal.waits == [1, 2]
    # one set-up second, between slices of 0.04 and 0.08, then 0.08 and 0.16
    assert cal.setups == [pytest.approx(0.01 / 0.06), pytest.approx(0.01 / 0.12)]


def test_cli_operations_are_scaled_by_the_slices_near_them():
    cal = run.Calibrated.__new__(run.Calibrated)
    # (start time, wall, CPU) per probe; the worker waited at each slice
    cal.slices = [(0.0, 0.01, 0.01), (1.0, 0.02, 0.02), (20.0, 0.04, 0.04), (22.0, 0.08, 0.08)]
    cal.waits = [0, 1, 2, 3]
    [(wall, cpu)] = cal.pass_seconds([[(0.3, 0.3, None), (0.6, 0.6, None), (1.2, 1.2, None)]])
    # within 5 s of each: slices 0-1, all four, slices 2-3; scaled to 0.01 s per probe
    assert wall == cpu == pytest.approx(0.003 / 0.015 + 0.006 / 0.0375 + 0.012 / 0.06)
    # a probed operation comes scaled already
    assert cal.pass_seconds([[(9.0, 9.0, (1.0, 2.0))]]) == [(1.0, 2.0)]
    with pytest.raises(run.BenchError):
        cal.pass_seconds([[(0.3, 0.3, None)]])


def test_probes_inside_an_operation_are_taken_out_of_its_time(monkeypatch):
    probes = iter([(0.02, 0.01), (0.01, 0.01), (0.03, 0.01)])
    monkeypatch.setattr(calibration, "probe", lambda: next(probes))
    monkeypatch.setattr(calibration, "PROBE_INTERVAL_S", 100.0)
    with calibration.Prober() as prober:  # one probe before the operation
        prober._on_alarm(None, None)
        prober._on_alarm(None, None)
    # 1.04 s less the two probes inside, at a mean probe of 0.02 s
    assert prober.scale(1.04, 0.52) == pytest.approx((1.0 * 0.01 / 0.02, 0.5 * 0.01 / 0.01))


def test_prober_probes_on_its_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Prober() as prober:
        deadline = time.perf_counter() + 3 * calibration.PROBE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(prober.probes) >= 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
