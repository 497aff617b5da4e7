"""Tests of the benchmark itself: tracing is transparent, spans add up,
inputs follow the seed, and BENCHMARK.json names what run.py prints.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def se():
    return bench.import_program()


def short_runner(se, tmp_path, name="dense_log", seed=7, horizon=2.0):
    wl = bench.WORKLOADS[name]
    doc = bench.make_document(se, wl, seed)
    doc["sim"]["horizon"] = horizon
    doc["sim"]["log_stride"] = 1
    return bench.Runner(se, wl, doc, tmp_path)


def test_traced_run_is_byte_identical_and_restores_functions(se, tmp_path):
    runner = short_runner(se, tmp_path)
    targets = tr.targets(se)
    before = tr.snapshot(targets)
    plain = runner.op(traced=False)
    traced = runner.op(traced=True)
    assert plain.ok and traced.ok, (plain.reason, traced.reason)
    assert traced.digest == plain.digest
    assert tr.all_restored(before)
    originals = {(owner, attr): obj for owner, attr, obj in before}
    assert se.sim.controller_step is originals[(se.sim, "controller_step")]
    assert isinstance(se.plant.CascadePlant.__dict__["z"], property)


def test_traced_counts_and_spans_add_up(se, tmp_path):
    runner = short_runner(se, tmp_path)
    op = runner.op(traced=True)
    layers = op.layers
    assert layers["sim.steps"] == 2000
    assert layers["controller.step.calls"] == 2001
    assert layers["plant.derivative.calls"] == 2000
    assert layers["sim.log_rows"] == 2001
    assert layers["analysis.samples"] == 2001
    assert layers["controller.relay_flips"] > 0
    run_s = layers["sim.run_s"]
    self_s = layers["sim.loop_self_us"] * layers["sim.steps"] * 1e-6
    children = op.run_children
    assert math.isclose(sum(children.values()) + self_s, run_s, rel_tol=1e-9)
    assert math.isclose(layers["sim.children_s"], sum(children.values()),
                        rel_tol=1e-9)


def test_counts_repeat_at_a_fixed_seed(se, tmp_path):
    runner = short_runner(se, tmp_path, name="hover", seed=3)
    first, second = runner.op(traced=True), runner.op(traced=True)
    for key in ("sim.steps", "controller.relay_flips",
                "controller.steps_per_flip", "sim.log_rows",
                "output.csv_bytes"):
        assert first.layers[key] == second.layers[key], key


def test_tracer_self_time_subtracts_children():
    tracer = tr.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    with tracer.span("outer"):
        inner()
        inner()
    summary = tracer.summary()
    outer, inn = summary["outer"], summary["inner"]
    assert inn.calls == 2 and outer.calls == 1
    assert math.isclose(outer.self_s + inn.total_s, outer.total_s,
                        rel_tol=1e-12)


def test_inputs_follow_the_seed(se):
    shipped = se.scenario.builtin_scenario_dict("coupled_bowl")
    reach = bench.WORKLOADS["reach"]
    assert bench.make_document(se, reach, 0)["sim"]["x0"] == shipped["sim"]["x0"]
    assert bench.make_document(se, reach, 5) == bench.make_document(se, reach, 5)
    lo_r, hi_r = bench.REACH_RADII
    lo_a, hi_a = bench.REACH_ANGLES
    for seed in range(1, 50):
        x, y = bench.make_document(se, reach, seed)["sim"]["x0"]
        assert lo_r <= math.hypot(x, y) <= hi_r
        assert lo_a <= math.atan2(y, x) <= hi_a
    hover = bench.WORKLOADS["hover"]
    for seed in range(1, 50):
        x0 = bench.make_document(se, hover, seed)["sim"]["x0"]
        assert math.hypot(*x0) <= bench.HOVER_RADIUS


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == bench.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
