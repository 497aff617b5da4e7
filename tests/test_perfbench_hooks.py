"""The names the benchmark harness patches, pinned at Tier-1.

``perfbench/tracer.py`` wraps module globals, class attributes and the
``CascadePlant.z`` property by name; a rename or a change of kind in
the package would fail every benchmark operation, and only the
benchmark's own tests would notice.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import slidingesc
import slidingesc.cli
import slidingesc.verify
from slidingesc.plant import CascadePlant
from slidingesc.scenario import builtin_scenario_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    path = PERFBENCH / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(tracer):
    tracer.snapshot(tracer.targets(slidingesc))


def test_output_z_is_a_property():
    assert isinstance(CascadePlant.__dict__["z"], property)


def test_traced_run_records_its_spans(tracer, tmp_path):
    chosen = tracer.targets(slidingesc)
    originals = tracer.snapshot(chosen)
    spans = tracer.Tracer()
    with tracer.patched(spans, chosen):
        code = slidingesc.cli.main([
            "run", "--out", str(tmp_path), "--override", "sim.horizon=0.002",
            "--override", "sim.log_stride=1"])
    assert code == slidingesc.cli.EXIT_OK
    summary = spans.summary()
    assert summary["sim.run"].calls == 1
    assert summary["analysis.convergence_metrics"].calls == 1
    assert tracer.all_restored(originals)


def test_traced_python_run_records_plant_spans(tracer, tmp_path):
    # the reference loop steps a plant of its own; the spans patched on
    # CascadePlant still see every output read and every derivative
    chosen = tracer.targets(slidingesc)
    spans = tracer.Tracer()
    with tracer.patched(spans, chosen):
        code = slidingesc.cli.main([
            "run", "--out", str(tmp_path), "--backend", "python",
            "--override", "sim.horizon=0.002",
            "--override", "sim.log_stride=1"])
    assert code == slidingesc.cli.EXIT_OK
    summary = spans.summary()
    assert summary["plant.z"].calls == 3  # steps 0, 1 and 2
    assert summary["plant.derivative"].calls == 2


def test_setup_probe_prints_one_json_line(tmp_path):
    # the set-up probe loads a document, builds its plant and runs it
    # with the default backend in a fresh interpreter
    doc = builtin_scenario_dict("coupled_bowl")
    doc["sim"].update(horizon=0.002, log_stride=1)  # two steps
    path = tmp_path / "two_steps.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = Path(slidingesc.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(src),
         str(path)], capture_output=True, text=True, timeout=120, check=True)
    (line,) = done.stdout.splitlines()
    record = json.loads(line)
    assert set(record) == {"setup_s", "controller_step_calls"}
    assert record["setup_s"] > 0.0
    # the default backend, the chunked kernel, takes no python step
    assert record["controller_step_calls"] == 0
