"""The names the benchmark harness patches, pinned at Tier-1.

``perfbench/tracer.py`` wraps module globals, class attributes and the
``CascadePlant.z`` property by name; a rename or a change of kind in
the package would fail every benchmark operation, and only the
benchmark's own tests would notice.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import slidingesc
import slidingesc.cli
import slidingesc.verify
from slidingesc.plant import CascadePlant


@pytest.fixture
def tracer(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
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
