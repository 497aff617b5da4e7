#!/usr/bin/env python3
"""Closed-loop benchmark of slidingesc.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reach --seed 0 --seconds 20 --trace 0

Runs one workload against the package source in ``src/`` for the given
number of seconds, one operation at a time in this one process (a closed
loop: no pool, no jobs), checks every operation's outputs, and prints
each metric with its unit and sample count.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Per-layer numbers come from
spans recorded around the package's public functions (see
``tracer.py``); the package itself is not modified.

Exit status: 0 when every check passed, 1 when an operation failed, 2
when the package source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

DEFAULT_SEED = 0
# Set-up probes take this share of an untraced run, spread between the
# operations so that they sample the same stretch of machine time.
PROBE_SHARE = 0.12
MIN_PROBES = 7
PROBE_TIMEOUT_S = 60
BACKEND = "auto"
# Draws per oracle operation: two 100-point numeric oracles, the
# controller invariants and the composition check.
INVARIANT_DRAWS = 1000
COMPOSITION_DRAWS = 200
ORACLE_DRAWS = 100 + 100 + INVARIANT_DRAWS + COMPOSITION_DRAWS

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("scenario.load_s", "s", "lower"),
    ("plant.build_s", "s", "lower"),
    ("plant.check_hypotheses_s", "s", "lower"),
    ("sim.dt_guard_s", "s", "lower"),
    ("plant.map_eval.calls", "count", "lower"),
    ("plant.map_eval.us", "us", "lower"),
    ("plant.z.calls", "count", "lower"),
    ("plant.z.us", "us", "lower"),
    ("plant.derivative.calls", "count", "lower"),
    ("plant.derivative.us", "us", "lower"),
    ("controller.step.calls", "count", "lower"),
    ("controller.step.us", "us", "lower"),
    ("controller.cyclic_direction.calls", "count", "lower"),
    ("controller.cyclic_direction.us", "us", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.children_s", "s", "lower"),
    ("sim.loop_self_us", "us", "lower"),
    ("controller.relay_flips", "count", "lower"),
    ("controller.dir_changes", "count", "lower"),
    ("controller.steps_per_flip", "steps", "higher"),
    ("controller.t_ref_saturated", "s", "lower"),
    ("sim.log_rows", "count", "lower"),
    ("sim.log_bytes", "bytes-computed", "lower"),
    ("analysis.convergence_metrics_s", "s", "lower"),
    ("analysis.detect_sliding_s", "s", "lower"),
    ("analysis.samples", "count", "lower"),
    ("analysis.sliding_segments", "count", "higher"),
    ("output.csv_s", "s", "lower"),
    ("output.csv_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("plant.gradient.calls", "count", "lower"),
    ("plant.gradient.us", "us", "lower"),
    ("analysis.fd_oracle_s", "s", "lower"),
    ("verify.oracle_suite_s", "s", "lower"),
    ("verify.composition_s", "s", "lower"),
    ("analysis.residual_amp", "y-units", "lower"),
    ("analysis.t_reach_delta", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Span names whose call count and mean inclusive time are reported.
PER_CALL = ("plant.map_eval", "plant.z", "plant.derivative", "controller.step",
            "controller.cyclic_direction", "plant.gradient")
# Reported as the total of their spans in one operation.
SPAN_TOTALS = {
    "scenario.load_s": "scenario.load",
    "plant.build_s": "plant.build",
    "plant.check_hypotheses_s": "plant.check_hypotheses",
    "sim.dt_guard_s": "sim.dt_guard",
    "analysis.convergence_metrics_s": "analysis.convergence_metrics",
    "analysis.detect_sliding_s": "analysis.detect_sliding",
    "analysis.fd_oracle_s": "analysis.fd_oracle",
    "output.csv_s": "output.csv",
    "verify.oracle_suite_s": "verify.oracle_suite",
    "verify.composition_s": "verify.composition",
}
METRICS_KEYS = {"t_reach_delta", "residual_amp", "mean_residual",
                "sliding_segments", "bounded"}


# --------------------------------------------------------------- inputs

# reach / dense_log: z0 on the annulus sector spanned by the two shipped
# starts (-2, 4) and (0, 5): radius between their norms, angle between
# their directions.  Every start in it approaches along the ramp, slides,
# and enters the vicinity between t = 195 s and 210 s.
REACH_RADII = (math.hypot(-2.0, 4.0), math.hypot(0.0, 5.0))
REACH_ANGLES = (math.atan2(5.0, 0.0), math.atan2(4.0, -2.0))
# hover: x0 uniform in the disc of half the vicinity radius
# sqrt(epsilon_sw) = 0.141 around the maximizer.
HOVER_RADIUS = 0.07
# oracles: coupling of the benchmark bowl, concave for |c| < 1.
ORACLE_COUPLING = (0.2, 0.8)


def _reach_start(doc: dict, rng: random.Random) -> None:
    r = rng.uniform(*REACH_RADII)
    a = rng.uniform(*REACH_ANGLES)
    doc["sim"]["x0"] = [r * math.cos(a), r * math.sin(a)]


def _hover_start(doc: dict, rng: random.Random) -> None:
    r = HOVER_RADIUS * math.sqrt(rng.random())
    a = rng.uniform(0.0, 2.0 * math.pi)
    zs = doc["plant"]["map"]["z_star"]
    doc["sim"]["x0"] = [zs[0] + r * math.cos(a), zs[1] + r * math.sin(a)]


def _oracle_plant(doc: dict, rng: random.Random) -> None:
    doc["plant"]["map"]["coupling"] = rng.uniform(*ORACLE_COUPLING)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                    # builtin scenario the input starts from
    draw: Callable[[dict, random.Random], None]
    horizon: Optional[float] = None  # None: no closed loop
    log_stride: int = 100

    @property
    def is_sim(self) -> bool:
        return self.horizon is not None


WORKLOADS = {
    w.name: w for w in (
        Workload("reach", "coupled_bowl", _reach_start, 240.0, 100),
        Workload("hover", "residual_sweep", _hover_start, 100.0, 100),
        Workload("dense_log", "coupled_bowl", _reach_start, 50.0, 1),
        Workload("oracles", "coupled_bowl", _oracle_plant),
    )
}


def make_document(se, wl: Workload, seed: int) -> dict:
    """The scenario document of one workload and seed.

    The default seed keeps the shipped scenario's start (or plant);
    other seeds draw it from the stated set.
    """
    doc = se.scenario.builtin_scenario_dict(wl.scenario)
    if seed != DEFAULT_SEED:
        wl.draw(doc, random.Random(seed))
    if wl.is_sim:
        doc["sim"]["horizon"] = wl.horizon
        doc["sim"]["log_stride"] = wl.log_stride
    return doc


def n_steps(doc: dict) -> int:
    return int(round(doc["sim"]["horizon"] / doc["sim"]["dt"]))


# ------------------------------------------------------------ operations

@dataclass
class Op:
    traced: bool
    total_s: float = math.nan
    steps: int = 0
    run_s: Optional[float] = None
    ok: bool = False
    reason: str = ""
    digest: Optional[str] = None
    layers: dict = field(default_factory=dict)
    run_children: dict = field(default_factory=dict)


def scan_file(path: Path) -> tuple[int, int, str]:
    """Line count, byte count and digest, read in chunks."""
    digest = hashlib.blake2b(digest_size=16)
    lines = size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return lines, size, digest.hexdigest()


def check_sim_outputs(se, wl: Workload, doc: dict, out: Path) -> tuple[str, dict]:
    """Empty reason when the run's outputs are correct."""
    facts: dict = {}
    lines, size, digest = scan_file(out / "trajectory.csv")
    facts.update(csv_lines=lines, csv_bytes=size, digest=digest)
    with open(out / "metrics.json", "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    facts["metrics"] = metrics
    rows = n_steps(doc) // doc["sim"]["log_stride"] + 1
    if lines != rows + 1:
        return f"trajectory.csv has {lines} lines, expected header + {rows}", facts
    if set(metrics) != METRICS_KEYS:
        return f"metrics.json keys {sorted(metrics)} != {sorted(METRICS_KEYS)}", facts
    if not metrics["bounded"]:
        return "non-finite signals in the trajectory", facts

    dt = doc["sim"]["dt"]
    t_reach = metrics["t_reach_delta"]
    if wl.name == "reach":
        if t_reach is None:
            return "never reached the delta-vicinity", facts
        before = [seg for seg in metrics["sliding_segments"]
                  if seg[1] <= t_reach and seg[1] - seg[0] >= 50.0 * dt]
        if not before:
            return f"no sliding segment of >= 50*dt before t={t_reach}", facts
    elif wl.name == "hover":
        ctrl = doc["controller"]
        verdict = se.analysis.residual_bound_check(
            se.analysis.Metrics(t_reach, metrics["residual_amp"],
                                metrics["mean_residual"]),
            doc["sim"]["plant_eta"], ctrl["epsilon_sw"],
            doc["analysis"]["c_bound"])
        if not verdict.passed:
            return (f"residual bound failed: {verdict.residual_amp:.4g} > "
                    f"{verdict.bound:.4g} {verdict.reason}"), facts
    return "", facts


def trajectory_log(traj) -> dict:
    arrays = [getattr(traj, name) for name in vars(traj)]
    return {"rows": len(traj),
            "bytes": sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))}


class Runner:
    """Runs one workload's operations and keeps what they measured."""

    def __init__(self, se, wl: Workload, doc: dict, tmp: Path) -> None:
        self.se, self.wl, self.doc, self.tmp = se, wl, doc, tmp
        self.doc_path = tmp / "scenario.json"
        self.doc_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        self.targets = tr.targets(se)
        self.originals = tr.snapshot(self.targets)
        self.run_timer = [t for t in self.targets if t[2] == "sim.run"]
        self.count = 0
        self.last_tracer = None

    def op(self, traced: bool, doc_path: Optional[Path] = None) -> Op:
        op = Op(traced=traced)
        try:
            if self.wl.is_sim:
                self._sim_op(op, doc_path or self.doc_path)
            else:
                self._oracle_op(op)
        except Exception:  # an operation that aborts is counted as failed
            op.ok = False
            op.reason = "aborted: " + traceback.format_exc(limit=3).strip()
        if not tr.all_restored(self.originals):
            op.ok = False
            op.reason = "traced functions were not restored"
        return op

    def _sim_op(self, op: Op, doc_path: Path) -> None:
        se = self.se
        self.count += 1
        out = self.tmp / f"op{self.count}"
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        argv = ["run", "--config", str(doc_path), "--out", str(out),
                "--backend", BACKEND]
        tracer = tr.Tracer()
        counter = tr.RelayCounter()
        seen: dict = {}
        observers = {
            (se.cli, "run_sim"): lambda a, r: seen.update(log=trajectory_log(r)),
            (se.sim, "controller_step"): counter,
            (se.cli, "convergence_metrics"):
                lambda a, r: seen.update(samples=len(a[0]),
                                         segments=len(r.sliding_segments)),
        }
        chosen = self.targets if op.traced else self.run_timer
        with tr.patched(tracer, chosen, observers if op.traced else None):
            with redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                with tracer.span("cli.run"):
                    code = se.cli.main(argv)
                op.total_s = time.perf_counter() - t0
        try:
            if code != 0:
                op.reason = f"slidingesc run exited with {code}"
                return
            op.reason, facts = check_sim_outputs(se, self.wl, doc, out)
            op.ok = not op.reason
            op.digest = facts["digest"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        summary = tracer.summary()
        op.steps = n_steps(doc)
        op.run_s = summary["sim.run"].total_s
        if op.traced:
            op.layers = sim_layers(summary, counter, seen, facts, op.steps)
            op.run_children = tracer.direct_children_s("sim.run")
            self.last_tracer = tracer

    def _oracle_op(self, op: Op) -> None:
        se = self.se
        scenario = se.scenario.scenario_from_dict(self.doc)
        tracer = tr.Tracer()
        chosen = self.targets if op.traced else []
        with tr.patched(tracer, chosen):
            t0 = time.perf_counter()
            with tracer.span("verify.oracle_suite"):
                results = se.verify.oracle_suite(scenario,
                                                 draws=INVARIANT_DRAWS)
            with tracer.span("verify.composition"):
                results.append(
                    se.verify.composition_check(draws=COMPOSITION_DRAWS))
            op.total_s = time.perf_counter() - t0
        failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
        op.ok = not failed
        op.reason = "; ".join(failed)
        op.steps = ORACLE_DRAWS
        op.run_s = op.total_s
        if op.traced:
            op.layers = common_layers(tracer.summary())
            self.last_tracer = tracer


def common_layers(summary) -> dict:
    def total(name):
        return summary[name].total_s if name in summary else 0.0

    layers = {key: total(span) for key, span in SPAN_TOTALS.items()}
    for name in PER_CALL:
        layer = summary.get(name)
        layers[f"{name}.calls"] = layer.calls if layer else 0
        layers[f"{name}.us"] = layer.mean_us if layer else 0.0
    layers.update({
        "sim.steps": 0, "sim.run_s": 0.0, "sim.children_s": 0.0,
        "sim.loop_self_us": 0.0, "controller.relay_flips": 0,
        "controller.dir_changes": 0, "controller.steps_per_flip": 0.0,
        "controller.t_ref_saturated": -1.0, "sim.log_rows": 0,
        "sim.log_bytes": 0, "analysis.samples": 0,
        "analysis.sliding_segments": 0, "output.csv_bytes": 0,
        "cli.self_s": 0.0, "analysis.residual_amp": 0.0,
        "analysis.t_reach_delta": -1.0,
    })
    return layers


def sim_layers(summary, counter, seen, facts, steps) -> dict:
    layers = common_layers(summary)
    run = summary["sim.run"]
    metrics = facts["metrics"]
    layers.update({
        "sim.steps": steps,
        "sim.run_s": run.total_s,
        "sim.children_s": run.total_s - run.self_s,
        "sim.loop_self_us": run.self_s / steps * 1e6,
        "controller.relay_flips": counter.flips,
        "controller.dir_changes": counter.dir_changes,
        "controller.steps_per_flip": (counter.steps / counter.flips
                                      if counter.flips else 0.0),
        "controller.t_ref_saturated": (-1.0 if counter.t_saturated is None
                                       else counter.t_saturated),
        "sim.log_rows": seen["log"]["rows"],
        "sim.log_bytes": seen["log"]["bytes"],
        "analysis.samples": seen["samples"],
        "analysis.sliding_segments": seen["segments"],
        "output.csv_bytes": facts["csv_bytes"],
        "cli.self_s": summary["cli.run"].self_s,
        "analysis.residual_amp": metrics["residual_amp"],
        "analysis.t_reach_delta": (-1.0 if metrics["t_reach_delta"] is None
                                   else metrics["t_reach_delta"]),
    })
    return layers


# ----------------------------------------------------------- set-up time

class SetupProber:
    """Set-up times, each from a fresh interpreter (``setup_probe.py``).

    ``calls`` is the number of python controller steps the last probe
    took: positive when the python loop ran.
    """

    def __init__(self, doc: dict, tmp: Path) -> None:
        probe_doc = json.loads(json.dumps(doc))
        probe_doc["sim"]["horizon"] = 2 * probe_doc["sim"]["dt"]
        probe_doc["sim"]["log_stride"] = 1
        self.path = tmp / "probe.json"
        self.path.write_text(json.dumps(probe_doc), encoding="utf-8")
        self.times: list[float] = []
        self.spent = 0.0
        self.calls = 0

    def probe(self, keep: bool = True) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), str(self.path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=str(ROOT), check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.calls = out["controller_step_calls"]
        if keep:
            self.times.append(out["setup_s"])
            self.spent += time.perf_counter() - t0


# ------------------------------------------------------------- reporting

def environment(se, seed: int, backend_used: str) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend_requested": BACKEND,
        "backend_used": backend_used,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "slidingesc": se.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return (f"median {median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def median(values) -> float:
    return float(statistics.median(values))


# ------------------------------------------------------------------ main

def import_program():
    """Import slidingesc from this checkout's src/, never from elsewhere."""
    if not (SRC / "slidingesc" / "__init__.py").is_file():
        raise ImportError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    se = importlib.import_module("slidingesc")
    for name in ("cli", "sim", "verify", "scenario", "plant", "controller",
                 "analysis"):
        importlib.import_module(f"slidingesc.{name}")
    if Path(se.__file__).resolve().parent != (SRC / "slidingesc").resolve():
        raise ImportError(f"slidingesc imported from {se.__file__}, not {SRC}")
    return se


@dataclass
class Measurement:
    doc: dict
    ops: list
    probe_times: list
    probe_steps: int
    last_tracer: object


def measure(se, wl: Workload, seed: int, seconds: float,
            trace: bool) -> Measurement:
    """One untimed warm-up, then operations for ``seconds``: the next one
    starts while its expected midpoint falls inside the window, so runs
    last ``seconds`` on average.  Untraced runs take set-up probes between
    the operations; traced runs alternate untraced and traced operations
    on the same input."""
    doc = make_document(se, wl, seed)
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp_name:
        tmp = Path(tmp_name)
        runner = Runner(se, wl, doc, tmp)
        prober = SetupProber(doc, tmp)
        if not trace:
            prober.probe(keep=False)
        if wl.is_sim:
            warm = json.loads(json.dumps(doc))
            warm["sim"]["horizon"] = 1.0
            warm_path = tmp / "warmup.json"
            warm_path.write_text(json.dumps(warm), encoding="utf-8")
            runner.op(traced=False, doc_path=warm_path)

        modes = (False, True) if trace else (False,)
        share = 0.0 if trace else PROBE_SHARE
        ops: list[Op] = []
        rounds: list[float] = []
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            ops.extend(runner.op(traced=mode) for mode in modes)
            rounds.append(time.perf_counter() - r0)
            while not trace and (prober.spent
                                 < PROBE_SHARE * (time.perf_counter() - start)):
                prober.probe()
            ahead = median(rounds) * (1.0 + share)
            if time.perf_counter() - start + ahead / 2 > seconds:
                break
        while not trace and len(prober.times) < MIN_PROBES:
            prober.probe()
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    finish_checks(wl, ops)
    return Measurement(doc, ops, prober.times, prober.calls,
                       runner.last_tracer)


def finish_checks(wl: Workload, ops: list[Op]) -> None:
    """Reruns of one input must give byte-identical trajectories, traced
    or not; an operation that differs from the first is failed."""
    reference = next((op.digest for op in ops if op.ok), None)
    for op in ops:
        if op.ok and wl.is_sim and op.digest != reference:
            op.ok = False
            op.reason = ("traced trajectory differs from untraced"
                         if op.traced else "rerun trajectory differs")


def run_split(op: Op) -> str:
    """sim.run of one traced operation as its direct child spans plus the
    loop's self time; the parts add up to the whole."""
    layers = op.layers
    parts = dict(op.run_children)
    parts["loop self"] = layers["sim.loop_self_us"] * layers["sim.steps"] * 1e-6
    text = ", ".join(f"{k} {v:.4f}" for k, v in sorted(parts.items()))
    return (f"  sim.run_s {layers['sim.run_s']:.4f} s = {text} "
            f"(sum {sum(parts.values()):.4f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    try:
        se = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    m = measure(se, wl, args.seed, args.seconds, trace)
    ops = m.ops
    failed = [op for op in ops if not op.ok]
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]

    start = (m.doc["sim"]["x0"] if wl.is_sim
             else f"coupling {m.doc['plant']['map']['coupling']}")
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  input {start}")
    metrics: dict = {}

    def emit(name: str, unit: str, values: list, value=None) -> None:
        if value is None:
            value = median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34} {value:<14.6g} {unit:<14} {describe(values)}")

    if not trace:
        emit("setup_s", "s", m.probe_times)
        # The host's speed switches between two levels ~1.8x apart every
        # 5-30 s.  Over a run, the median of the operations jumps between
        # the levels while the time-weighted mean follows the share of
        # time spent at each, so these two are whole-run ratios.
        done = [op for op in plain if op.ok]
        emit("total_s", "s", [op.total_s for op in done],
             sum(op.total_s for op in done) / len(done) if done else 0.0)
        emit("steps_per_s", "1/s", [op.steps / op.run_s for op in done],
             (sum(op.steps for op in done) / sum(op.run_s for op in done))
             if done else 0.0)
        emit("peak_rss_mb", "MB",
             [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        backend = "python" if m.probe_steps > 0 else "compiled"
    else:
        good = [op for op in traced if op.ok]
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                values = ([median([op.total_s for op in good])
                           / median([op.total_s for op in plain if op.ok])
                           - 1.0] if good else [])
            else:
                values = [op.layers[name] for op in good]
            emit(name, unit, values)
        if not wl.is_sim:
            backend = "none (no closed loop)"
        elif metrics["controller.step.calls"]["value"] > 0:
            backend = "python"
        else:
            backend = "compiled"
        if wl.is_sim and good:
            print(run_split(good[-1]))
        if m.last_tracer is not None:
            SPANS_DIR.mkdir(exist_ok=True)
            np.savez(SPANS_DIR / f"spans-{wl.name}.npz",
                     **m.last_tracer.arrays())

    print(f"  operations: attempted {len(ops)}, failed {len(failed)}")
    for op in failed:
        print(f"  FAILED ({'traced' if op.traced else 'untraced'}): {op.reason}")
    env = environment(se, args.seed, backend)
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
