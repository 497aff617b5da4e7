"""Spans and counts recorded around the slidingesc layers from outside.

The package is not modified.  Tracing replaces the module globals and
class attributes that callers look up (``slidingesc.sim.controller_step``,
``slidingesc.controller.cyclic_direction``, the ``QuadraticMap`` and
``CascadePlant`` methods and the ``CascadePlant.z`` property, ...) with
wrappers that record a span per call, and puts the originals back when
the ``patched`` block ends.  Spans live in flat in-memory arrays until
the run is over; self time is a span's duration minus its direct child
spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Layer:
    calls: int
    total_s: float
    self_s: float

    @property
    def mean_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class Tracer:
    """Flat span store: name id, parent span index, start and end (ns)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start[i] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``observe(args, result)`` runs after the span closes, for counts
        read off a layer's outputs.
        """
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "names": np.array(self.names),
        }

    def summary(self) -> dict[str, Layer]:
        """Calls, inclusive time and self time per span name."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        n = dur.size
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        selft = np.bincount(a["name_id"], weights=own, minlength=k)
        return {name: Layer(int(calls[i]), total[i] * 1e-9, selft[i] * 1e-9)
                for i, name in enumerate(self.names)}

    def direct_children_s(self, name: str) -> dict[str, float]:
        """Time of the direct children of every ``name`` span, by child name."""
        a = self.arrays()
        pid = self._ids.get(name)
        if pid is None:
            return {}
        parents = np.nonzero(a["name_id"] == pid)[0]
        mask = np.isin(a["parent"], parents)
        dur = (a["end_ns"] - a["start_ns"])[mask].astype(float)
        per = np.bincount(a["name_id"][mask], weights=dur,
                          minlength=len(self.names))
        return {self.names[i]: per[i] * 1e-9
                for i in range(len(self.names)) if per[i] > 0}


class RelayCounter:
    """Exact relay flips, direction changes and reference saturation,
    read off the outputs of each closed-loop controller step.

    The relay sign is the sign of the active control component; the
    direction is the telemetry's ``dir_index``.  ``t_saturated`` is the
    time of the first step whose reference sits at ``y_sat``.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.flips = 0
        self.dir_changes = 0
        self.t_saturated = None
        self._sign = None
        self._dir = None

    def __call__(self, args, result) -> None:
        params, _state, _y, dt = args
        u, tel = result
        sign = u[tel.dir_index - 1] > 0.0
        if self._sign is not None:
            self.flips += sign != self._sign
            self.dir_changes += tel.dir_index != self._dir
        self._sign = sign
        self._dir = tel.dir_index
        if self.t_saturated is None and tel.y_m >= params.y_sat:
            self.t_saturated = self.steps * dt
        self.steps += 1


def targets(se) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every layer boundary traced.

    Owners are the modules whose globals the callers read and the
    classes whose methods they call, so a patch is seen by every caller.
    """
    cli, sim, verify = se.cli, se.sim, se.verify
    return [
        (cli, "scenario_from_dict", "scenario.load"),
        (se.scenario.Scenario, "build_plant", "plant.build"),
        (se.plant.CascadePlant, "check_hypotheses", "plant.check_hypotheses"),
        (sim, "dt_guard_limit", "sim.dt_guard"),
        (cli, "run_sim", "sim.run"),
        (se.plant.QuadraticMap, "eval", "plant.map_eval"),
        (se.plant.QuadraticMap, "gradient", "plant.gradient"),
        (se.plant.CascadePlant, "z", "plant.z"),
        (se.plant.CascadePlant, "derivative", "plant.derivative"),
        (sim, "controller_step", "controller.step"),
        (verify, "controller_step", "controller.step"),
        (se.controller, "cyclic_direction", "controller.cyclic_direction"),
        (verify, "cyclic_direction", "controller.cyclic_direction"),
        (cli, "convergence_metrics", "analysis.convergence_metrics"),
        (se.analysis, "detect_sliding", "analysis.detect_sliding"),
        (verify, "fd_gradient_oracle", "analysis.fd_oracle"),
        (se.sim.Trajectory, "to_csv", "output.csv"),
    ]


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@contextmanager
def patched(tracer: Tracer, chosen, observers=None):
    """Install span wrappers on ``chosen`` targets; restore on exit.

    ``observers`` maps (owner, attribute) to an ``observe`` callback.
    """
    observers = observers or {}
    saved = []
    try:
        for owner, attr, name in chosen:
            original = _raw(owner, attr)
            observe = observers.get((owner, attr))
            if isinstance(original, property):
                wrapped = property(tracer.wrap(name, original.fget, observe),
                                   original.fset, original.fdel,
                                   original.__doc__)
            else:
                wrapped = tracer.wrap(name, original, observe)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def all_restored(originals) -> bool:
    """True when every (owner, attribute, object) is back in place."""
    return all(_raw(owner, attr) is obj for owner, attr, obj in originals)


def snapshot(chosen):
    """(owner, attribute, current object) of each target."""
    return [(owner, attr, _raw(owner, attr)) for owner, attr, _ in chosen]
