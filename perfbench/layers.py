"""Timing wrappers around the public entry points of each layer.

The benchmark's traced run installs these from outside the program: no
code under ``src/`` knows about them.  Each wrapper records calls,
inclusive seconds and self seconds (inclusive minus the time spent in
wrapped children) on a single in-process :class:`Tracer`, plus the
parent -> child call edges, from which the per-layer metrics of
``BENCHMARK.json`` are derived by :func:`layer_metrics`.

Callers import most of these functions by name (``from x import f``),
so :func:`install` rebinds every ``repro.*`` module attribute that still
refers to the original function, not just the defining module.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

#: Metric names must be valid benchmark metric names.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _steps(result, args, kwargs) -> dict:
    return {"steps": len(result.time_s) - 1}


def _newton_iters(result, args, kwargs) -> dict:
    return {"newton_iters": result.iterations}


def _bias_points(result, args, kwargs) -> dict:
    return {"bias_points": int(result.current_a.size)}


def _cache_hit(result, args, kwargs) -> dict:
    return {"hits": int(result is not None)}


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``group`` is the stat the calls land in; entries sharing a group
    (the four table-lookup methods) count only calls that are not nested
    inside another call of the same group, so a ``current`` that calls
    ``current_and_derivatives`` is one lookup.  ``count`` derives extra
    work counters from a call's result.
    """

    group: str
    module: str
    qualname: str
    count: Callable | None = None


#: Every wrapped entry point, by layer.
ENTRIES = (
    # device: table build, SBFET solves and transmission
    Entry("device.build_device_table", "repro.device.tables",
          "build_device_table"),
    Entry("device.sweep_iv", "repro.device.iv", "sweep_iv", _bias_points),
    Entry("device.sbfet.solve_bias", "repro.device.sbfet",
          "SBFETModel.solve_bias"),
    Entry("device.sbfet.transmission", "repro.device.sbfet",
          "SBFETModel.transmission"),
    Entry("device.table", "repro.device.tables",
          "DeviceTable.current_and_derivatives"),
    Entry("device.table", "repro.device.tables", "DeviceTable.capacitances"),
    Entry("device.table", "repro.device.tables", "DeviceTable.current"),
    Entry("device.table", "repro.device.tables", "DeviceTable.charge"),
    # runtime: the on-disk artifact cache
    Entry("runtime.cache.get", "repro.runtime.cache", "ArtifactCache.get",
          _cache_hit),
    Entry("runtime.cache.put", "repro.runtime.cache", "ArtifactCache.put"),
    # circuit: DC/VTC, transient, ring oscillator, inverter
    Entry("circuit.dc.solve_dc", "repro.circuit.dc", "solve_dc",
          _newton_iters),
    Entry("circuit.vtc.compute_vtc", "repro.circuit.vtc", "compute_vtc"),
    Entry("circuit.transient", "repro.circuit.transient",
          "simulate_transient", _steps),
    Entry("circuit.ring_oscillator.simulate", "repro.circuit.ring_oscillator",
          "simulate_ring_oscillator"),
    Entry("circuit.ring_oscillator.estimate", "repro.circuit.ring_oscillator",
          "estimate_ring_oscillator"),
    Entry("circuit.inverter.characterize", "repro.circuit.inverter",
          "characterize_inverter"),
    # NEGF / Poisson
    Entry("negf.device.solve", "repro.device.negf_device", "NEGFDevice.solve"),
    Entry("negf.transport", "repro.device.negf_realspace",
          "RealSpaceGNRDevice.transport"),
    Entry("negf.transport", "repro.device.negf_modespace",
          "ModeSpaceGNRDevice.transport"),
    Entry("poisson.operator.solve", "repro.poisson.fd",
          "PoissonOperator.solve"),
    # exploration / variability
    Entry("exploration.sweep_vdd_vt", "repro.exploration.sweep",
          "sweep_vdd_vt"),
    Entry("variability.monte_carlo", "repro.variability.montecarlo",
          "run_ring_oscillator_monte_carlo"),
)


@dataclass
class Stat:
    """Accumulated work and time of one group."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """In-memory call accounting for wrapped functions.

    ``s`` sums the inclusive time of calls not nested in a call of the
    same group; ``self_s`` sums each call's time minus the inclusive time
    of its directly wrapped children; ``edges[(parent, child)]`` counts
    calls of ``child`` made directly under ``parent``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    def stat(self, group: str) -> Stat:
        return self.stats.setdefault(group, Stat())

    def wrap(self, group: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        stat = self.stat(group)
        stack = self._stack
        depth = self._depth
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outermost = depth[group] == 0
            frame = [group, 0.0]
            stack.append(frame)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[group] -= 1
                stack.pop()
                stat.self_s += elapsed - frame[1]
                if outermost:
                    stat.calls += 1
                    stat.s += elapsed
                if parent is not None:
                    parent[1] += elapsed
                    self.edges[parent[0], group] += 1
            if count is not None and outermost:
                stat.counts.update(count(result, args, kwargs))
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper


def _resolve(entry: Entry):
    """Return ``(owner, attribute, original)`` for an entry.

    Raises ``LookupError`` when the listed function no longer exists, so
    a renamed entry point stops the benchmark instead of reading zero.
    """
    module = importlib.import_module(entry.module)
    owner = module
    *path, name = entry.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{entry.module}.{entry.qualname}: "
                              f"{part!r} no longer exists")
    # Only functions defined on the owner itself: wrapping an inherited
    # method would wrap the base class's function twice.
    original = vars(owner).get(name)
    if not callable(original):
        raise LookupError(f"{entry.module}.{entry.qualname} no longer exists")
    return owner, name, original


def _repro_modules():
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install(tracer: Tracer, entries=ENTRIES) -> list[tuple]:
    """Wrap every entry and rebind it wherever it was imported by name.

    Returns the ``(owner, attribute, original)`` bindings replaced, the
    defining site included, so a caller can restore them.  Modules
    imported later pick up the wrapper from the defining module.
    """
    replaced = []
    for entry in entries:
        owner, name, original = _resolve(entry)
        wrapper = tracer.wrap(entry.group, original, entry.count)
        setattr(owner, name, wrapper)
        replaced.append((owner, name, original))
        if owner is not sys.modules[entry.module]:
            continue  # methods are found through the class
        for _, module in _repro_modules():
            if module is owner:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    return replaced


def stale_references(entries=ENTRIES) -> list[str]:
    """``module.attribute`` sites in ``repro.*`` still bound to an
    unwrapped original (empty after a complete :func:`install`)."""
    originals = set()
    for entry in entries:
        _, _, current = _resolve(entry)
        original = getattr(current, "__wrapped_original__", None)
        if original is not None:
            originals.add(id(original))
    return [f"{mod_name}.{attr}" for mod_name, module in _repro_modules()
            for attr, value in list(vars(module).items())
            if id(value) in originals]


#: Groups that must record calls on each workload.  A zero here means a
#: wrapper stopped intercepting (the entry point moved or is no longer
#: called), which would silently zero its layer's metrics.
REQUIRED_CALLS = {
    "fast-cold": ("device.build_device_table", "device.sweep_iv",
                  "device.sbfet.solve_bias", "device.sbfet.transmission",
                  "device.table", "runtime.cache.get", "runtime.cache.put",
                  "circuit.dc.solve_dc", "circuit.vtc.compute_vtc"),
    "fast-warm": ("device.build_device_table", "device.sweep_iv",
                  "device.sbfet.solve_bias", "device.sbfet.transmission",
                  "device.table", "runtime.cache.get", "circuit.dc.solve_dc",
                  "circuit.vtc.compute_vtc", "circuit.transient",
                  "circuit.inverter.characterize",
                  "circuit.ring_oscillator.estimate",
                  "exploration.sweep_vdd_vt", "variability.monte_carlo"),
}


def check_required(tracer: Tracer, workload: str) -> None:
    """Raise ``RuntimeError`` if a required group recorded no calls."""
    missing = [g for g in REQUIRED_CALLS[workload]
               if tracer.stat(g).calls == 0]
    if missing:
        raise RuntimeError(f"workload {workload!r}: no calls recorded for "
                           f"{missing}; the entry points moved or stopped "
                           "being called")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(tracer: Tracer, experiment_s: dict[str, float],
                  wall_s: float, experiment_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_frac``
    excluded: it needs the untraced runs)."""
    st = tracer.stat
    edges = tracer.edges
    sweep, trans = st("device.sweep_iv"), st("circuit.transient")
    ring = st("circuit.ring_oscillator.simulate")
    cache_get, cache_put = st("runtime.cache.get"), st("runtime.cache.put")
    dc, vtc = st("circuit.dc.solve_dc"), st("circuit.vtc.compute_vtc")
    inv = st("circuit.inverter.characterize")
    negf, transport = st("negf.device.solve"), st("negf.transport")
    poisson = st("poisson.operator.solve")
    metrics = {
        "device.build_device_table.calls": st("device.build_device_table").calls,
        "device.build_device_table.builds":
            edges["device.build_device_table", "device.sweep_iv"],
        "device.sweep_iv.calls": sweep.calls,
        "device.sweep_iv.s": sweep.s,
        "device.sweep_iv.bias_points": sweep.counts["bias_points"],
        "device.sweep_iv.bias_points_per_s":
            _rate(sweep.counts["bias_points"], sweep.s),
        "device.sbfet.solve_bias.calls": st("device.sbfet.solve_bias").calls,
        "device.sbfet.solve_bias.self_s": st("device.sbfet.solve_bias").self_s,
        "device.sbfet.transmission.calls":
            st("device.sbfet.transmission").calls,
        "device.sbfet.transmission.s": st("device.sbfet.transmission").s,
        "device.table.lookups": st("device.table").calls,
        "device.table.lookup_s": st("device.table").s,
        "runtime.cache.get.calls": cache_get.calls,
        "runtime.cache.hits": cache_get.counts["hits"],
        "runtime.cache.get.s": cache_get.s,
        "runtime.cache.put.calls": cache_put.calls,
        "runtime.cache.put.s": cache_put.s,
        "circuit.dc.solve_dc.calls": dc.calls,
        "circuit.dc.newton_iters": dc.counts["newton_iters"],
        "circuit.dc.solve_dc.self_s": dc.self_s,
        "circuit.vtc.compute_vtc.calls": vtc.calls,
        "circuit.vtc.compute_vtc.s": vtc.s,
        "circuit.transient.calls": trans.calls,
        "circuit.transient.steps": trans.counts["steps"],
        "circuit.transient.s": trans.s,
        "circuit.transient.self_s": trans.self_s,
        "circuit.transient.steps_per_s": _rate(trans.counts["steps"], trans.s),
        "circuit.ring_oscillator.simulate.calls": ring.calls,
        "circuit.ring_oscillator.simulate.s": ring.s,
        "circuit.ring_oscillator.transients_per_ring": _rate(
            edges["circuit.ring_oscillator.simulate", "circuit.transient"],
            ring.calls),
        "circuit.ring_oscillator.estimate.calls":
            st("circuit.ring_oscillator.estimate").calls,
        "circuit.inverter.characterize.calls": inv.calls,
        "circuit.inverter.characterize.s": inv.s,
        "negf.device.solve.calls": negf.calls,
        "negf.device.solve.s": negf.s,
        "negf.transport.calls": transport.calls,
        "negf.transport.s": transport.s,
        "poisson.operator.solve.calls": poisson.calls,
        "poisson.operator.solve.s": poisson.s,
        "exploration.sweep_vdd_vt.s": st("exploration.sweep_vdd_vt").s,
        "variability.monte_carlo.s": st("variability.monte_carlo").s,
    }
    for eid in experiment_ids:
        metrics[f"characterize.experiment.{eid}.s"] = experiment_s.get(eid, 0.0)
    metrics["characterize.harness.self_s"] = max(
        wall_s - sum(experiment_s.values()), 0.0)
    return {name: float(value) for name, value in metrics.items()}
