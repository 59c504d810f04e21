"""Wrapper coverage, call accounting and metric naming of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

import gate
import layers
import run

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOGUE = (ROOT / "perfbench" / "METRICS.md").read_text()


def _import_gate_modules():
    """The modules a gate child has imported before it installs."""
    import repro  # noqa: F401
    import repro.characterize.runner  # noqa: F401
    import repro.reporting.experiments  # noqa: F401


@pytest.fixture
def installed():
    """A tracer installed on the real entry points, removed afterwards."""
    _import_gate_modules()
    tracer = layers.Tracer()
    replaced = layers.install(tracer)
    try:
        yield tracer, replaced
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- coverage -------------------------------------------------------------
def test_every_entry_point_exists():
    for entry in layers.ENTRIES:
        _, _, original = layers._resolve(entry)
        assert callable(original), entry


def test_install_rebinds_every_import_site(installed):
    _, replaced = installed
    assert layers.stale_references() == []
    from repro.circuit import inverter, ring_oscillator, transient
    for module in (inverter, ring_oscillator):
        assert module.simulate_transient is transient.simulate_transient
        assert hasattr(module.simulate_transient, "__wrapped_original__")
    # Callers that import by name were found beyond the defining modules.
    defining = {entry.module for entry in layers.ENTRIES}
    assert any(isinstance(owner, types.ModuleType)
               and owner.__name__ not in defining for owner, _, _ in replaced)


def test_stale_reference_is_reported(installed):
    from repro.circuit import inverter
    original = inverter.simulate_transient.__wrapped_original__
    inverter.simulate_transient = original
    assert "repro.circuit.inverter.simulate_transient" in \
        layers.stale_references()


@pytest.mark.parametrize("qualname", ["no_such_function",
                                      "DeviceTable.no_such_method",
                                      "NoSuchClass.current"])
def test_missing_entry_point_raises(qualname):
    entry = layers.Entry("x", "repro.device.tables", qualname)
    with pytest.raises(LookupError):
        layers.install(layers.Tracer(), entries=(entry,))


def test_zero_calls_on_a_required_layer_raise():
    for workload in layers.REQUIRED_CALLS:
        with pytest.raises(RuntimeError, match="no calls recorded"):
            layers.check_required(layers.Tracer(), workload)


def test_nested_lookup_counts_once(installed):
    from repro.device.tables import DeviceTable
    tracer, _ = installed
    grid = np.linspace(0.0, 1.0, 5)
    table = DeviceTable(vg=grid, vd=grid, current_a=np.outer(grid, grid),
                        charge_c=np.outer(grid, grid))
    table.current(0.3, 0.2)  # scalar current() calls current_and_derivatives
    table.charge(0.3, 0.2)
    assert tracer.stat("device.table").calls == 2


# --- arithmetic -------------------------------------------------------------
def test_self_time_is_inclusive_minus_wrapped_children():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    leaf = tracer.wrap("leaf", lambda: work(4.0))

    def _mid():
        work(3.0)
        leaf()

    mid = tracer.wrap("mid", _mid)

    def _top():
        work(1.0)
        mid()
        work(2.0)
        leaf()
        # An unwrapped helper's time stays in the caller's self time.
        work(0.5)

    tracer.wrap("top", _top)()
    st = tracer.stat
    assert (st("top").s, st("top").self_s) == (14.5, 3.5)
    assert (st("mid").s, st("mid").self_s) == (7.0, 3.0)
    assert (st("leaf").s, st("leaf").self_s, st("leaf").calls) == (8.0, 8.0, 2)
    assert tracer.edges == {("top", "mid"): 1, ("mid", "leaf"): 1,
                            ("top", "leaf"): 1}


def test_nested_calls_of_one_group_count_outermost_time():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def _inner():
        clock.now += 2.0

    inner = tracer.wrap("g", _inner)

    def _outer():
        clock.now += 1.0
        inner()

    tracer.wrap("g", _outer)()
    stat = tracer.stat("g")
    assert (stat.calls, stat.s, stat.self_s) == (1, 3.0, 3.0)


def test_result_counters_and_rates():
    tracer = layers.Tracer()

    class Result:
        time_s = np.zeros(11)

    tracer.wrap("circuit.transient", lambda: Result(), layers._steps)()
    metrics = layers.layer_metrics(tracer, {"fig2": 1.0}, 3.0, ["fig2"])
    assert metrics["circuit.transient.steps"] == 10
    assert metrics["circuit.transient.steps_per_s"] > 0
    assert metrics["characterize.harness.self_s"] == 2.0
    assert metrics["device.sweep_iv.bias_points_per_s"] == 0.0


# --- names ------------------------------------------------------------------
def test_metric_names_are_valid_and_declared():
    declared = [m["name"] for section in ("end_to_end", "per_layer")
                for m in BENCHMARK[section]]
    assert len(declared) == len(set(declared))
    for name in declared + [w["name"] for w in BENCHMARK["workloads"]]:
        assert layers.METRIC_NAME.match(name), name
    from repro.characterize.specs import SPECS
    produced = set(layers.layer_metrics(layers.Tracer(), {}, 0.0,
                                        list(SPECS)))
    produced.add("trace.overhead_frac")
    assert produced == {m["name"] for m in BENCHMARK["per_layer"]}


def test_catalogue_lists_every_metric_and_workload():
    for section in ("end_to_end", "per_layer", "workloads"):
        for item in BENCHMARK[section]:
            assert f"`{item['name']}`" in CATALOGUE, item["name"]


def test_workloads_agree_everywhere():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(names) == set(layers.REQUIRED_CALLS)


# --- hermetic runs ------------------------------------------------------------
def test_child_env_scrubs_repro_variables(monkeypatch, tmp_path):
    for name in ("REPRO_ADAPTIVE", "REPRO_ENGINE", "REPRO_WORKERS",
                 "REPRO_TRACE", "REPRO_CACHE_DIR", "_REPRO_IN_WORKER"):
        monkeypatch.setenv(name, "1")
    env = run.child_env(ROOT, tmp_path)
    assert [k for k in env if "REPRO_" in k] == ["REPRO_CACHE_DIR"]
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_seed_permutes_experiment_order():
    from repro.characterize.specs import SPECS
    warm = gate.experiment_order("fast-warm", 7)
    assert warm == gate.experiment_order("fast-warm", 7)
    assert sorted(warm) == sorted(SPECS)
    assert sorted(gate.experiment_order("fast-cold", 7)) == \
        sorted(gate.COLD_IDS)
    orders = {tuple(gate.experiment_order("fast-warm", s)) for s in range(4)}
    assert len(orders) > 1
