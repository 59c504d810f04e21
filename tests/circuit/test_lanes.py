"""Lockstep transient lanes: every lane bitwise equal to a solo run.

:func:`simulate_transients` integrates circuits of one plan shape as
lanes of one stacked plan; :func:`characterize_inverters` batches the
transients of many inverter characterizations.  Both must reproduce the
one-lane path exactly, whatever each lane does on its own (end early,
halve its step, miss an edge and retry, or lose its logic swing).
"""

import numpy as np
import pytest

from repro import obs
from repro.circuit import inverter as inverter_module
from repro.circuit.dc import solve_dc
from repro.circuit.elements import Capacitor, Resistor
from repro.circuit.inverter import (
    InverterJob,
    InverterMetrics,
    build_inverter_chain,
    characterize_inverter,
    characterize_inverters,
    inverter_static_power_w,
)
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import simulate_transient, simulate_transients
from repro.errors import AnalysisError, ConvergenceError
from repro.variability.variants import DeviceVariant
from repro.variability.width import _variant_metrics, variant_job

VDD = 0.4
VT = 0.13


def _pulse(vdd, cycle, ramp):
    """The characterization stimulus: rise at 0, fall at half a cycle."""
    half = cycle / 2.0

    def wave(t):
        t_mod = t % cycle
        if t_mod < ramp:
            return vdd * (t_mod / ramp)
        if t_mod < half:
            return vdd
        if t_mod < half + ramp:
            return vdd * (1.0 - (t_mod - half) / ramp)
        return 0.0
    return wave


def _chain(tables, vdd, params, cycle, ramp=4e-12):
    """An FO4 chain driven by the pulse, and its DC start."""
    circuit = build_inverter_chain(*tables, vdd, params)
    v0 = solve_dc(circuit).voltages
    circuit.fix("in", _pulse(vdd, cycle, ramp))
    return circuit, v0


def assert_same_run(a, b):
    assert np.array_equal(a.time_s, b.time_s)
    assert np.array_equal(a.voltages, b.voltages)
    assert a.supply_currents.keys() == b.supply_currents.keys()
    for node, current in a.supply_currents.items():
        assert np.array_equal(current, b.supply_currents[node])


def _solo_steps_and_halvings(circuit, t_end, dt, v0, **options):
    obs.enable()
    obs.reset()
    try:
        result = simulate_transient(circuit, t_end, dt, v0, **options)
        halvings = obs.snapshot()["counters"].get("circuit.step_halvings", 0)
    finally:
        obs.reset()
        obs.disable()
    return result, halvings


class TestSimulateTransients:
    @pytest.fixture(scope="class")
    def lanes(self, nominal_pair, params):
        """Three chains of one shape at different supplies and periods."""
        return [_chain(nominal_pair, vdd, params, cycle)
                for vdd, cycle in ((0.4, 40e-12), (0.35, 30e-12),
                                   (0.5, 24e-12))]

    def test_lanes_match_solo_runs(self, lanes):
        """Different end times and steps; small ``max_iter`` forces step
        halvings on the switching edges of the coarse lanes."""
        circuits = [c for c, _ in lanes]
        v0 = [v for _, v in lanes]
        t_end = [80e-12, 30e-12, 48e-12]
        dt = [1e-12, 0.5e-12, 2e-12]
        options = dict(monitor_supplies=("vdd",), max_iter=4)
        batch = simulate_transients(circuits, t_end, dt, v0, **options)
        halved = 0
        for circuit, te, d, start, got in zip(circuits, t_end, dt, v0,
                                              batch):
            solo, halvings = _solo_steps_and_halvings(circuit, te, d, start,
                                                      **options)
            assert_same_run(got, solo)
            assert got.time_s[-1] == pytest.approx(te, rel=1e-12)
            halved += halvings > 0
        # The retired lanes left early, and at least one lane halved.
        assert len({len(r.time_s) for r in batch}) == 3
        assert halved >= 1

    def test_shared_scalars_broadcast(self, lanes):
        circuits = [c for c, _ in lanes[:2]]
        v0 = [v for _, v in lanes[:2]]
        batch = simulate_transients(circuits, 20e-12, 0.5e-12, v0,
                                    monitor_supplies=("vdd",))
        for circuit, start, got in zip(circuits, v0, batch):
            assert_same_run(got, simulate_transient(
                circuit, 20e-12, 0.5e-12, start, monitor_supplies=("vdd",)))

    def test_one_lane_batch_matches_solo(self, lanes):
        circuit, v0 = lanes[0]
        (result,) = simulate_transients([circuit], 5e-12, 1e-12, [v0])
        assert_same_run(result, simulate_transient(circuit, 5e-12, 1e-12,
                                                   v0))

    def test_rc_lanes(self):
        """Plain RC lanes with different element values (no FETs)."""
        circuits = []
        for r in (1e3, 2e3, 5e2):
            c = Circuit()
            vin, out = c.node("in"), c.node("out")
            c.fix(vin, lambda t: min(t / 1e-9, 1.0))
            c.add(Resistor(vin, out, r))
            c.add(Capacitor(out, GROUND, 1e-12))
            circuits.append(c)
        v0 = [np.zeros(2)] * 3
        batch = simulate_transients(circuits, [3e-9, 2e-9, 1e-9], 1e-11, v0)
        for circuit, te, start, got in zip(circuits, (3e-9, 2e-9, 1e-9), v0,
                                           batch):
            assert_same_run(got, simulate_transient(circuit, te, 1e-11,
                                                    start))

    def test_shape_mismatch_rejected(self, lanes):
        other = Circuit()
        a, b = other.node("a"), other.node("b")
        other.fix(a, 1.0)
        other.add(Resistor(a, b, 1e3))
        other.add(Capacitor(b, GROUND, 1e-12))
        with pytest.raises(ValueError, match="plan shape"):
            simulate_transients([lanes[0][0], other], 1e-12, 1e-13,
                                [lanes[0][1], np.zeros(2)])

    def test_v0_count_checked(self, lanes):
        with pytest.raises(ValueError, match="initial state per lane"):
            simulate_transients([c for c, _ in lanes], 1e-12, 1e-13,
                                [lanes[0][1]])

    def test_failing_lane_raises(self, lanes):
        circuits = [c for c, _ in lanes[:2]]
        v0 = [v for _, v in lanes[:2]]
        with pytest.raises(ConvergenceError, match="lane"):
            simulate_transients(circuits, 10e-12, 4e-12, v0, max_iter=1,
                                max_step_halvings=0)

    def test_fo4_chains_share_one_table_group(self, tech, lanes):
        """Variant and nominal tables share both axes: a batch of FO4
        chains compiles every lane's FETs into one lookup."""
        from repro.circuit.plan import StampPlan
        job = variant_job(tech, DeviceVariant(n_index=9),
                          DeviceVariant(n_index=18), 1, VDD, VT)
        variant = build_inverter_chain(job.n_table, job.p_table, VDD,
                                       job.params, job.load_tables)
        plan = StampPlan.stacked([lanes[0][0], variant, lanes[1][0]])
        assert len(plan.groups) == 1
        assert plan.groups[0].stack.m == 30
        assert plan.devices is None

    def test_observability(self, lanes):
        circuits = [c for c, _ in lanes]
        v0 = [v for _, v in lanes]
        t_end = [6e-12, 4e-12, 2e-12]
        obs.enable()
        obs.reset()
        try:
            batch = simulate_transients(circuits, t_end, 1e-12, v0)
            snap = obs.snapshot()
        finally:
            obs.reset()
            obs.disable()
        counters = snap["counters"]
        assert counters["circuit.transient_batches"] == 1
        assert counters["circuit.transient_runs"] == 3
        assert counters["circuit.transient_steps"] == sum(
            len(r.time_s) - 1 for r in batch)
        assert snap["spans"]["circuit.transient"]["attrs"]["lanes"] == 3
        assert obs.compute_rollups(snap)["transient_lanes_per_batch"] == 3.0


class TestRestingSupplyCurrent:
    """At each half-cycle end the transient's supply current equals the
    chain's own DC source current at that input level, within 0.5%.

    The periods leave the outputs time to settle (0.1% here).  At the
    characterization's default period (16x the estimated delay, 68 ps
    at this point) they have not, and the gap is 2.5-3.3%.
    """

    def _check(self, circuit, result, cycle, tables, params):
        t = result.time_s
        i_vdd = result.supply_currents[circuit.node("vdd")]
        for k in range(1, 5):
            idx = np.searchsorted(t, k * cycle / 2.0, side="right") - 1
            dc_chain = build_inverter_chain(*tables, VDD, params)
            dc_chain.fix("in", VDD if k % 2 else 0.0)
            i_dc = solve_dc(dc_chain).source_current("vdd")
            assert i_vdd[idx] == pytest.approx(i_dc, rel=5e-3)

    def test_one_lane_and_batched(self, nominal_pair, params):
        cycles = (100e-12, 120e-12)
        chains = [_chain(nominal_pair, VDD, params, cycle, ramp=8e-12)
                  for cycle in cycles]
        solo = simulate_transient(chains[0][0], 2 * cycles[0], 0.25e-12,
                                  chains[0][1], monitor_supplies=("vdd",))
        self._check(chains[0][0], solo, cycles[0], nominal_pair, params)
        batch = simulate_transients(
            [c for c, _ in chains], [2 * cycle for cycle in cycles],
            0.25e-12, [v for _, v in chains], monitor_supplies=("vdd",))
        for (circuit, _), cycle, result in zip(chains, cycles, batch):
            self._check(circuit, result, cycle, nominal_pair, params)


class TestCharacterizeInverters:
    """Batched characterization: lanes that retry after a missed edge,
    and a lane that never recovers its swing, still match solo runs."""

    @pytest.fixture(scope="class")
    def jobs(self, tech, nominal_pair):
        degenerate = variant_job(
            tech, DeviceVariant(n_index=18, impurity_e=-1.0),
            DeviceVariant(n_index=9, impurity_e=+1.0), 4, VDD, VT)
        return [
            InverterJob(*nominal_pair, VDD, tech.params),
            # Too short a period for the edges: one retry doubles it.
            InverterJob(*nominal_pair, VDD, tech.params, cycle_s=10e-12),
            InverterJob(*nominal_pair, 0.35, tech.params, cycle_s=30e-12),
            degenerate,
        ]

    @pytest.fixture(scope="class")
    def replayed(self, jobs):
        """Characterize the jobs, replaying every lane of every batch
        as a solo run and comparing the waveforms bit for bit."""
        batches = []
        real = inverter_module.simulate_transients

        def replay(circuits, t_end, dt, v0, **options):
            results = real(circuits, t_end, dt, v0, **options)
            for args in zip(circuits, t_end, dt, v0, results):
                assert_same_run(args[4], simulate_transient(*args[:4],
                                                            **options))
            batches.append(len(circuits))
            return results

        def lone(circuit, t_end, dt, v0, **options):
            batches.append(1)
            return simulate_transient(circuit, t_end, dt, v0, **options)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inverter_module, "simulate_transients", replay)
            patch.setattr(inverter_module, "simulate_transient", lone)
            outcomes = characterize_inverters(jobs)
        return batches, outcomes

    def test_missed_edges_rerun_as_new_batches(self, replayed):
        batches, outcomes = replayed
        # All four together, then the retry and the broken lane, then
        # the broken lane alone.
        assert batches == [4, 2, 1]
        assert [type(o) for o in outcomes] == [InverterMetrics] * 3 + [
            AnalysisError]

    def test_metrics_match_solo(self, jobs, replayed):
        for job, outcome in zip(jobs[:3], replayed[1]):
            assert outcome == characterize_inverter(
                job.n_table, job.p_table, job.vdd, job.params,
                job.load_tables, job.dt_s, job.cycle_s)

    def test_degenerate_lane_yields_nan(self, jobs, replayed):
        job, outcome = jobs[3], replayed[1][3]
        metrics = _variant_metrics(job, outcome, degenerate_ok=True)
        assert np.isnan(metrics.delay_s)
        assert np.isnan(metrics.dynamic_power_w)
        assert metrics.static_power_w == inverter_static_power_w(
            job.n_table, job.p_table, VDD, job.params)
        with pytest.raises(AnalysisError):
            _variant_metrics(job, outcome, degenerate_ok=False)

    def test_single_job_runs_through_characterize_inverter(
            self, jobs, monkeypatch):
        calls = []
        real = inverter_module.characterize_inverter

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(inverter_module, "characterize_inverter", spy)
        (outcome,) = characterize_inverters(jobs[:1])
        assert len(calls) == 1
        assert isinstance(outcome, InverterMetrics)
