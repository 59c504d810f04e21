"""Bitwise parity of the compiled stamp plan with per-element stamping.

The reference functions below are the scalar solver the plan replaced:
each element stamps its own currents and Jacobian entries into full
node-indexed arrays, one ``+=`` at a time, through
``DeviceTable``'s scalar lookups.  They live here only, as the oracle
the plan must reproduce bit for bit.
"""

import numpy as np
import pytest

from repro import obs
from repro.circuit.dc import solve_dc
from repro.circuit.elements import (
    Capacitor,
    CompactMOSFET,
    CurrentSource,
    Resistor,
    TableFET,
)
from repro.circuit.gates import build_nand2, build_nor2
from repro.circuit.inverter import (
    add_inverter,
    build_inverter_chain,
    inverter_vtc,
)
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit import plan as plan_module
from repro.circuit.plan import Assembler, StampPlan
from repro.circuit.ring_oscillator import build_ring_oscillator
from repro.circuit.transient import simulate_transient
from repro.circuit.vtc import compute_vtc
from repro.cmos.circuits import _build_cmos_inverter
from repro.cmos.ptm import ptm_node
from repro.device.tables import DeviceTable
from repro.errors import ConvergenceError


# --------------------------------------------------------------------- #
# Reference: per-element scalar stamping
# --------------------------------------------------------------------- #
def _volt(v, node):
    return 0.0 if node == GROUND else float(v[node])


def _add_f(f, node, value):
    if node != GROUND:
        f[node] += value


def _add_j(jac, row, col, value):
    if jac is not None and row != GROUND and col != GROUND:
        jac[row, col] += value


def _fet_bias(el, v):
    d, g, s = el.nodes
    return _volt(v, g) - _volt(v, s), _volt(v, d) - _volt(v, s)


def ref_stamp_static(el, v, f, jac):
    if isinstance(el, Resistor):
        n1, n2 = el.nodes
        g = 1.0 / el.resistance_ohm
        i = g * (_volt(v, n1) - _volt(v, n2))
        _add_f(f, n1, i)
        _add_f(f, n2, -i)
        _add_j(jac, n1, n1, g)
        _add_j(jac, n1, n2, -g)
        _add_j(jac, n2, n1, -g)
        _add_j(jac, n2, n2, g)
    elif isinstance(el, CurrentSource):
        _add_f(f, el.nodes[0], el.current_a)
        _add_f(f, el.nodes[1], -el.current_a)
    elif isinstance(el, (TableFET, CompactMOSFET)):
        d, g, s = el.nodes
        vgs, vds = _fet_bias(el, v)
        p = el.polarity
        if isinstance(el, TableFET):
            i, di_dvgs, di_dvds = el.table.current_and_derivatives(
                p * vgs, p * vds)
        else:
            i, di_dvgs, di_dvds = el.model.ids(p * vgs, p * vds)
        i = p * float(i)
        di_dvgs = float(di_dvgs)
        di_dvds = float(di_dvds)
        _add_f(f, d, i)
        _add_f(f, s, -i)
        _add_j(jac, d, d, di_dvds)
        _add_j(jac, d, g, di_dvgs)
        _add_j(jac, d, s, -(di_dvds + di_dvgs))
        _add_j(jac, s, d, -di_dvds)
        _add_j(jac, s, g, -di_dvgs)
        _add_j(jac, s, s, di_dvds + di_dvgs)


def ref_capacitor_stamps(el, v):
    if isinstance(el, Capacitor):
        return [(el.nodes[0], el.nodes[1], el.capacitance_f)]
    if isinstance(el, TableFET):
        d, g, s = el.nodes
        vgs, vds = _fet_bias(el, v)
        p = el.polarity
        cgs, cgd = el.table.capacitances(p * vgs, p * vds)
        return [(g, s, float(cgs) + el.c_par_gs_f),
                (g, d, float(cgd) + el.c_par_gd_f)]
    if isinstance(el, CompactMOSFET):
        d, g, s = el.nodes
        vgs, vds = _fet_bias(el, v)
        p = el.polarity
        cgs, cgd = el.model.capacitances(p * vgs, p * vds)
        return [(g, s, float(cgs)), (g, d, float(cgd))]
    return []


def ref_collect_caps(circuit, v):
    stamps = []
    for el in circuit.elements:
        stamps.extend(ref_capacitor_stamps(el, v))
    return stamps


def ref_static(circuit, v, with_jac=True):
    n = circuit.n_nodes
    f = np.zeros(n)
    jac = np.zeros((n, n)) if with_jac else None
    for el in circuit.elements:
        ref_stamp_static(el, v, f, jac)
    return f, jac


def ref_dc_assemble(circuit, v, gmin):
    f, jac = ref_static(circuit, v)
    if gmin > 0.0:
        f += gmin * v
        jac[np.diag_indices(circuit.n_nodes)] += gmin
    return f, jac


def ref_step_assemble(circuit, v, v_prev, caps, i_cap_prev, h, gmin,
                      backward_euler):
    f, jac = ref_static(circuit, v)
    i_cap_new = np.empty(len(caps))
    for k, (a, b, c) in enumerate(caps):
        dv_now = _volt(v, a) - _volt(v, b)
        dv_old = _volt(v_prev, a) - _volt(v_prev, b)
        if backward_euler:
            geq = c / h
            i_k = geq * (dv_now - dv_old)
        else:
            geq = 2.0 * c / h
            i_k = geq * (dv_now - dv_old) - i_cap_prev[k]
        i_cap_new[k] = i_k
        if a != GROUND:
            f[a] += i_k
            jac[a, a] += geq
            if b != GROUND:
                jac[a, b] -= geq
        if b != GROUND:
            f[b] -= i_k
            jac[b, b] += geq
            if a != GROUND:
                jac[b, a] -= geq
    f += gmin * v
    jac[np.diag_indices(circuit.n_nodes)] += gmin
    return f, jac, i_cap_new


def ref_solve_dc(circuit, v0=None, gmin=1e-12, tol_a=1e-14, max_iter=200,
                 damping_v=0.2, source_steps=8):
    fixed = circuit.fixed_voltages(0.0)
    free = circuit.free_nodes()
    n = circuit.n_nodes

    def newton(v, gmin, tol_a):
        for iteration in range(1, max_iter + 1):
            f, jac = ref_dc_assemble(circuit, v, gmin)
            residual = f[free]
            if np.max(np.abs(residual)) < tol_a:
                return v, iteration, True
            dv = np.linalg.solve(jac[np.ix_(free, free)], -residual)
            if not np.all(np.isfinite(dv)):
                return v, iteration, False
            max_step = np.max(np.abs(dv))
            if max_step > damping_v:
                dv *= damping_v / max_step
            v = v.copy()
            v[free] += dv
        return v, max_iter, False

    if v0 is not None:
        v = np.asarray(v0, dtype=float).copy()
    else:
        v = np.zeros(n)
        if fixed:
            v[free] = 0.5 * float(np.mean(list(fixed.values())))
    for node, value in fixed.items():
        v[node] = value
    v_sol, _, ok = newton(v, gmin, tol_a)
    if ok:
        return v_sol
    v = np.zeros(n)
    for step in range(1, source_steps + 1):
        for node, value in fixed.items():
            v[node] = step / source_steps * value
        v, _, ok = newton(v, gmin, tol_a)
        if not ok:
            v, _, ok = newton(v, gmin * 1e3, tol_a * 10)
            if not ok:
                raise ConvergenceError("reference source stepping failed")
    return v


def ref_simulate_transient(circuit, t_end_s, dt_s, v0, monitor=(),
                           gmin=1e-12, tol_a=1e-13, max_iter=40,
                           damping_v=0.3, max_step_halvings=8):
    free = circuit.free_nodes()
    v = np.asarray(v0, dtype=float).copy()
    for node, value in circuit.fixed_voltages(0.0).items():
        v[node] = value
    times, traj = [0.0], [v.copy()]
    supplies = {m: [] for m in monitor}

    def record(v_now):
        f, _ = ref_static(circuit, v_now, with_jac=False)
        for m in monitor:
            supplies[m].append(float(f[m]))

    def step(v_guess, caps, i_prev, v_prev, h, be):
        v = v_guess.copy()
        for _ in range(max_iter):
            f, jac, i_new = ref_step_assemble(circuit, v, v_prev, caps,
                                              i_prev, h, gmin, be)
            residual = f[free]
            if np.max(np.abs(residual)) < tol_a:
                return v, i_new, True
            dv = np.linalg.solve(jac[np.ix_(free, free)], -residual)
            if not np.all(np.isfinite(dv)):
                return v, i_new, False
            max_step = np.max(np.abs(dv))
            if max_step > damping_v:
                dv *= damping_v / max_step
            v[free] += dv
        return v, i_prev, False

    i_cap = np.zeros(len(ref_collect_caps(circuit, v)))
    record(v)
    t = 0.0
    first = True
    while t < t_end_s - 1e-21:
        h = min(dt_s, t_end_s - t)
        for _ in range(max_step_halvings + 1):
            v_try = v.copy()
            for node, value in circuit.fixed_voltages(t + h).items():
                v_try[node] = value
            caps = ref_collect_caps(circuit, v)
            v_new, i_new, ok = step(v_try, caps, i_cap, v, h, first)
            if ok:
                break
            h *= 0.5
        assert ok
        t += h
        v, i_cap = v_new, i_new
        first = False
        times.append(t)
        traj.append(v.copy())
        record(v)
    return (np.array(times), np.array(traj),
            {m: np.array(tr) for m, tr in supplies.items()})


# --------------------------------------------------------------------- #
# Plan-side helpers
# --------------------------------------------------------------------- #
@pytest.fixture(params=["vectorized", "per-device"])
def kernel(request, monkeypatch):
    """Run a test once with every table FET in the vectorized kernel and
    once with every FET on its table's scalar lookup."""
    threshold = 1 if request.param == "vectorized" else 10 ** 9
    monkeypatch.setattr(plan_module, "VECTOR_MIN_DEVICES", threshold)
    return request.param


def fresh_plan(circuit):
    return StampPlan(circuit.elements, circuit.n_nodes)


def plan_dc_assemble(circuit, v, gmin):
    """The plan's DC assembly with every node free (full f and J)."""
    asm = Assembler(fresh_plan(circuit), np.arange(circuit.n_nodes))
    return asm.assemble(v, gmin)


def plan_caps(circuit, v):
    plan = fresh_plan(circuit)
    c = plan.capacitances(plan.extend(v))
    n = circuit.n_nodes
    a = [GROUND if x == n else int(x) for x in plan.cap_a]
    b = [GROUND if x == n else int(x) for x in plan.cap_b]
    return list(zip(a, b, c.tolist()))


def plan_step_assemble(circuit, v, v_prev, i_cap_prev, h, gmin,
                       backward_euler):
    plan = fresh_plan(circuit)
    asm = Assembler(plan, np.arange(circuit.n_nodes), dynamic=True)
    caps = plan.capacitances(plan.extend(v_prev))
    geq = caps / h if backward_euler else 2.0 * caps / h
    asm.stamp_companions(geq)
    i_new, f, jac = asm.assemble_step(
        v, gmin, geq, asm.cap_voltages(v_prev),
        None if backward_euler else i_cap_prev)
    return f[0], jac[0], i_new


def assert_bitwise(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (
        f"max |diff| = {np.max(np.abs(actual - expected))}")


def check_parity(circuit, rng, n_points=6, lo=-0.2, hi=0.6):
    """f, J, caps and a transient step assembly at random voltages."""
    n = circuit.n_nodes
    for _ in range(n_points):
        v = rng.uniform(lo, hi, n)
        v_prev = v + rng.normal(0.0, 0.02, n)
        for gmin in (1e-12, 1e-9):
            f_ref, j_ref = ref_dc_assemble(circuit, v, gmin)
            f, jac = plan_dc_assemble(circuit, v, gmin)
            assert_bitwise(f, f_ref)
            assert_bitwise(jac, j_ref)
        caps_ref = ref_collect_caps(circuit, v_prev)
        caps = plan_caps(circuit, v_prev)
        assert [c[:2] for c in caps] == [c[:2] for c in caps_ref]
        assert_bitwise([c[2] for c in caps], [c[2] for c in caps_ref])
        i_prev = rng.normal(0.0, 1e-6, len(caps))
        for be in (True, False):
            ref = ref_step_assemble(circuit, v, v_prev, caps_ref, i_prev,
                                    0.25e-12, 1e-12, be)
            got = plan_step_assemble(circuit, v, v_prev, i_prev, 0.25e-12,
                                     1e-12, be)
            for a, b in zip(got, ref):
                assert_bitwise(a, b)
        f_ref, _ = ref_static(circuit, v, with_jac=False)
        assert_bitwise(fresh_plan(circuit).static_currents(v), f_ref)


def _toy_table(vg=None):
    vg = np.linspace(-1.0, 1.5, 26) if vg is None else vg
    vd = np.linspace(0.0, 1.0, 11)
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    current = 1e-6 * np.clip(gg, 0, None) * dd + 1e-9 * gg * dd ** 2
    charge = 1e-18 * (gg + 0.5 * dd + 0.3 * gg * dd)
    return DeviceTable(vg=vg, vd=vd, current_a=current, charge_c=charge)


# --------------------------------------------------------------------- #
# f / J / caps parity per circuit
# --------------------------------------------------------------------- #
class TestAssemblyParity:
    def test_fo4_inverter_chain(self, kernel, nominal_pair, params, rng):
        nt, pt = nominal_pair
        check_parity(build_inverter_chain(nt, pt, 0.4, params), rng)

    def test_nand2(self, kernel, nominal_pair, params, rng):
        nt, pt = nominal_pair
        check_parity(build_nand2(nt, pt, 0.4, params), rng)

    def test_nor2(self, kernel, nominal_pair, params, rng):
        nt, pt = nominal_pair
        check_parity(build_nor2(nt, pt, 0.4, params), rng)

    def test_ring_with_per_stage_tables(self, kernel, nominal_pair, params,
                                        rng):
        """Monte Carlo rings: every stage carries its own table pair."""
        nt, pt = nominal_pair
        stages = [(nt.scaled(1.0 + 0.03 * k),
                   pt.with_gate_offset(pt.gate_offset_v + 0.01 * (k - 7)))
                  for k in range(15)]
        circuit = build_ring_oscillator(nt, pt, 0.4, 15, params,
                                        per_stage_tables=stages)
        groups = fresh_plan(circuit).groups
        assert len(groups) == (1 if kernel == "vectorized" else 0)
        check_parity(circuit, rng, n_points=3)

    def test_cmos_inverter(self, kernel, rng):
        check_parity(_build_cmos_inverter(ptm_node(22), 0.8), rng,
                     lo=-0.3, hi=1.1)

    def test_current_source(self, kernel, rng):
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.add(Resistor(a, GROUND, 2e3))
        c.add(CurrentSource(GROUND, a, 1e-3))
        c.add(CurrentSource(a, b, 2e-6))
        c.add(Resistor(a, b, 5e3))
        c.add(Capacitor(b, GROUND, 1e-15))
        check_parity(c, rng)

    def test_ground_tied_and_shared_terminals(self, kernel, rng):
        """Ground on every terminal position, a diode-connected FET
        (drain == gate) and a resistor looping on one node."""
        t = _toy_table()
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.add(TableFET(a, GROUND, GROUND, t, c_par_gs_f=1e-18))
        c.add(TableFET(GROUND, a, b, t, polarity=-1, c_par_gd_f=2e-18))
        c.add(TableFET(b, b, GROUND, t))
        c.add(TableFET(a, b, a, t, polarity=-1))
        c.add(Resistor(a, a, 1e3))
        c.add(Resistor(b, GROUND, 1e4))
        c.add(Capacitor(GROUND, b, 3e-18))
        check_parity(c, rng)

    @pytest.mark.parametrize("polarity", [+1, -1])
    def test_negative_vds_mirroring(self, kernel, polarity, rng):
        t = _toy_table()
        c = Circuit()
        d, g, s = c.node("d"), c.node("g"), c.node("s")
        c.add(TableFET(d, g, s, t, polarity=polarity,
                       c_par_gs_f=1e-18, c_par_gd_f=1e-18))
        c.add(Resistor(d, GROUND, 1e4))
        c.add(Resistor(s, GROUND, 1e4))
        c.add(Resistor(g, GROUND, 1e4))
        # Mirrored in table polarity: p * (v_d - v_s) < 0.
        v = np.array([0.1, 0.5, 0.4]) if polarity > 0 else \
            np.array([0.6, 0.2, 0.3])
        assert polarity * (v[d] - v[s]) < 0.0
        for gmin in (1e-12,):
            f_ref, j_ref = ref_dc_assemble(c, v, gmin)
            f, jac = plan_dc_assemble(c, v, gmin)
            assert_bitwise(f, f_ref)
            assert_bitwise(jac, j_ref)
        assert_bitwise([x[2] for x in plan_caps(c, v)],
                       [x[2] for x in ref_collect_caps(c, v)])
        check_parity(c, rng, n_points=8, lo=-0.5, hi=0.8)

    def test_non_uniform_axis_table(self, kernel, rng):
        vg = np.concatenate([np.linspace(-1.0, 0.0, 6),
                             np.linspace(0.1, 1.5, 20)])
        t = _toy_table(vg)
        assert not t.uniform_grid
        c = Circuit()
        vin, out, vdd = c.node("in"), c.node("out"), c.node("vdd")
        c.fix(vdd, 0.5)
        c.fix(vin, 0.2)
        c.add(TableFET(out, vin, GROUND, t, c_par_gs_f=1e-18))
        c.add(TableFET(out, vin, vdd, t.with_gate_offset(0.05), polarity=-1,
                       c_par_gd_f=1e-18))
        c.add(TableFET(out, vin, GROUND, _toy_table()))  # uniform group
        c.add(Capacitor(out, GROUND, 1e-17))
        # Only the uniform table is stacked; the non-uniform ones are
        # looked up per device through their own (searchsorted) rule.
        assert len(fresh_plan(c).groups) == (
            1 if kernel == "vectorized" else 0)
        check_parity(c, rng, n_points=8, lo=-0.4, hi=0.9)


# --------------------------------------------------------------------- #
# Whole analyses
# --------------------------------------------------------------------- #
class TestAnalysisParity:
    def test_fo4_transient_run(self, kernel, nominal_pair, params):
        nt, pt = nominal_pair
        vdd = 0.4
        circuit = build_inverter_chain(nt, pt, vdd, params)
        vin = circuit.node("in")
        vdd_node = circuit.node("vdd")
        circuit.fixed[vin] = 0.0
        v0 = solve_dc(circuit).voltages
        assert_bitwise(v0, ref_solve_dc(circuit))
        cycle, ramp = 40e-12, 4e-12

        def wave(t):
            t_mod = t % cycle
            if t_mod < ramp:
                return vdd * t_mod / ramp
            if t_mod < cycle / 2:
                return vdd
            if t_mod < cycle / 2 + ramp:
                return vdd * (1.0 - (t_mod - cycle / 2) / ramp)
            return 0.0

        circuit.fixed[vin] = wave
        got = simulate_transient(circuit, 2 * cycle, 0.25e-12, v0,
                                 monitor_supplies=(vdd_node,))
        times, volts, supplies = ref_simulate_transient(
            circuit, 2 * cycle, 0.25e-12, v0, monitor=(vdd_node,))
        assert_bitwise(got.time_s, times)
        assert_bitwise(got.voltages, volts)
        assert_bitwise(got.supply_currents[vdd_node], supplies[vdd_node])
        # The output really switched, so the run exercised both edges.
        out = got.v("out")
        assert out.max() > 0.3 and out.min() < 0.1

    def test_compute_vtc(self, kernel, nominal_pair, params):
        nt, pt = nominal_pair
        c = Circuit()
        vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
        c.fix(vdd, 0.4)
        c.fix(vin, 0.0)
        add_inverter(c, "inv", vin, vout, vdd, nt, pt, params)
        grid = np.linspace(0.0, 0.4, 31)
        got = compute_vtc(c, vin, vout, grid)
        expected = np.empty_like(grid)
        v_prev = None
        for k, x in enumerate(grid):
            c.fixed[vin] = float(x)
            v_prev = ref_solve_dc(c, v0=v_prev)
            expected[k] = v_prev[vout]
        assert_bitwise(got, expected)

    def test_source_current_matches_reference(self, kernel, nominal_pair,
                                              params):
        nt, pt = nominal_pair
        c = build_inverter_chain(nt, pt, 0.4, params)
        result = solve_dc(c)
        f_ref, _ = ref_static(c, result.voltages, with_jac=False)
        vdd = c.node("vdd")
        assert result.source_current(vdd) == float(f_ref[vdd])


# --------------------------------------------------------------------- #
# Plan caching
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_cached_and_dropped_on_add(self):
        c = Circuit()
        a = c.node("a")
        c.add(Resistor(a, GROUND, 1e3))
        plan = c.compile()
        assert c.compile() is plan
        c.fix(a, 1.0)  # fixing nodes keeps the plan
        assert c.compile() is plan
        c.add(Capacitor(a, GROUND, 1e-15))
        assert c.compile() is not plan
        plan = c.compile()
        c.node("b")  # a new node drops it too
        assert c.compile() is not plan

    def test_one_compile_per_vtc_sweep(self, nominal_pair, params):
        nt, pt = nominal_pair
        obs.enable()
        obs.reset()
        try:
            inverter_vtc(nt, pt, 0.4, params, n_points=61)
            counters = obs.snapshot()["counters"]
        finally:
            obs.reset()
            obs.disable()
        assert counters["circuit.plan_compiles"] == 1
        assert counters["circuit.dc_solves"] == 61

    def test_unknown_node_rejected(self):
        from repro.errors import CircuitError

        c = Circuit()
        c.node("a")
        c.add(Resistor(0, 5, 1e3))
        with pytest.raises(CircuitError, match="unknown node 5"):
            c.compile()
