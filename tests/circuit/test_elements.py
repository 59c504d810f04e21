"""Tests for circuit elements as compiled into a stamp plan: stamps,
polarity mirroring, derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.elements import Capacitor, CurrentSource, Resistor, TableFET
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.plan import Assembler
from repro.device.tables import DeviceTable


def _plan(n_nodes, *elements):
    """Compile ``elements`` over nodes ``0 .. n_nodes-1``."""
    c = Circuit()
    for k in range(n_nodes):
        c.node(f"n{k}")
    for el in elements:
        c.add(el)
    return c.compile()


def _static(plan, v):
    """Static node currents (the plan's ``f`` without gmin)."""
    return plan.static_currents(np.asarray(v, dtype=float))


def _jacobian(plan, v):
    """Static Jacobian over all nodes (gmin = 0)."""
    asm = Assembler(plan, np.arange(plan.n_nodes))
    _, jac = asm.assemble(np.asarray(v, dtype=float), 0.0)
    return jac


def _caps(plan, v):
    """``(node_a, node_b, farads)`` per capacitor, ground as GROUND."""
    c = plan.capacitances(plan.extend(np.asarray(v, dtype=float)))
    n = plan.n_nodes

    def node(x):
        return GROUND if x == n else int(x)

    return [(node(a), node(b), float(cap))
            for a, b, cap in zip(plan.cap_a, plan.cap_b, c)]


def _fet_current(plan, v):
    """Drain-to-source channel current of a FET with its drain on node 0."""
    return float(_static(plan, v)[0])


def _toy_table():
    vg = np.linspace(-1.0, 1.5, 26)
    vd = np.linspace(0.0, 1.0, 11)
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    current = 1e-6 * np.clip(gg, 0, None) * dd  # crude FET-like
    charge = 1e-18 * (gg + 0.5 * dd)
    return DeviceTable(vg=vg, vd=vd, current_a=current, charge_c=charge)


class TestResistor:
    def test_stamp_current_and_jacobian(self):
        plan = _plan(2, Resistor(0, 1, 2e3))
        v = np.array([1.0, 0.0])
        f = _static(plan, v)
        jac = _jacobian(plan, v)
        assert f[0] == pytest.approx(5e-4)
        assert f[1] == pytest.approx(-5e-4)
        assert jac[0, 0] == pytest.approx(5e-4 / 1.0)

    def test_ground_terminal(self):
        plan = _plan(1, Resistor(0, GROUND, 1e3))
        f = _static(plan, [2.0])
        assert f[0] == pytest.approx(2e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Resistor(0, 1, 0.0)


class TestCapacitor:
    def test_no_static_current(self):
        plan = _plan(2, Capacitor(0, 1, 1e-15))
        f = _static(plan, [1.0, 0.0])
        assert np.all(f == 0.0)

    def test_cap_stamp(self):
        plan = _plan(2, Capacitor(0, 1, 1e-15))
        stamps = _caps(plan, np.zeros(2))
        assert stamps == [(0, 1, 1e-15)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Capacitor(0, 1, -1e-15)


class TestCurrentSource:
    def test_injection(self):
        plan = _plan(2, CurrentSource(0, 1, 2e-6))
        f = _static(plan, np.zeros(2))
        assert f[0] == pytest.approx(2e-6)
        assert f[1] == pytest.approx(-2e-6)


class TestTableFETNType:
    def test_current_direction(self):
        t = _toy_table()
        plan = _plan(2, TableFET(drain=0, gate=1, source=GROUND, table=t))
        v = np.array([0.5, 1.0])  # vds=0.5, vgs=1.0
        f = _static(plan, v)
        expected = t.current(1.0, 0.5)
        assert f[0] == pytest.approx(expected)   # out of drain node
        assert expected > 0.0

    def test_jacobian_matches_finite_difference(self):
        t = _toy_table()
        plan = _plan(3, TableFET(0, 1, 2, t))
        v = np.array([0.62, 0.81, 0.13])
        jac = _jacobian(plan, v)
        h = 1e-7
        for col in range(3):
            vp = v.copy(); vp[col] += h
            vm = v.copy(); vm[col] -= h
            fd = (_static(plan, vp) - _static(plan, vm)) / (2 * h)
            assert np.allclose(jac[:, col], fd, atol=1e-9)

    def test_kcl_consistency(self):
        """Drain and source currents are equal and opposite; gate draws
        no static current."""
        t = _toy_table()
        plan = _plan(3, TableFET(0, 1, 2, t))
        f = _static(plan, [0.7, 0.9, 0.1])
        assert f[0] == pytest.approx(-f[2])
        assert f[1] == 0.0


class TestTableFETPType:
    def test_mirror_relation(self):
        """I_p(vgs, vds) = -I_n(-vgs, -vds)."""
        t = _toy_table()
        nfet = _plan(3, TableFET(0, 1, 2, t, polarity=+1))
        pfet = _plan(3, TableFET(0, 1, 2, t, polarity=-1))
        v_p = np.array([-0.4, -0.8, 0.0])  # p-device biased negatively
        assert _fet_current(pfet, v_p) == pytest.approx(
            -_fet_current(nfet, -v_p), abs=1e-15)

    def test_p_jacobian_finite_difference(self):
        t = _toy_table()
        pfet = _plan(3, TableFET(0, 1, 2, t, polarity=-1))
        v = np.array([0.1, 0.0, 0.8])  # source high: pFET conducting
        jac = _jacobian(pfet, v)
        h = 1e-7
        for col in range(3):
            vp = v.copy(); vp[col] += h
            vm = v.copy(); vm[col] -= h
            fp = _static(pfet, vp)
            fm = _static(pfet, vm)
            assert np.allclose(jac[:, col], (fp - fm) / (2 * h), atol=1e-9)

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            TableFET(0, 1, 2, _toy_table(), polarity=0)


class TestTableFETCapacitors:
    def test_parasitics_added(self):
        t = _toy_table()
        plan = _plan(3, TableFET(0, 1, 2, t, c_par_gs_f=1e-18,
                                 c_par_gd_f=2e-18))
        stamps = _caps(plan, np.zeros(3))
        (g1, s1, cgs), (g2, d2, cgd) = stamps
        assert (g1, s1) == (1, 2)
        assert (g2, d2) == (1, 0)
        assert cgs >= 1e-18
        assert cgd >= 2e-18

    @given(st.floats(min_value=-0.5, max_value=1.0),
           st.floats(min_value=-0.5, max_value=1.0))
    @settings(max_examples=25)
    def test_capacitances_always_nonnegative(self, vd, vg):
        plan = _plan(2, TableFET(0, 1, GROUND, _toy_table()))
        stamps = _caps(plan, np.array([vd, vg]))
        for _, _, c in stamps:
            assert c >= 0.0
