"""Tests for netlist construction and validation."""

import pytest

from repro.circuit.elements import Resistor
from repro.circuit.netlist import Circuit, GROUND
from repro.errors import CircuitError


class TestNodes:
    def test_ground_aliases(self):
        c = Circuit()
        assert c.node("0") == GROUND
        assert c.node("gnd") == GROUND
        assert c.node("ground") == GROUND

    def test_node_creation_idempotent(self):
        c = Circuit()
        a = c.node("a")
        assert c.node("a") == a
        assert c.n_nodes == 1

    def test_node_name_roundtrip(self):
        c = Circuit()
        idx = c.node("out")
        assert c.node_name(idx) == "out"
        assert c.node_name(GROUND) == "gnd"


class TestFixedNodes:
    def test_fix_by_name(self):
        c = Circuit()
        c.node("vdd")
        c.fix("vdd", 0.8)
        assert c.fixed_voltages()[c.node("vdd")] == 0.8

    def test_fix_waveform(self):
        c = Circuit()
        c.fix(c.node("in"), lambda t: 2.0 * t)
        assert c.fixed_voltages(0.5)[c.node("in")] == 1.0

    def test_cannot_fix_ground(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.fix("0", 1.0)

    def test_free_nodes_excludes_fixed(self):
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.fix(a, 1.0)
        assert list(c.free_nodes()) == [b]


class TestValidation:
    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().validate()

    def test_dangling_node_rejected(self):
        c = Circuit()
        a = c.node("a")
        c.node("floating")
        c.add(Resistor(a, GROUND, 1e3))
        with pytest.raises(CircuitError):
            c.validate()

    def test_dangling_fixed_node_allowed(self):
        """A fixed node with no elements is a harmless source stub."""
        c = Circuit()
        a = c.node("a")
        c.add(Resistor(a, GROUND, 1e3))
        c.fix(c.node("unused_rail"), 1.0)
        c.validate()

    def test_unsupported_element_rejected(self):
        class Diode:
            nodes = (0, GROUND)

        c = Circuit()
        c.node("a")
        with pytest.raises(CircuitError, match="unsupported"):
            c.add(Diode())
        assert c.elements == []

    def test_valid_circuit_passes(self):
        c = Circuit()
        c.add(Resistor(c.node("a"), GROUND, 1e3))
        c.validate()
