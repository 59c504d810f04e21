"""Tests for NAND2/NOR2 gate builders and characterization."""

import numpy as np
import pytest

from repro.circuit.gates import (
    build_nand2,
    build_nor2,
    characterize_gate,
    gate_static_power_w,
    gate_truth_table,
)


class TestTruthTables:
    def test_nand2_logic(self, nominal_pair, params):
        nt, pt = nominal_pair
        circuit = build_nand2(nt, pt, 0.4, params)
        levels = gate_truth_table(circuit, 0.4)
        assert levels[(False, False)] > 0.3
        assert levels[(False, True)] > 0.3
        assert levels[(True, False)] > 0.3
        assert levels[(True, True)] < 0.1

    def test_nor2_logic(self, nominal_pair, params):
        nt, pt = nominal_pair
        circuit = build_nor2(nt, pt, 0.4, params)
        levels = gate_truth_table(circuit, 0.4)
        assert levels[(False, False)] > 0.3
        assert levels[(False, True)] < 0.1
        assert levels[(True, False)] < 0.1
        assert levels[(True, True)] < 0.1

    def test_validate(self, nominal_pair, params):
        nt, pt = nominal_pair
        build_nand2(nt, pt, 0.4, params).validate()
        build_nor2(nt, pt, 0.4, params).validate()


class TestStaticPower:
    def test_positive(self, nominal_pair, params):
        nt, pt = nominal_pair
        circuit = build_nand2(nt, pt, 0.4, params)
        assert gate_static_power_w(circuit, 0.4) > 0.0

    def test_gate_leaks_same_order_as_inverter(self, nominal_pair, params):
        from repro.circuit.inverter import inverter_static_power_w

        nt, pt = nominal_pair
        p_inv = inverter_static_power_w(nt, pt, 0.4, params)
        p_nand = gate_static_power_w(build_nand2(nt, pt, 0.4, params), 0.4)
        assert 0.3 * p_inv < p_nand < 6.0 * p_inv


class TestCharacterization:
    @pytest.fixture(scope="class")
    def nand_metrics(self, nominal_pair, params):
        nt, pt = nominal_pair
        return characterize_gate("nand2", nt, pt, 0.4, params)

    def test_delay_scale(self, nand_metrics):
        """NAND2 with FO4 load: same few-ps class as the inverter,
        slower than it (series stack)."""
        assert 3e-12 < nand_metrics.worst_delay_s < 60e-12

    def test_both_pins_measured(self, nand_metrics):
        assert set(nand_metrics.delays_s) == {"a", "b"}
        assert all(np.isfinite(d) for d in nand_metrics.delays_s.values())

    def test_nand_slower_than_inverter(self, nand_metrics, nominal_pair,
                                       params):
        from repro.circuit.inverter import characterize_inverter

        nt, pt = nominal_pair
        inv = characterize_inverter(nt, pt, 0.4, params)
        assert nand_metrics.worst_delay_s > 0.9 * inv.delay_s

    def test_unknown_kind(self, nominal_pair, params):
        nt, pt = nominal_pair
        with pytest.raises(ValueError):
            characterize_gate("xor2", nt, pt, 0.4, params)

    @pytest.mark.parametrize("failing_pin", ["a", "b"])
    def test_failed_pin_makes_worst_delay_nan(self, failing_pin,
                                              nominal_pair, params,
                                              monkeypatch):
        """The worst delay is NaN whichever pin failed to switch."""
        import repro.circuit.gates as gates
        from repro.errors import AnalysisError

        measure = gates.propagation_delays
        calls = []

        def flaky(*args, **kwargs):
            pin = "ab"[len(calls)]
            calls.append(pin)
            if pin == failing_pin:
                raise AnalysisError("output never crossed mid-swing")
            return measure(*args, **kwargs)

        monkeypatch.setattr(gates, "propagation_delays", flaky)
        nt, pt = nominal_pair
        metrics = characterize_gate("nand2", nt, pt, 0.4, params)
        assert calls == ["a", "b"]
        assert np.isnan(metrics.delays_s[failing_pin])
        other = "b" if failing_pin == "a" else "a"
        assert np.isfinite(metrics.delays_s[other])
        assert np.isnan(metrics.worst_delay_s)
