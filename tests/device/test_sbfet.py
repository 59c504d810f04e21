"""Tests for the fast SBFET engine: shapes, symmetries, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import Q_E
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.device.tables import DEFAULT_VD_GRID, DEFAULT_VG_GRID


@pytest.fixture(scope="module")
def model():
    return SBFETModel(GNRFETGeometry(n_index=12))


class TestElectrostatics:
    def test_zero_bias_midgap_at_zero(self, model):
        u, _ = model.solve_midgap_ev(0.0, 0.0)
        assert u == pytest.approx(0.0, abs=5e-3)

    def test_gate_pulls_midgap_down(self, model):
        u0, _ = model.solve_midgap_ev(0.0, 0.0)
        u1, _ = model.solve_midgap_ev(0.5, 0.0)
        assert u1 < u0

    def test_quantum_capacitance_limits_swing(self, model):
        """Once the band edge crosses the Fermi level, charging feedback
        makes |dU/dVG| < gate_coupling."""
        u1, _ = model.solve_midgap_ev(0.55, 0.0)
        u2, _ = model.solve_midgap_ev(0.65, 0.0)
        slope = abs(u2 - u1) / 0.1
        assert slope < model.geometry.gate_coupling

    def test_subthreshold_slope_near_laplace(self, model):
        """Deep in the gap there is no charge: U follows the Laplace
        coupling."""
        u1, _ = model.solve_midgap_ev(0.00, 0.0)
        u2, _ = model.solve_midgap_ev(0.05, 0.0)
        slope = abs(u2 - u1) / 0.05
        assert slope == pytest.approx(model.geometry.gate_coupling,
                                      rel=0.05)

    def test_band_profile_boundary_pinning(self, model):
        """Midgap pinned at 0 at the source and -V_D at the drain."""
        profile = model.band_profile_midgap_ev(-0.3, 0.5)
        assert profile[0] == pytest.approx(0.0, abs=0.01)
        assert profile[-1] == pytest.approx(-0.5, abs=0.01)
        assert profile[len(profile) // 2] == pytest.approx(-0.3, abs=0.01)


class TestTransmission:
    def test_bounded_by_mode_count(self, model):
        profile = model.band_profile_midgap_ev(-0.2, 0.4)
        e = np.linspace(-1.5, 1.5, 101)
        t = model.transmission(e, profile)
        assert np.all(t >= 0.0)
        assert np.all(t <= len(model.modes) + 1e-9)

    def test_gap_blocks_transport(self, model):
        """Energies in the channel gap see ~zero transmission through a
        15 nm channel."""
        profile = model.band_profile_midgap_ev(0.0, 0.0)
        t = model.transmission(np.array([0.0]), profile)[0]
        assert t < 1e-6

    def test_above_barrier_transparent(self, model):
        profile = model.band_profile_midgap_ev(-0.5, 0.0)
        edge = model.modes[0].edge_ev
        t = model.transmission(np.array([edge + 0.1]), profile)[0]
        assert t > 0.5


class TestIVShape:
    def test_ambipolar_minimum_near_vd_over_2(self, model):
        """Minimum leakage at V_G ~ V_D / 2 (paper Fig. 2a)."""
        vgs = np.linspace(0.0, 0.6, 25)
        currents = np.array([model.current_at(v, 0.5) for v in vgs])
        v_min = vgs[np.argmin(currents)]
        assert v_min == pytest.approx(0.25, abs=0.08)

    def test_leakage_grows_exponentially_with_vd(self, model):
        """"the drain voltage exponentially increases the minimum
        leakage current"."""
        def min_leak(vd):
            vgs = np.linspace(0.0, 0.75, 16)
            return min(model.current_at(v, vd) for v in vgs)

        i25, i50, i75 = min_leak(0.25), min_leak(0.5), min_leak(0.75)
        assert i50 / i25 > 5.0
        assert i75 / i50 > 5.0

    def test_electron_and_hole_branches(self, model):
        """Current rises on both sides of the ambipolar minimum."""
        i_min = model.current_at(0.25, 0.5)
        assert model.current_at(0.0, 0.5) > 2.0 * i_min
        assert model.current_at(0.6, 0.5) > 2.0 * i_min

    def test_zero_vd_zero_current(self, model):
        assert model.current_at(0.4, 0.0) == 0.0

    def test_current_positive_forward_bias(self, model):
        for vg in (0.0, 0.3, 0.7):
            assert model.current_at(vg, 0.5) > 0.0

    @given(st.floats(min_value=0.0, max_value=0.75))
    @settings(max_examples=10, deadline=None)
    def test_current_increases_with_vd_n_branch(self, vg):
        m = SBFETModel(GNRFETGeometry(n_index=12))
        assert m.current_at(vg, 0.6) >= m.current_at(vg, 0.3) * 0.99


class TestCharge:
    def test_charge_sign_follows_gate(self, model):
        u_on, _ = model.solve_midgap_ev(0.75, 0.05)
        u_off, _ = model.solve_midgap_ev(-0.5, 0.05)
        assert model.channel_charge_c(u_on, 0.05) > 0.0   # electrons
        assert model.channel_charge_c(u_off, 0.05) < 0.0  # holes

    def test_solution_dataclass_complete(self, model):
        sol = model.solve_bias(0.4, 0.3)
        assert sol.bias.vg == 0.4
        assert sol.iterations > 0
        assert np.isfinite(sol.current_a)
        assert np.isfinite(sol.charge_c)
        assert sol.electron_linear_density_per_nm >= 0.0
        assert sol.hole_linear_density_per_nm >= 0.0


class TestModeSelection:
    def test_auto_mode_count_grows_with_width(self):
        m9 = SBFETModel(GNRFETGeometry(n_index=9))
        m18 = SBFETModel(GNRFETGeometry(n_index=18))
        assert len(m18.modes) > len(m9.modes)

    def test_explicit_mode_count(self):
        m = SBFETModel(GNRFETGeometry(n_index=12), n_modes=4)
        assert len(m.modes) == 4


class TestImpurityProfile:
    def test_negative_charge_raises_profile(self):
        m = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0)))
        assert m._impurity_profile_ev.max() > 0.1
        assert m._impurity_profile_ev.min() >= -1e-12

    def test_profile_peaks_at_impurity_position(self):
        m = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0,
                                                position_nm=3.0)))
        x_peak = m._x_nm[np.argmax(m._impurity_profile_ev)]
        assert x_peak == pytest.approx(3.0, abs=0.2)

    def test_no_impurity_zero_profile(self, model):
        assert np.all(model._impurity_profile_ev == 0.0)

    def test_charge_scaling(self):
        m1 = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0)))
        m2 = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-2.0)))
        assert m2._impurity_profile_ev.max() == pytest.approx(
            2.0 * m1._impurity_profile_ev.max(), rel=1e-9)


# ---------------------------------------------------------------------- #
# Kernel parity: the fused WKB kernel against the per-mode formulation
# ---------------------------------------------------------------------- #
def reference_transmission(model, energies_ev, profile_midgap_ev):
    """Per-mode ``np.where`` / ``np.trapezoid`` form of the WKB kernel.

    The direct formulation of the WKB branch of
    ``SBFETModel.transmission``: each channel's decay rate built in
    full, then integrated.  The fused kernel is held to it.
    """
    e = np.asarray(energies_ev, dtype=float)[:, None]
    u = np.asarray(profile_midgap_ev, dtype=float)[None, :]
    u_interior = float(np.median(u))
    imp = model._impurity_profile_ev
    well_e = max(0.0, -float(imp.min()))
    well_h = max(0.0, float(imp.max()))
    total = np.zeros(e.shape[0])
    for edge, hv in zip(model._edges_ev, model._hv_ev_nm):
        delta = e - u
        kappa_gap = np.sqrt(np.clip(edge ** 2 - delta ** 2, 0.0, None)) / hv
        kappa_max = edge / hv
        above_cond = delta > edge
        below_val = delta < -edge
        kappa_e = np.where(above_cond, 0.0,
                           np.where(below_val, kappa_max, kappa_gap))
        kappa_h = np.where(below_val, 0.0,
                           np.where(above_cond, kappa_max, kappa_gap))
        exp_e = 2.0 * np.trapezoid(kappa_e, dx=model._dx_nm, axis=1)
        exp_h = 2.0 * np.trapezoid(kappa_h, dx=model._dx_nm, axis=1)
        t_e = np.exp(-np.clip(exp_e, 0.0, 200.0))
        t_h = np.exp(-np.clip(exp_h, 0.0, 200.0))
        if well_e > 0.0:
            t_e = t_e * model._well_factor(
                e[:, 0] - u_interior, edge, hv, well_e)
        if well_h > 0.0:
            t_h = t_h * model._well_factor(
                -(e[:, 0] - u_interior), edge, hv, well_h)
        total += np.maximum(t_e, t_h)
    return total


def reference_residual(model, u_laplace_ev, vd):
    """The bisection residual through ``_densities_at_level``."""
    c_ins = model.geometry.insulator_capacitance_f_per_nm

    def residual(u):
        n, p = model._densities_at_level(np.array([u]), 0.0, -vd)
        return u - u_laplace_ev - Q_E * (n[0] - p[0]) / c_ins

    return residual


PARITY_GEOMETRIES = {
    "nominal": GNRFETGeometry(n_index=12),
    "wide": GNRFETGeometry(n_index=24),
    "impurity+": GNRFETGeometry(
        n_index=12, impurity=ChargeImpurity(charge_e=+1.0, position_nm=5.0)),
    "impurity-": GNRFETGeometry(
        n_index=12, impurity=ChargeImpurity(charge_e=-1.0, position_nm=5.0)),
}
# Off, ambipolar minimum (V_G ~ V_D / 2), on; equilibrium-adjacent and
# the top of the supply range.
PARITY_BIASES = [(0.0, 0.05), (0.25, 0.5), (0.375, 0.75), (0.75, 0.75),
                 (0.6, 0.3)]


class TestKernelParity:
    @pytest.mark.parametrize("name", sorted(PARITY_GEOMETRIES))
    def test_matches_per_mode_reference(self, name):
        m = SBFETModel(PARITY_GEOMETRIES[name])
        if name == "wide":
            assert len(m.modes) >= 5
        if name.startswith("impurity"):
            # Exercises the quantum-reflection well factor.
            assert np.ptp(m._impurity_profile_ev) > 0.05
        for vg, vd in PARITY_BIASES:
            u_ch, _ = m.solve_midgap_ev(vg, vd)
            energies = m._current_energy_grid(u_ch, vd)
            profile = m.band_profile_midgap_ev(u_ch, vd)
            np.testing.assert_allclose(
                m.transmission(energies, profile),
                reference_transmission(m, energies, profile),
                rtol=1e-12, atol=0.0)

    def test_counts_transmission_points(self, model):
        from repro import obs

        profile = model.band_profile_midgap_ev(-0.2, 0.4)
        energies = np.linspace(-1.0, 1.0, 37)
        obs.reset()
        obs.enable()
        try:
            model.transmission(energies, profile)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["device.sbfet.transmission_points"] == (
            37 * profile.size * len(model.modes))


class TestBisectionResidual:
    def test_bitwise_equal_to_density_lookup_form(self, model):
        rng = np.random.default_rng(7)
        for vg, vd in [(0.0, 0.0), (0.3, 0.5), (0.75, 0.75)]:
            u_laplace = model.laplace_midgap_ev(vg, vd)
            fast = model._bisection_residual(u_laplace, vd)
            slow = reference_residual(model, u_laplace, vd)
            for u in rng.uniform(u_laplace - 2.0, u_laplace + 2.0, 500):
                assert fast(float(u)) == slow(float(u))


@pytest.fixture(scope="module")
def nominal_sweep():
    return sweep_iv(GNRFETGeometry(), DEFAULT_VG_GRID, DEFAULT_VD_GRID,
                    workers=1, checkpoint=0, engine="semianalytic")


class TestSweepParity:
    """A full nominal sweep with each reference patched back in."""

    def _reference_sweep(self, monkeypatch, name, replacement):
        monkeypatch.setattr(SBFETModel, name, replacement)
        return sweep_iv(GNRFETGeometry(), DEFAULT_VG_GRID, DEFAULT_VD_GRID,
                        workers=1, checkpoint=0, engine="semianalytic")

    def test_residual_leaves_sweep_bitwise_unchanged(self, monkeypatch,
                                                      nominal_sweep):
        ref = self._reference_sweep(monkeypatch, "_bisection_residual",
                                    reference_residual)
        assert np.array_equal(nominal_sweep.midgap_ev, ref.midgap_ev)
        assert np.array_equal(nominal_sweep.charge_c, ref.charge_c)
        assert np.array_equal(nominal_sweep.current_a, ref.current_a)

    def test_kernel_moves_only_currents_in_last_bits(self, monkeypatch,
                                                     nominal_sweep):
        ref = self._reference_sweep(monkeypatch, "transmission",
                                    reference_transmission)
        assert np.array_equal(nominal_sweep.midgap_ev, ref.midgap_ev)
        assert np.array_equal(nominal_sweep.charge_c, ref.charge_c)
        np.testing.assert_allclose(nominal_sweep.current_a, ref.current_a,
                                   rtol=1e-12, atol=0.0)
