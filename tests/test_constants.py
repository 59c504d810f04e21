"""Unit and property tests for physical constants and helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import constants as c


class TestConstants:
    def test_landauer_prefactor_matches_conductance_quantum(self):
        # 2e^2/h = prefactor (A/eV): one eV of window at T=1 carries G0 * 1V.
        assert c.LANDAUER_PREFACTOR_A_PER_EV == pytest.approx(c.G_QUANTUM)

    def test_conductance_quantum_value(self):
        assert c.G_QUANTUM == pytest.approx(7.748e-5, rel=1e-3)

    def test_thermal_energy_room(self):
        assert c.KT_ROOM_EV == pytest.approx(0.02585, rel=1e-3)

    def test_armchair_period(self):
        assert c.ARMCHAIR_PERIOD_NM == pytest.approx(0.426, rel=1e-3)

    def test_fermi_velocity_scale(self):
        # Graphene v_F ~ 1e6 m/s = 1e15 nm/s.
        v_m_per_s = c.FERMI_VELOCITY_NM_PER_S * 1e-9
        assert 0.7e6 < v_m_per_s < 1.1e6


class TestThermalEnergy:
    def test_room_temperature(self):
        assert c.thermal_energy_ev(300.0) == pytest.approx(c.KT_ROOM_EV)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -300.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            c.thermal_energy_ev(bad)


class TestFermiDirac:
    def test_half_at_mu(self):
        assert c.fermi_dirac(0.3, 0.3) == pytest.approx(0.5)

    def test_limits(self):
        assert c.fermi_dirac(10.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert c.fermi_dirac(-10.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_overflow_far_from_mu(self):
        e = np.array([-500.0, 500.0])
        f = c.fermi_dirac(e, 0.0)
        assert np.all(np.isfinite(f))
        assert f[0] == pytest.approx(1.0)
        assert f[1] == pytest.approx(0.0, abs=1e-200)

    def test_one_exponential_matches_clipped_branches_bitwise(self):
        """One ``exp(-|x|)`` serves both branches with the same bits as
        evaluating each branch on its own clipped argument."""
        rng = np.random.default_rng(3)
        e = np.concatenate([rng.uniform(-5.0, 5.0, 20000),
                            rng.uniform(-0.05, 0.05, 20000),
                            [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0]])
        mu, kt = 0.013, 0.0259
        x = (e - mu) / kt
        reference = np.where(
            x > 0.0,
            np.exp(-np.clip(x, 0.0, None))
            / (1.0 + np.exp(-np.clip(x, 0.0, None))),
            1.0 / (1.0 + np.exp(np.clip(x, None, 0.0))))
        assert np.array_equal(c.fermi_dirac(e, mu, kt), reference)

    def test_rejects_nonpositive_kt(self):
        with pytest.raises(ValueError):
            c.fermi_dirac(0.0, 0.0, kt_ev=0.0)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_bounded(self, e, mu):
        f = c.fermi_dirac(e, mu)
        assert 0.0 <= f <= 1.0

    @given(st.floats(-2, 2), st.floats(min_value=1e-3, max_value=1.0))
    def test_monotone_decreasing_in_energy(self, mu, kt):
        es = np.linspace(mu - 1.0, mu + 1.0, 50)
        f = c.fermi_dirac(es, mu, kt)
        assert np.all(np.diff(f) <= 1e-12)

    @given(st.floats(-2, 2))
    def test_particle_hole_symmetry(self, de):
        # f(mu + de) + f(mu - de) = 1
        mu = 0.37
        total = c.fermi_dirac(mu + de, mu) + c.fermi_dirac(mu - de, mu)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGNRWidth:
    def test_paper_value_n9(self):
        # Paper: N=9 has a width of ~1.1 nm (we get 0.98 from the dimer
        # line definition; same 1 nm scale).
        assert c.gnr_width_nm(9) == pytest.approx(0.984, abs=0.01)

    def test_paper_increment_per_family_step(self):
        # "the index is increased in steps of 3, or equivalently, by an
        # incremental width of 3.7 A"
        dw = c.gnr_width_nm(12) - c.gnr_width_nm(9)
        assert dw == pytest.approx(0.369, abs=0.002)

    @given(st.integers(min_value=2, max_value=200))
    def test_monotone_in_index(self, n):
        assert c.gnr_width_nm(n + 1) > c.gnr_width_nm(n)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            c.gnr_width_nm(1)
