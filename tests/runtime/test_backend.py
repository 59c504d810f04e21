"""Array-backend selection, fallback accounting, and numba parity.

The numba leg runs only where the optional package is installed (the CI
optional-backend job); everywhere else it skips, keeping the numpy-only
environment the tested default.
"""

import numpy as np
import pytest

from repro import obs
from repro.runtime.backend import (
    BACKEND_ENV,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ArrayBackend,
    BackendUnavailableError,
    active_backend,
    available_backends,
    backend_name,
    record_fallback,
    record_kernel,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert backend_name() == DEFAULT_BACKEND == "numpy"
        backend = active_backend()
        assert backend.name == "numpy"
        # The numpy backend exposes NO fused kernels: the inline
        # recurrences run unchanged, bit-for-bit pre-backend behavior.
        assert backend.sancho_rubio is None
        assert backend.rgf_transmission is None

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "NumPy")
        assert backend_name() == "numpy"
        monkeypatch.setenv(BACKEND_ENV, "  ")
        assert backend_name() == "numpy"

    def test_unknown_name_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "torch")
        with pytest.raises(BackendUnavailableError):
            active_backend()

    def test_missing_runtime_fails_loudly(self, monkeypatch):
        """Naming an uninstalled backend must raise, never silently run
        numpy (fictitious benchmark numbers otherwise)."""
        availability = available_backends()
        assert availability["numpy"] is True
        monkeypatch.setenv(BACKEND_ENV, "numba")
        if availability["numba"]:
            assert active_backend().name == "numba"
        else:
            with pytest.raises(BackendUnavailableError):
                active_backend()

    def test_names_registry(self):
        assert BACKEND_NAMES == ("numpy", "numba")


class TestCounters:
    def test_resolution_counted(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        obs.enable()
        active_backend()
        active_backend()
        assert obs.snapshot()["counters"]["backend.resolve.numpy"] == 2

    def test_numpy_fallback_not_counted(self):
        obs.enable()
        record_fallback("rgf_transmission", ArrayBackend(name="numpy"))
        assert "backend.numpy_fallbacks" not in obs.snapshot()["counters"]

    def test_foreign_fallback_counted(self):
        obs.enable()
        record_fallback("rgf_transmission", ArrayBackend(name="numba"))
        counters = obs.snapshot()["counters"]
        assert counters["backend.numpy_fallbacks"] == 1
        assert counters["backend.numba.fallback.rgf_transmission"] == 1

    def test_kernel_dispatch_counted(self):
        obs.enable()
        record_kernel("sancho_rubio", ArrayBackend(name="numba"))
        assert obs.snapshot()["counters"]["backend.numba.sancho_rubio"] == 1


class TestNumpyDefaultUnchanged:
    def test_transport_runs_on_inline_path(self, monkeypatch):
        """With the default backend the batched kernels take the inline
        recurrences — the dispatch must not perturb results."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        from repro.device.negf_realspace import RealSpaceGNRDevice

        energies = np.linspace(-0.8, 0.8, 21)
        device = RealSpaceGNRDevice(7, 6)
        batched = device.transport(energies, batched=True).transmission
        loop = device.transport(energies, batched=False).transmission
        np.testing.assert_allclose(batched, loop, atol=1e-8)


class TestNumbaParity:
    """Bitwise numba-vs-numpy parity (runs only where numba exists)."""

    @pytest.fixture(autouse=True)
    def _require_numba(self):
        pytest.importorskip("numba")

    def _case(self):
        from repro.device.negf_modespace import reduced_lead_blocks

        # Reduced N=12 lead blocks: small, real device matrices whose
        # decimation is known to converge across the window.
        r00, r01 = reduced_lead_blocks(12, 4)
        energies = np.linspace(-1.2, 1.2, 17)
        return energies, np.array(r00), np.array(r01), 6

    def test_sancho_rubio_bitwise(self, monkeypatch):
        from repro.negf.self_energy import sancho_rubio_surface_gf_batched

        energies, h00, h01, _ = self._case()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        ref = sancho_rubio_surface_gf_batched(energies, h00, h01)
        monkeypatch.setenv(BACKEND_ENV, "numba")
        jit = sancho_rubio_surface_gf_batched(energies, h00, h01)
        np.testing.assert_array_equal(ref, jit)

    def test_rgf_transmission_bitwise(self, monkeypatch):
        from repro.negf.greens import rgf_transmission_batched
        from repro.negf.self_energy import wide_band_self_energy

        energies, h00, h01, cells = self._case()
        diagonal = [h00.copy() for _ in range(cells)]
        coupling = [h01.copy() for _ in range(cells - 1)]
        sigma = np.broadcast_to(
            wide_band_self_energy(1.0, h00.shape[0]),
            (energies.size, h00.shape[0], h00.shape[0])).copy()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        ref = rgf_transmission_batched(energies, diagonal, coupling,
                                       sigma, sigma)
        monkeypatch.setenv(BACKEND_ENV, "numba")
        jit = rgf_transmission_batched(energies, diagonal, coupling,
                                       sigma, sigma)
        np.testing.assert_array_equal(ref, jit)

    def test_device_transport_bitwise(self, monkeypatch):
        from repro.device.negf_modespace import ModeSpaceGNRDevice

        energies = np.linspace(-0.8, 0.8, 21)
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        ref = ModeSpaceGNRDevice(12, 8, n_modes=4).transport(
            energies).transmission
        monkeypatch.setenv(BACKEND_ENV, "numba")
        jit = ModeSpaceGNRDevice(12, 8, n_modes=4).transport(
            energies).transmission
        np.testing.assert_array_equal(ref, jit)
