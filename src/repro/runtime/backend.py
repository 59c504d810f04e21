"""Pluggable array backend for the hot NEGF kernels.

The energy-batched Sancho-Rubio decimation and RGF transmission sweeps
(:mod:`repro.negf.self_energy`, :mod:`repro.negf.greens`) spend their
time in stacked LAPACK/BLAS calls glued together by a thin Python
recurrence.  That glue is where an alternative array runtime can win: a
JIT that fuses the per-energy loop (numba) removes the stacked-temporary
traffic.  This module is the seam such a runtime plugs into.

Design rules
------------
* **numpy is the default and the reference.**  The numpy backend
  provides *no* fused kernels, so the existing inline recurrences run
  unchanged — bit-for-bit the pre-backend behavior.  Every other
  backend is opt-in via ``REPRO_BACKEND`` and validated against numpy
  in the test suite.
* **Selection is explicit and fails loudly.**  Naming a backend whose
  runtime is not importable raises :class:`BackendUnavailableError` at
  resolution time; nothing silently falls back, because a benchmark
  that quietly ran on numpy would report fictitious numbers.
* **Kernels are optional per backend.**  A backend exposes
  ``sancho_rubio`` / ``rgf_transmission`` fused kernels or ``None``;
  callers consult :func:`active_backend` and fall back to the inline
  numpy path when a kernel is missing (counted under
  ``backend.numpy_fallbacks``), e.g. for non-uniform block sizes or
  under the sanitizer, whose checks need the recurrence internals.

Environment
-----------
``REPRO_BACKEND``
    ``numpy`` (default) or ``numba`` (JIT'd per-energy kernels;
    requires the optional numba package).  Checked at every resolution,
    so tests can flip it mid-process.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.errors import ReproError

#: Environment variable selecting the array backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Names accepted by ``REPRO_BACKEND`` (empty means numpy).
BACKEND_NAMES = ("numpy", "numba")

DEFAULT_BACKEND = "numpy"


class BackendUnavailableError(ReproError):
    """Requested array backend cannot run in this environment."""


@dataclass(frozen=True)
class ArrayBackend:
    """One array runtime and its fused NEGF kernels.

    Attributes
    ----------
    name:
        Backend identifier (``numpy`` / ``numba``).
    sancho_rubio:
        Fused surface-GF decimation kernel with the signature of
        :func:`repro.negf.self_energy.sancho_rubio_surface_gf_batched`
        (returns the ``(n_energy, n, n)`` stack plus a per-energy
        converged mask), or ``None`` to use the inline numpy path.
    rgf_transmission:
        Fused RGF transmission kernel over uniform block stacks
        ``(energies, diag_stack, coup_stack, sigma_l, sigma_r, eta)``,
        or ``None`` to use the inline numpy path.
    """

    name: str
    sancho_rubio: Callable[..., Any] | None = None
    rgf_transmission: Callable[..., Any] | None = None


def backend_name() -> str:
    """Backend selected by ``REPRO_BACKEND`` (default ``numpy``).

    Read from the environment at every call — never cached at import —
    so drivers and tests can flip backends mid-process.
    """
    raw = os.environ.get(BACKEND_ENV, "").strip().lower()
    return raw or DEFAULT_BACKEND


def _module_available(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


def available_backends() -> dict[str, bool]:
    """Importability of each known backend in this environment."""
    return {
        "numpy": True,
        "numba": _module_available("numba"),
    }


_NUMPY_BACKEND = ArrayBackend(name="numpy")

# Constructed backends, keyed by name (the numba JIT warm-up is paid
# once per process).
_CACHE: dict[str, ArrayBackend] = {"numpy": _NUMPY_BACKEND}


def _build_backend(name: str) -> ArrayBackend:
    if name == "numpy":
        return _NUMPY_BACKEND
    if name == "numba":
        if not _module_available("numba"):
            raise BackendUnavailableError(
                "REPRO_BACKEND=numba but the numba package is not "
                "installed; install numba or unset REPRO_BACKEND "
                "(the numpy default needs no extra packages)")
        from repro.runtime import backend_numba

        return ArrayBackend(
            name="numba",
            sancho_rubio=backend_numba.sancho_rubio_batched,
            rgf_transmission=backend_numba.rgf_transmission_batched,
        )
    raise BackendUnavailableError(
        f"unknown array backend {name!r}; expected one of "
        f"{', '.join(BACKEND_NAMES)}")


def active_backend() -> ArrayBackend:
    """Resolve the selected backend (see :func:`backend_name`).

    Raises :class:`BackendUnavailableError` for unknown names and for
    backends whose runtime is not importable.  Resolution is counted
    under ``backend.resolve.<name>`` when tracing is active.
    """
    name = backend_name()
    backend = _CACHE.get(name)
    if backend is None:
        backend = _build_backend(name)
        _CACHE[name] = backend
    if obs.ACTIVE:
        obs.incr(f"backend.resolve.{backend.name}")
    return backend


def record_kernel(kernel: str, backend: ArrayBackend) -> None:
    """Count one fused-kernel dispatch (``backend.<name>.<kernel>``)."""
    if obs.ACTIVE:
        obs.incr(f"backend.{backend.name}.{kernel}")


def record_fallback(kernel: str, backend: ArrayBackend) -> None:
    """Count one inline-numpy fallback taken by a non-numpy backend."""
    if obs.ACTIVE and backend.name != "numpy":
        obs.incr("backend.numpy_fallbacks")
        obs.incr(f"backend.{backend.name}.fallback.{kernel}")
