"""DC operating point: damped Newton with source stepping.

The residual at each free node is the sum of element currents flowing out
of it (KCL); fixed nodes (supplies, inputs) contribute known voltages.  A
small ``gmin`` conductance to ground conditions the Jacobian in cut-off
regions where table derivatives vanish.

Every Newton iteration assembles through the circuit's compiled
:class:`~repro.circuit.plan.StampPlan` (the device current lookups,
then one ``np.bincount`` per array), as do the source currents of
:meth:`DCResult.source_current`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.plan import Assembler
from repro.errors import ConvergenceError


@dataclass(frozen=True)
class DCResult:
    """Converged DC solution.

    ``voltages`` is the full node-voltage vector (fixed nodes included);
    use :func:`node_current` / :meth:`source_current` for source currents.
    """

    circuit: Circuit
    voltages: np.ndarray
    iterations: int

    def voltage(self, node: int | str) -> float:
        idx = self.circuit.node(node) if isinstance(node, str) else node
        return 0.0 if idx == GROUND else float(self.voltages[idx])

    def source_current(self, node: int | str) -> float:
        """Current delivered *by* the source pinning ``node`` (A).

        Positive when the source pushes current into the circuit.
        """
        idx = self.circuit.node(node) if isinstance(node, str) else node
        # The net element current flowing out of the node into the
        # elements; the source supplies exactly that.
        f = self.circuit.compile().static_currents(self.voltages)
        return float(f[idx])


def _newton(asm: Assembler, v: np.ndarray, gmin: float, tol_a: float,
            max_iter: int, damping_v: float
            ) -> tuple[np.ndarray, int, bool]:
    free = asm.free
    for iteration in range(1, max_iter + 1):
        residual, j_ff = asm.assemble(v, gmin)
        if np.abs(residual).max() < tol_a:
            return v, iteration, True
        try:
            dv = np.linalg.solve(j_ff, -residual)
        except np.linalg.LinAlgError:
            return v, iteration, False
        if not np.isfinite(dv).all():
            return v, iteration, False
        # Voltage-step damping keeps table FETs in a sane region.
        max_step = np.abs(dv).max()
        if max_step > damping_v:
            dv *= damping_v / max_step
        v = v.copy()
        v[free] += dv
    return v, max_iter, False


def solve_dc(
    circuit: Circuit,
    v0: np.ndarray | None = None,
    t: float = 0.0,
    gmin: float = 1e-12,
    tol_a: float = 1e-14,
    max_iter: int = 200,
    damping_v: float = 0.2,
    source_steps: int = 8,
) -> DCResult:
    """Solve the DC operating point.

    Strategy: plain damped Newton from ``v0`` (or from all fixed voltages
    applied, free nodes at the average rail voltage); on failure, source
    stepping — ramp every fixed voltage from 0 to its target over
    ``source_steps`` stages, re-converging at each stage.

    ``v0`` also selects the basin for bistable circuits (latches).
    """
    circuit.validate()
    fixed = circuit.fixed_voltages(t)
    free = circuit.free_nodes()
    n = circuit.n_nodes

    if v0 is not None:
        v = np.asarray(v0, dtype=float).copy()
        if v.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
    else:
        v = np.zeros(n)
        if fixed:
            v[free] = 0.5 * float(np.mean(list(fixed.values())))
    for node, value in fixed.items():
        v[node] = value

    asm = Assembler(circuit.compile(), free)
    v_sol, iters, ok = _newton(asm, v, gmin, tol_a, max_iter, damping_v)
    if ok:
        if sanitize.ACTIVE:
            sanitize.check_finite(v_sol, "solve_dc", "node voltages")
        if obs.ACTIVE:
            obs.incr("circuit.dc_solves")
            obs.incr("circuit.newton_iterations", iters)
            obs.observe("circuit.dc_newton_iterations", iters)
        return DCResult(circuit=circuit, voltages=v_sol, iterations=iters)

    # Source stepping from zero bias.
    v = np.zeros(n)
    total_iters = iters
    for step in range(1, source_steps + 1):
        frac = step / source_steps
        for node, value in fixed.items():
            v[node] = frac * value
        v, it, ok = _newton(asm, v, gmin, tol_a, max_iter, damping_v)
        total_iters += it
        if not ok:
            # Retry this stage with a larger gmin before giving up.
            v, it, ok = _newton(asm, v, gmin * 1e3, tol_a * 10,
                                max_iter, damping_v)
            total_iters += it
            if not ok:
                raise ConvergenceError(
                    f"DC source stepping failed at {frac:.0%} of supply",
                    iterations=total_iters)
    if sanitize.ACTIVE:
        sanitize.check_finite(v, "solve_dc", "node voltages")
    if obs.ACTIVE:
        obs.incr("circuit.dc_solves")
        obs.incr("circuit.dc_source_stepped")
        obs.incr("circuit.newton_iterations", total_iters)
        obs.observe("circuit.dc_newton_iterations", total_iters)
    return DCResult(circuit=circuit, voltages=v, iterations=total_iters)
