"""Transient analysis: trapezoidal integration with per-step Newton.

Every dynamic element reduces to bias-dependent two-terminal
capacitances (see :meth:`repro.circuit.netlist.Circuit.add`), so the
integrator builds companion models generically:

``i_C^{n+1} = (2C/h) (v^{n+1} - v^n) - i_C^n``

(trapezoidal; the first step uses backward Euler, ``i = (C/h) dv``,
because no companion current is known yet).  ``C`` is evaluated once
per step at the previous converged solution: the bias dependence is
lagged, not integrated, so charge is not conserved exactly.  That is
standard practice for table-based simulators and accurate for the
smooth Q-V characteristics here; the charge error over a closed bias
cycle has not been measured yet.  The per-capacitor companion current
is part of the integrator state.

Everything is assembled through the circuit's compiled
:class:`~repro.circuit.plan.StampPlan`.  Per step, the capacitances
are one vectorized lookup; per step attempt, the companion
conductances are stamped once; per Newton iteration, only the device
currents and companion currents are re-evaluated.

Non-converging steps are retried with halved step size.  The supply
current is recorded every step from the static part of the step's last
converged assembly, so energy and power integrate directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.plan import Assembler
from repro.errors import ConvergenceError


@dataclass(frozen=True)
class TransientResult:
    """Waveforms of a transient run.

    Attributes
    ----------
    time_s:
        Time points (first entry is ``t0`` with the initial condition).
    voltages:
        Node voltages, shape ``(n_steps, n_nodes)``.
    supply_currents:
        For each monitored source node: current delivered by the source at
        each time point, keyed by node index.
    """

    circuit: Circuit
    time_s: np.ndarray
    voltages: np.ndarray
    supply_currents: dict[int, np.ndarray] = field(default_factory=dict)

    def v(self, node: int | str) -> np.ndarray:
        idx = self.circuit.node(node) if isinstance(node, str) else node
        if idx == GROUND:
            return np.zeros_like(self.time_s)
        return self.voltages[:, idx]

    def supply_energy_j(self, node: int | str) -> float:
        """Energy delivered by the source at ``node`` over the whole run."""
        idx = self.circuit.node(node) if isinstance(node, str) else node
        if idx not in self.supply_currents:
            raise KeyError(f"node {idx} was not monitored; pass it in "
                           "monitor_supplies when simulating")
        volt = self.v(idx)
        return float(np.trapezoid(self.supply_currents[idx] * volt,
                                  self.time_s))


def _solve_step(asm: Assembler, v_guess: np.ndarray, dv_old: np.ndarray,
                geq: np.ndarray, i_cap_prev: np.ndarray, trapezoidal: bool,
                gmin: float, tol_a: float, max_iter: int, damping_v: float
                ) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Newton for one step attempt.

    Returns ``(v, companion currents, ok, iterations)``.  The companion
    conductances ``geq`` must already be stamped into ``asm``.
    """
    free = asm.free
    v = v_guess.copy()
    for iteration in range(1, max_iter + 1):
        i_cap_new = geq * (asm.cap_voltages(v) - dv_old)
        if trapezoidal:
            i_cap_new = i_cap_new - i_cap_prev
        residual, jac = asm.assemble(v, gmin, i_cap_new)
        if np.abs(residual).max() < tol_a:
            return v, i_cap_new, True, iteration
        try:
            dv = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            return v, i_cap_new, False, iteration
        if not np.isfinite(dv).all():
            return v, i_cap_new, False, iteration
        max_step = np.abs(dv).max()
        if max_step > damping_v:
            dv *= damping_v / max_step
        v[free] += dv
    return v, i_cap_prev, False, max_iter


def simulate_transient(
    circuit: Circuit,
    t_end_s: float,
    dt_s: float,
    v0: np.ndarray,
    monitor_supplies: tuple[int | str, ...] = (),
    gmin: float = 1e-12,
    tol_a: float = 1e-13,
    max_iter: int = 40,
    damping_v: float = 0.3,
    max_step_halvings: int = 8,
) -> TransientResult:
    """Integrate the circuit from the initial state ``v0``.

    Parameters
    ----------
    v0:
        Initial node voltages (use :func:`repro.circuit.dc.solve_dc` for a
        consistent start).  Fixed-node waveforms are re-evaluated every
        step, so time-varying inputs are just callables registered with
        :meth:`Circuit.fix`.
    monitor_supplies:
        Fixed nodes whose delivered current should be recorded (e.g. the
        VDD rail, for power metrics).
    """
    circuit.validate()
    if dt_s <= 0.0 or t_end_s <= 0.0:
        raise ValueError("time step and end time must be positive")
    plan = circuit.compile()
    asm = Assembler(plan, circuit.free_nodes(), dynamic=True)
    n = circuit.n_nodes

    monitor = [circuit.node(m) if isinstance(m, str) else m
               for m in monitor_supplies]

    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (n,):
        raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
    for node, value in circuit.fixed_voltages(0.0).items():
        v[node] = value

    times = [0.0]
    traj = [v.copy()]
    supply_traces: dict[int, list[float]] = {m: [] for m in monitor}

    # Static current only; capacitive displacement currents integrate
    # to ~zero over a cycle and the builders put decoupling caps on
    # rails anyway.  The dynamic supply charge is added by the caller
    # from the waveforms when needed.
    if monitor:
        f0 = plan.static_currents(v)
        for m in monitor:
            supply_traces[m].append(float(f0[m]))

    # Initial capacitor state: zero companion current (consistent DC start).
    i_cap = np.zeros(plan.n_caps)

    t = 0.0
    first_step = True
    # Counters accumulate in locals and flush to obs once at the end:
    # the step loop is the hot path of every delay/power figure.
    n_steps = 0
    n_halvings = 0
    n_newton = 0
    with obs.span("circuit.transient", t_end_s=t_end_s, dt_s=dt_s):
        while t < t_end_s - 1e-21:
            h = min(dt_s, t_end_s - t)
            ok = False
            # Capacitances lag at the previous converged solution, so
            # they and the old branch voltages serve every attempt.
            caps = plan.capacitances(plan.extend(v))
            dv_old = asm.cap_voltages(v)
            for attempt in range(max_step_halvings + 1):
                v_try = v.copy()
                for node, value in circuit.fixed_voltages(t + h).items():
                    v_try[node] = value
                # Backward Euler on the very first step (the trapezoidal
                # companion current is not yet known - the classic SPICE
                # startup rule), trapezoidal afterwards.
                geq = caps / h if first_step else 2.0 * caps / h
                asm.stamp_companions(geq)
                v_new, i_cap_new, ok, iters = _solve_step(
                    asm, v_try, dv_old, geq, i_cap, not first_step,
                    gmin, tol_a, max_iter, damping_v)
                n_newton += iters
                if ok:
                    n_halvings += attempt
                    break
                h *= 0.5
            if not ok:
                raise ConvergenceError(
                    f"transient step failed to converge at t = {t:.3e} s "
                    f"even after {max_step_halvings} step halvings")
            t += h
            v = v_new
            i_cap = i_cap_new
            if sanitize.ACTIVE:
                sanitize.check_finite(v, "simulate_transient",
                                      f"node voltages at t={t:.6g} s")
            first_step = False
            n_steps += 1
            times.append(t)
            traj.append(v.copy())
            if monitor:
                # The converged assembly was made at exactly ``v``.
                for m, i_m in zip(monitor, asm.static_currents(monitor)):
                    supply_traces[m].append(i_m)
    if obs.ACTIVE:
        obs.incr("circuit.transient_runs")
        obs.incr("circuit.transient_steps", n_steps)
        obs.incr("circuit.step_halvings", n_halvings)
        obs.incr("circuit.transient_newton_iterations", n_newton)

    return TransientResult(
        circuit=circuit,
        time_s=np.array(times),
        voltages=np.array(traj),
        supply_currents={m: np.array(tr) for m, tr in supply_traces.items()},
    )
