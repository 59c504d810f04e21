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

Everything is assembled through a compiled
:class:`~repro.circuit.plan.StampPlan`.  Per step, the capacitances
are one vectorized lookup; per step attempt, the companion
conductances are stamped once; per Newton iteration, only the device
currents and companion currents are re-evaluated.

Non-converging steps are retried with halved step size.  The supply
current is recorded every step from the static part of the step's last
converged assembly, so energy and power integrate directly.

Lockstep lanes: :func:`simulate_transients` integrates independent
circuits of one plan shape (the variants of a variability study) as
*lanes* of one stacked plan.  Each step then makes one table lookup,
one ``np.bincount`` per array and one batched ``np.linalg.solve`` for
all lanes, instead of one each per lane.  Every lane keeps its own
time, step size, step halvings, Newton iterations and end time; a lane
that converges first waits, unchanged, until the others finish the
step, and a lane that reaches its end time leaves the batch.  The
stacked lookup is element-wise, the lanes' slots are disjoint, and
the batched solve factors each lane's matrix on its own, so every lane
is bitwise equal to integrating its circuit alone.
:func:`simulate_transient` is the one-lane case of the same loop.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.plan import Assembler, StampPlan
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


def _newton(asm: Assembler, v: np.ndarray, pending: list[int],
            v_cap_old: np.ndarray, geq: np.ndarray,
            i_cap_old: np.ndarray | None, i_cap_out: np.ndarray,
            gmin: float, tol_a: float, max_iter: int, damping_v: float
            ) -> tuple[list[int], int]:
    """Newton for one step attempt of the lanes ``pending``.

    Iterates those rows of ``v`` in place; every other lane holds still
    (it is assembled with the rest, its results unused).  A converged
    lane's companion currents go to its row of ``i_cap_out``.  Returns
    the lanes that failed and the iterations made, summed over lanes.
    The companion conductances ``geq`` must already be stamped into
    ``asm``.  Lane bookkeeping is plain Python: a batch holds a few
    dozen lanes at most, and per-lane NumPy calls would cost more.
    """
    lanes = v.shape[0]
    flat = v.reshape(-1)
    free_x = asm.free_x
    run = pending
    full = len(run) == lanes
    failed: list[int] = []
    iterations = 0
    for iteration in range(1, max_iter + 1):
        i_cap, residual, jac = asm.assemble_step(v, gmin, geq, v_cap_old,
                                                 i_cap_old)
        if not full:
            residual, jac = residual[run], jac[run]
        # ``not r < tol`` keeps a NaN residual iterating, as it fails.
        worst = np.abs(residual).max(axis=1).tolist()
        going = [k for k, r in enumerate(worst) if not r < tol_a]
        if len(going) < len(run):
            if full and not going:
                i_cap_out[:] = i_cap.reshape(lanes, -1)
                return failed, iterations + iteration * lanes
            done = [lane for lane, r in zip(run, worst) if r < tol_a]
            i_cap_out[done] = i_cap.reshape(lanes, -1)[done]
            iterations += iteration * len(done)
            if not going:
                return failed, iterations
            run = [run[k] for k in going]
            residual, jac = residual[going], jac[going]
            full = False
        # Solving for +residual and subtracting is bitwise the same as
        # solving for -residual and adding: LU is sign-symmetric.
        dv = _solve(jac, residual)
        # A NaN or inf anywhere in a row makes its max NaN or inf.
        steps = np.abs(dv).max(axis=1).tolist()
        if not all(map(math.isfinite, steps)):
            going = [k for k, m in enumerate(steps) if math.isfinite(m)]
            stuck = [lane for lane, m in zip(run, steps)
                     if not math.isfinite(m)]
            failed += stuck
            iterations += iteration * len(stuck)
            if not going:
                return failed, iterations
            run = [run[k] for k in going]
            dv, steps = dv[going], [steps[k] for k in going]
            full = False
        if max(steps) > damping_v:
            # Multiplying by 1.0 leaves the undamped lanes exact.
            dv *= np.array([damping_v / m if m > damping_v else 1.0
                            for m in steps])[:, None]
        if full:
            flat[asm.free_flat] -= dv.reshape(-1)
        else:
            flat[free_x[run]] -= dv
    return failed + run, iterations + max_iter * len(run)


def _solve(jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Every lane's Newton update; NaN rows mark singular lanes.

    The stacked and the single ``np.linalg.solve`` make the same LAPACK
    call per matrix; one lane uses the single form, which is cheaper.
    """
    try:
        if len(jac) == 1:
            return np.linalg.solve(jac[0], residual[0])[None]
        return np.linalg.solve(jac, residual[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dv = np.full(residual.shape, np.nan)
        for k in range(len(jac)):
            try:
                dv[k] = np.linalg.solve(jac[k], residual[k])
            except np.linalg.LinAlgError:
                pass
        return dv


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
    return _integrate([circuit], circuit.compile(), [t_end_s], [dt_s],
                      [v0], monitor_supplies, gmin, tol_a, max_iter,
                      damping_v, max_step_halvings)[0]


def simulate_transients(
    circuits: Sequence[Circuit],
    t_end_s: float | Sequence[float],
    dt_s: float | Sequence[float],
    v0: Sequence[np.ndarray],
    monitor_supplies: tuple[int | str, ...] = (),
    gmin: float = 1e-12,
    tol_a: float = 1e-13,
    max_iter: int = 40,
    damping_v: float = 0.3,
    max_step_halvings: int = 8,
) -> list[TransientResult]:
    """Integrate circuits of one plan shape in lockstep, one lane each.

    Each lane's result is bitwise equal to :func:`simulate_transient`
    of its circuit alone.  ``t_end_s`` and ``dt_s`` are shared or given
    per lane; ``v0`` holds one initial state per lane.  The circuits
    must compile to the same plan shape (the same elements in the same
    order on the same nodes, with the same nodes fixed); their tables,
    element values and waveforms may differ.
    """
    circuits = list(circuits)
    lanes = len(circuits)
    if not lanes:
        return []
    t_end = np.broadcast_to(np.asarray(t_end_s, dtype=float),
                            (lanes,)).tolist()
    dt = np.broadcast_to(np.asarray(dt_s, dtype=float), (lanes,)).tolist()
    if len(v0) != lanes:
        raise ValueError(f"need one initial state per lane ({lanes}), "
                         f"got {len(v0)}")
    for circuit in circuits:
        circuit.validate()
    _check_lanes(circuits)
    plan = (circuits[0].compile() if lanes == 1
            else StampPlan.stacked(circuits))
    return _integrate(circuits, plan, t_end, dt, list(v0), monitor_supplies,
                      gmin, tol_a, max_iter, damping_v, max_step_halvings)


def _check_lanes(circuits: list[Circuit]) -> None:
    """Raise ``ValueError`` unless every circuit has the plan shape and
    the fixed nodes of the first."""
    first = circuits[0].compile()
    free = circuits[0].free_nodes()
    for k, circuit in enumerate(circuits[1:], start=1):
        plan = circuit.compile()
        same = (plan.n_nodes == first.n_nodes
                and np.array_equal(circuit.free_nodes(), free)
                and all(np.array_equal(getattr(plan, name),
                                       getattr(first, name))
                        for name in ("f_nodes", "j_rows", "j_cols",
                                     "cap_a", "cap_b")))
        if not same:
            raise ValueError(f"lane {k} does not have the plan shape of "
                             "lane 0; lockstep lanes must be copies of "
                             "one circuit topology")


class _Segment:
    """Waveforms of one set of lanes, step by step, until a lane retires.

    The buffers are sized for the steps left to the first lane's end
    (exact unless a step halves) and grow when a halving overruns them.
    """

    def __init__(self, ids: list[int], t: list[float], dt: list[float],
                 t_end: list[float], n: int, n_monitor: int):
        rounds = max(1, min(math.ceil((te - tt) / d)
                            for tt, d, te in zip(t, dt, t_end)))
        rows = len(ids)
        self.ids = ids
        self.count = 0
        self.t = np.empty((rounds, rows))
        self.v = np.empty((rounds, rows, n))
        self.i = np.empty((rounds, rows, n_monitor))

    def add(self, t: list[float], v: np.ndarray,
            i: np.ndarray | None) -> None:
        k = self.count
        if k == len(self.t):
            self.t, self.v, self.i = (np.concatenate((a, np.empty_like(a)))
                                      for a in (self.t, self.v, self.i))
        self.t[k] = t
        self.v[k] = v
        if i is not None:
            self.i[k] = i
        self.count = k + 1


def _integrate(circuits: list[Circuit], plan: StampPlan,
               t_end_s: list[float], dt_s: list[float],
               v0: list[np.ndarray], monitor_supplies: tuple[int | str, ...],
               gmin: float, tol_a: float, max_iter: int, damping_v: float,
               max_step_halvings: int) -> list[TransientResult]:
    """The lockstep loop; ``plan`` stacks ``circuits``, one lane each."""
    lanes = len(circuits)
    if min(dt_s) <= 0.0 or min(t_end_s) <= 0.0:
        raise ValueError("time step and end time must be positive")
    first = circuits[0]
    n = first.n_nodes
    free = first.free_nodes()
    monitor = [first.node(m) if isinstance(m, str) else m
               for m in monitor_supplies]

    v = np.empty((lanes, n))
    for lane, (circuit, start) in enumerate(zip(circuits, v0)):
        row = np.asarray(start, dtype=float)
        if row.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), got {row.shape}")
        v[lane] = row
        for node, value in circuit.fixed_voltages(0.0).items():
            v[lane, node] = value

    # Static current only; capacitive displacement currents integrate
    # to ~zero over a cycle and the builders put decoupling caps on
    # rails anyway.  The dynamic supply charge is added by the caller
    # from the waveforms when needed.
    supply0 = plan.static_currents(v).reshape(lanes, n)[:, monitor]
    v_start = v.copy()

    # Initial capacitor state: zero companion current (consistent DC start).
    i_cap = np.zeros((lanes, plan.n_caps // lanes))
    # Per-lane clocks stay Python floats, as in a scalar integrator.
    t = [0.0] * lanes
    dt = list(dt_s)
    t_end = list(t_end_s)
    stop = [te - 1e-21 for te in t_end]
    ids = list(range(lanes))  # the lane each row of the state holds
    lane_circuits = circuits
    monitor_nodes = np.array(monitor, dtype=np.intp)
    segment = _Segment(ids, t, dt, t_end, n, len(monitor))
    segments = [segment]
    asm = Assembler(plan, free, dynamic=True)
    monitor_x = asm.node_index(monitor_nodes)
    first_step = True
    # Counters accumulate in locals and flush to obs once at the end:
    # the step loop is the hot path of every delay/power figure.
    n_steps = 0
    n_halvings = 0
    n_newton = 0
    with obs.span("circuit.transient", t_end_s=max(t_end_s),
                  dt_s=max(dt_s), lanes=lanes):
        while True:
            live = [k for k, (tt, st) in enumerate(zip(t, stop)) if tt < st]
            if len(live) < len(ids):
                if not live:
                    break
                # Retire the finished lanes: the rest continue on a
                # plan of their own circuits.
                ids = [ids[k] for k in live]
                v, i_cap = v[live], i_cap[live]
                t, dt, t_end, stop = ([x[k] for k in live]
                                      for x in (t, dt, t_end, stop))
                lane_circuits = [circuits[i] for i in ids]
                plan = (lane_circuits[0].compile() if len(ids) == 1 else
                        StampPlan.stacked(lane_circuits))
                asm = Assembler(plan, free, dynamic=True)
                monitor_x = asm.node_index(monitor_nodes)
                segment = _Segment(ids, t, dt, t_end, n, len(monitor))
                segments.append(segment)
            rows = len(ids)
            h = [min(d, te - tt) for d, te, tt in zip(dt, t_end, t)]
            # Capacitances lag at the previous converged solution, so
            # they and the old branch voltages serve every attempt.
            v_cap_old = asm.cap_voltages(v)  # loads ``v`` into asm.vx
            caps = plan.capacitances(asm.vx).reshape(rows, -1)
            # Backward Euler on the very first step (the trapezoidal
            # companion current is not yet known - the classic SPICE
            # startup rule), trapezoidal afterwards.
            if not first_step:
                caps = 2.0 * caps
            i_cap_old = None if first_step else i_cap.reshape(-1)
            v_new = v.copy()
            i_cap_new = np.empty_like(i_cap)
            pending = list(range(rows))
            for attempt in range(max_step_halvings + 1):
                for row in pending:
                    if attempt:
                        v_new[row] = v[row]
                    fixed = lane_circuits[row].fixed_voltages(t[row] + h[row])
                    for node, value in fixed.items():
                        v_new[row, node] = value
                geq = (caps / np.array(h)[:, None]).reshape(-1)
                asm.stamp_companions(geq)
                failed, iters = _newton(asm, v_new, pending, v_cap_old, geq,
                                        i_cap_old, i_cap_new, gmin, tol_a,
                                        max_iter, damping_v)
                n_newton += iters
                n_halvings += attempt * (len(pending) - len(failed))
                pending = failed
                if not pending:
                    break
                for row in pending:
                    h[row] *= 0.5
            if pending:
                row = pending[0]
                where = f" (lane {ids[row]})" if lanes > 1 else ""
                raise ConvergenceError(
                    f"transient step failed to converge at "
                    f"t = {t[row]:.3e} s even after "
                    f"{max_step_halvings} step halvings{where}")
            t = [tt + hh for tt, hh in zip(t, h)]
            v = v_new
            i_cap = i_cap_new
            if sanitize.ACTIVE:
                sanitize.check_finite(v, "simulate_transient",
                                      f"node voltages at t={max(t):.6g} s")
            first_step = False
            n_steps += rows
            # The last assembly was made at every lane's converged ``v``:
            # a lane that converged early held still.
            segment.add(t, v, asm.static_currents(monitor_x)
                        if monitor else None)
    if obs.ACTIVE:
        obs.incr("circuit.transient_batches")
        obs.incr("circuit.transient_runs", lanes)
        obs.incr("circuit.transient_steps", n_steps)
        obs.incr("circuit.step_halvings", n_halvings)
        obs.incr("circuit.transient_newton_iterations", n_newton)
    return _results(circuits, v_start, supply0, monitor, segments)


def _results(circuits: list[Circuit], v_start: np.ndarray,
             supply0: np.ndarray, monitor: list[int],
             segments: list[_Segment]) -> list[TransientResult]:
    """Each lane's waveforms, stitched from the segments it ran in."""
    pieces: list[list[tuple[int, _Segment]]] = [[] for _ in circuits]
    for segment in segments:
        for row, lane in enumerate(segment.ids):
            pieces[lane].append((row, segment))
    results = []
    for lane, circuit in enumerate(circuits):
        parts = [(row, seg, seg.count) for row, seg in pieces[lane]]
        results.append(TransientResult(
            circuit=circuit,
            time_s=np.concatenate([np.zeros(1)] + [
                seg.t[:k, row] for row, seg, k in parts]),
            voltages=np.concatenate([v_start[lane:lane + 1]] + [
                seg.v[:k, row] for row, seg, k in parts]),
            supply_currents={
                m: np.concatenate([supply0[lane, j:j + 1]] + [
                    seg.i[:k, row, j] for row, seg, k in parts])
                for j, m in enumerate(monitor)}))
    return results
