"""Compiled stamp plans: a netlist lowered to index arrays.

:meth:`repro.circuit.netlist.Circuit.compile` walks the elements once
and records every contribution to the KCL residual ``f`` and to the
Jacobian ``J`` as one entry of a flat weight vector with its target
slot.  The layout follows the order in which nodal analysis accumulates
them: static currents in element order, then the capacitor companions
of a transient step in capacitor order.  Assembly fills the weights and
scatters them with one sequential ``np.bincount`` per array, which adds
each slot's contributions in exactly that order.  The assembled ``f``
and ``J`` are therefore bitwise equal to stamping element by element.

Ground maps to one extra *discard* slot (index ``n_nodes`` of the
extended voltage vector, held at 0 V).  Contributions to it, and
Jacobian entries in a ground or fixed row or column, are summed there
and never read.

Table FETs on uniform tables are grouped by shared bias axes, and one
:class:`~repro.device.tables.TableStack` lookup serves every device of
a group, whatever table (nominal, per-stage Monte Carlo variant) it
carries; the stack applies the rules of a scalar
:class:`~repro.device.tables.DeviceTable` query, so each device reads
exactly what that query returns.  Everything else is evaluated per
device by its table's or model's own scalar lookup: groups smaller than
:data:`VECTOR_MIN_DEVICES` (below that size the fixed cost of ~50 NumPy
dispatches outweighs a few scalar lookups), tables on non-uniform axes,
and the compact-model FETs of the CMOS baseline.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuit.elements import (
    GROUND,
    Capacitor,
    CompactMOSFET,
    CurrentSource,
    Resistor,
    TableFET,
)
from repro.device.tables import TableStack
from repro.errors import CircuitError

#: Smallest table-FET group evaluated by the vectorized kernel.
VECTOR_MIN_DEVICES = 8

_PLUS_MINUS = np.array([[1.0], [-1.0]])
_COMPANION_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _rows(*blocks, dtype=float) -> np.ndarray:
    """Concatenate per-device blocks into one flat array."""
    return np.concatenate([np.ravel(b) for b in blocks]).astype(dtype)


class _TableGroup:
    """Table FETs sharing both (uniform) bias axes, looked up together.

    The lookup itself is a :class:`~repro.device.tables.TableStack`;
    the group gathers the node voltages into its biases and scatters
    the results into the plan's weight slots.
    """

    def __init__(self, fets):
        m = len(fets)
        one = np.ones(m)
        dev = np.arange(m)
        self.stack = TableStack([f.el.table for f in fets])
        # Bias blocks [vgs, vds] = (v[g|d] - v[s]) * polarity.
        self.gd_nodes = _rows([f.g for f in fets], [f.d for f in fets],
                              dtype=np.intp)
        self.ss_nodes = np.tile([f.s for f in fets], 2)
        polarity = np.array([f.el.polarity for f in fets], dtype=float)
        self.polarity2 = np.tile(polarity, 2)
        self.dev2 = np.tile(dev, 2)
        # Jacobian blocks dd dg ds sd sg ss from [gds, gm, gds + gm].
        self.j_rows = _rows(*(dev + b * m for b in (0, 1, 2, 0, 1, 2)),
                            dtype=np.intp)
        self.j_signs = _rows(*(sg * one for sg in (1, 1, -1, -1, -1, 1)))
        # Device current times polarity, into d and out of s.
        self.f_signs = _rows(polarity, -polarity)
        # Weight slots, block by block: f (d, s), J (dd .. ss), C (gs, gd).
        self.f_slots = _rows(*zip(*(f.f_slots for f in fets)), dtype=np.intp)
        self.j_slots = _rows(*zip(*(f.j_slots for f in fets)), dtype=np.intp)
        self.cap_slots = _rows(*zip(*(f.cap_slots for f in fets)),
                               dtype=np.intp)
        self.c_par = _rows([f.el.c_par_gs_f for f in fets],
                           [f.el.c_par_gd_f for f in fets])

    def _bias(self, vx):
        bias = vx[self.gd_nodes] - vx[self.ss_nodes]
        bias *= self.polarity2
        return bias

    def stamp(self, vx, w_f, w_j) -> None:
        bias = self._bias(vx)
        if w_j is None:
            i = self.stack.current(bias)
        else:
            i, gm, gds = self.stack.current_and_derivatives(bias)
            # A p-device's derivatives carry polarity twice: unchanged.
            rows = np.concatenate((gds, gm, gds + gm))
            w_j[self.j_slots] = rows[self.j_rows] * self.j_signs
        # Signs are +-1, so either order of the two flips is exact.
        w_f[self.f_slots] = i[self.dev2] * self.f_signs

    def capacitances(self, vx, c) -> None:
        cgs, cgd = self.stack.capacitances(self._bias(vx))
        c[self.cap_slots] = np.concatenate((cgs, cgd)) + self.c_par


class _DeviceList:
    """FETs evaluated one by one through their own scalar lookup."""

    def __init__(self, fets):
        self.devices = []
        for f in fets:
            if isinstance(f.el, TableFET):
                ids = f.el.table.current_and_derivatives
                caps = f.el.table.capacitances
                c_par = (f.el.c_par_gs_f, f.el.c_par_gd_f)
            else:
                ids = f.el.model.ids
                caps = f.el.model.capacitances
                c_par = (0.0, 0.0)
            self.devices.append((f.d, f.g, f.s, f.el.polarity, ids, caps,
                                 c_par))
        # Slots in device order, matching the value lists built below.
        self.f_slots = _rows(*(f.f_slots for f in fets), dtype=np.intp)
        self.j_slots = _rows(*(f.j_slots for f in fets), dtype=np.intp)
        self.cap_slots = _rows(*(f.cap_slots for f in fets), dtype=np.intp)

    def stamp(self, volts: list, w_f, w_j) -> None:
        fv: list[float] = []
        jv: list[float] = []
        for d, g, s, p, ids, _, _ in self.devices:
            vs = volts[s]
            i, di_dvgs, di_dvds = ids(p * (volts[g] - vs),
                                      p * (volts[d] - vs))
            i = p * float(i)
            di_dvgs = float(di_dvgs)
            di_dvds = float(di_dvds)
            both = di_dvds + di_dvgs
            fv += (i, -i)
            jv += (di_dvds, di_dvgs, -both, -di_dvds, -di_dvgs, both)
        w_f[self.f_slots] = fv
        if w_j is not None:
            w_j[self.j_slots] = jv

    def capacitances(self, volts: list, c) -> None:
        cv: list[float] = []
        for d, g, s, p, _, caps, (c_gs, c_gd) in self.devices:
            vs = volts[s]
            cgs, cgd = caps(p * (volts[g] - vs), p * (volts[d] - vs))
            cv += (float(cgs) + c_gs, float(cgd) + c_gd)
        c[self.cap_slots] = cv


class _Fet:
    """Compile-time record of one FET's nodes and weight slots."""

    __slots__ = ("el", "d", "g", "s", "f_slots", "j_slots", "cap_slots")

    def __init__(self, el, d, g, s, f_slots, j_slots, cap_slots):
        self.el = el
        self.d, self.g, self.s = d, g, s
        self.f_slots = f_slots
        self.j_slots = j_slots
        self.cap_slots = cap_slots


class StampPlan:
    """A circuit's elements as index arrays (built by ``Circuit.compile``).

    The plan depends only on the element list and the node count, not on
    which nodes are fixed.  ``f_nodes`` / ``j_rows`` / ``j_cols`` give
    the target slot of every weight: the static block first
    (``n_static_f`` / ``n_static_j`` entries), then two residual and
    four Jacobian entries per capacitor.

    A plan of ``lanes`` circuits of one shape (:meth:`stacked`) is the
    plan of their disjoint union: ``elements`` lists every lane's
    elements, lane by lane, and node ``k`` of lane ``l`` becomes node
    ``l * lane_nodes + k``, all lanes sharing the ground slot.  Each
    weight block is then lane-major, so every slot still receives its
    contributions in its own lane's order, and the table FETs of all
    lanes fall into the same groups.
    """

    def __init__(self, elements, n_nodes: int, lanes: int = 1):
        if len(elements) % lanes:
            raise CircuitError("every lane must have the same elements")
        per_lane = len(elements) // lanes
        self.lanes = lanes
        self.lane_nodes = n_nodes
        n = self.n_nodes = lanes * n_nodes
        touched = np.zeros(n + 1, dtype=bool)
        f_nodes: list[int] = []
        f_const: list[float] = []
        j_rows: list[int] = []
        j_cols: list[int] = []
        j_const: list[float] = []
        cap_a: list[int] = []
        cap_b: list[int] = []
        cap_const: list[float] = []
        fets: list[_Fet] = []
        res: list[tuple[int, int, float, int]] = []

        for k, el in enumerate(elements):
            offset = (k // per_lane) * n_nodes
            nodes = []
            for node in el.nodes:
                if node == GROUND:
                    node = n
                elif not 0 <= node < n_nodes:
                    raise CircuitError(
                        f"element {el!r} references unknown node {node}")
                else:
                    node += offset
                nodes.append(node)
            touched[nodes] = True
            if isinstance(el, (TableFET, CompactMOSFET)):
                d, g, s = nodes
                nf, nj, nc = len(f_nodes), len(j_rows), len(cap_a)
                fets.append(_Fet(el, d, g, s, (nf, nf + 1),
                                 tuple(range(nj, nj + 6)), (nc, nc + 1)))
                f_nodes += (d, s)
                f_const += (0.0, 0.0)
                j_rows += (d, d, d, s, s, s)
                j_cols += (d, g, s, d, g, s)
                j_const += (0.0,) * 6
                cap_a += (g, g)
                cap_b += (s, d)
                cap_const += (0.0, 0.0)
            elif isinstance(el, Resistor):
                a, b = nodes
                g = 1.0 / el.resistance_ohm
                res.append((a, b, g, len(f_nodes)))
                f_nodes += (a, b)
                f_const += (0.0, 0.0)
                j_rows += (a, a, b, b)
                j_cols += (a, b, a, b)
                j_const += (g, -g, -g, g)
            elif isinstance(el, CurrentSource):
                f_nodes += nodes
                f_const += (el.current_a, -el.current_a)
            elif isinstance(el, Capacitor):
                cap_a.append(nodes[0])
                cap_b.append(nodes[1])
                cap_const.append(el.capacitance_f)
            else:
                raise CircuitError(f"cannot compile element {el!r}")
        #: Nodes no element touches (only a fixed node may be one).
        self.untouched = np.flatnonzero(~touched[:n]).tolist()

        # Companion block: f gets (+i at a, -i at b), J gets
        # (aa +g, ab -g, bb +g, ba -g) per capacitor.
        self.n_static_f = len(f_nodes)
        self.n_static_j = len(j_rows)
        self.n_caps = len(cap_a)
        for a, b in zip(cap_a, cap_b):
            f_nodes += (a, b)
            j_rows += (a, a, b, b)
            j_cols += (a, b, b, a)
        self.f_nodes = np.array(f_nodes, dtype=np.intp)
        self.j_rows = np.array(j_rows, dtype=np.intp)
        self.j_cols = np.array(j_cols, dtype=np.intp)
        self.f_template = np.zeros(len(f_nodes))
        self.f_template[:self.n_static_f] = f_const
        self.j_template = np.zeros(len(j_rows))
        self.j_template[:self.n_static_j] = j_const
        self.cap_a = np.array(cap_a, dtype=np.intp)
        self.cap_b = np.array(cap_b, dtype=np.intp)
        self.cap_template = np.array(cap_const, dtype=float)

        res_a, res_b, res_g, res_f = zip(*res) if res else ((),) * 4
        # Both terminals of every resistor, as (from, to) node pairs:
        # (a, b) writes the current out of a, (b, a) the current into b.
        self.res_a = np.array(res_a + res_b, dtype=np.intp)
        self.res_b = np.array(res_b + res_a, dtype=np.intp)
        self.res_g = np.array(res_g * 2, dtype=float)
        self.res_f = np.array(res_f + tuple(k + 1 for k in res_f),
                              dtype=np.intp)

        by_axes: dict[tuple, list[_Fet]] = {}
        single: list[_Fet] = []
        for fet in fets:
            if isinstance(fet.el, TableFET) and fet.el.table.uniform_grid:
                table = fet.el.table
                key = (table.vg.tobytes(), table.vd.tobytes())
                by_axes.setdefault(key, []).append(fet)
            else:
                single.append(fet)
        self.groups: list[_TableGroup] = []
        for members in by_axes.values():
            if len(members) >= VECTOR_MIN_DEVICES:
                self.groups.append(_TableGroup(members))
            else:
                single += members
        self.devices = _DeviceList(single) if single else None

    @classmethod
    def stacked(cls, circuits: Sequence) -> "StampPlan":
        """One plan over circuits of the same shape, one lane each."""
        return cls([el for c in circuits for el in c.elements],
                   circuits[0].n_nodes, lanes=len(circuits))

    # --- evaluation ------------------------------------------------------
    def extend(self, v: np.ndarray) -> np.ndarray:
        """Node voltages (of every lane) with the ground/discard slot
        (0 V) appended."""
        vx = np.empty(self.n_nodes + 1)
        vx[:-1] = v.reshape(-1)
        vx[-1] = 0.0
        return vx

    def static_weights(self, vx: np.ndarray, w_f: np.ndarray,
                       w_j: np.ndarray | None) -> None:
        """Write the static f (and J) weights at ``vx``."""
        for group in self.groups:
            group.stamp(vx, w_f, w_j)
        if self.devices is not None:
            self.devices.stamp(vx.tolist(), w_f, w_j)
        if self.res_g.size:
            # g (v_b - v_a) is exactly -g (v_a - v_b): one pass writes
            # the current out of a and the current into b.
            w_f[self.res_f] = self.res_g * (vx[self.res_a] - vx[self.res_b])

    def capacitances(self, vx: np.ndarray) -> np.ndarray:
        """Every two-terminal capacitance, in capacitor order (F)."""
        c = self.cap_template.copy()
        for group in self.groups:
            group.capacitances(vx, c)
        if self.devices is not None:
            self.devices.capacitances(vx.tolist(), c)
        return c

    def static_currents(self, v: np.ndarray) -> np.ndarray:
        """Net static current out of every node into the elements (A).

        At a fixed node this is the current its source delivers.
        """
        w_f = self.f_template[:self.n_static_f].copy()
        self.static_weights(self.extend(v), w_f, None)
        return np.bincount(self.f_nodes[:self.n_static_f], weights=w_f,
                           minlength=self.n_nodes + 1)[:self.n_nodes]


class Assembler:
    """Newton workspace of one analysis: weight buffers and slot maps.

    ``dynamic`` appends the capacitor companion block to the static one
    (transient); DC assembles the static block alone.  ``free`` holds
    the unknown nodes of one lane (every lane of a stacked plan has the
    same).  Each lane gets its own residual vector and Jacobian block,
    all filled by one ``np.bincount`` per array; voltages come as
    ``(n_nodes,)`` for a one-lane plan or ``(lanes, lane_nodes)``, and
    results carry the same leading shape.
    """

    def __init__(self, plan: StampPlan, free: np.ndarray,
                 dynamic: bool = False):
        self.plan = plan
        self.free = free
        lanes, n = plan.lanes, plan.lane_nodes
        # Unknown index of every node within its lane; ground and fixed
        # nodes map to the discard row/column ``nf``.  Ground is shared
        # by the lanes, so an entry takes the lane of its other node.
        nf = self.nf = int(free.size)
        local = np.full(n, nf, dtype=np.intp)
        local[free] = np.arange(nf)
        to_free = np.append(np.tile(local, lanes), nf)
        to_lane = np.append(np.repeat(np.arange(lanes), n), 0)
        n_f = plan.f_nodes.size if dynamic else plan.n_static_f
        n_j = plan.j_rows.size if dynamic else plan.n_static_j
        f_nodes = plan.f_nodes[:n_f]
        rows, cols = plan.j_rows[:n_j], plan.j_cols[:n_j]
        block = (nf + 1) ** 2
        self.f_slots = to_lane[f_nodes] * (nf + 1) + to_free[f_nodes]
        # gmin closes the Jacobian block: added to each lane's diagonal
        # after every stamp, as its own trailing weights.
        diag = (np.arange(lanes)[:, None] * block
                + np.arange(nf) * (nf + 2)).ravel()
        self.j_slots = np.concatenate((
            np.maximum(to_lane[rows], to_lane[cols]) * block
            + to_free[rows] * (nf + 1) + to_free[cols], diag))
        self.f_size = lanes * (nf + 1)
        self.j_size = lanes * block
        self.w_f = plan.f_template[:n_f].copy()
        self.w_j = np.concatenate((plan.j_template[:n_j], np.zeros(diag.size)))
        self.vx = np.zeros(plan.n_nodes + 1)
        #: Every lane's unknowns as indices into the flat voltages, one
        #: row per lane, and as one flat run.
        self.free_x = self.node_index(free)
        self.free_flat = self.free_x.ravel()
        # Result shapes: one lane's vectors (DC), or one row per lane.
        self._one = ((nf + 1,), (nf + 1, nf + 1), (nf,))
        self._per_lane = ((lanes, nf + 1), (lanes, nf + 1, nf + 1),
                          (lanes, nf))
        # Views of the companion blocks: (a, b) rows of f, four of J.
        self.comp_f = self.w_f[plan.n_static_f:].reshape(-1, 2).T
        self.comp_j = self.w_j[plan.n_static_j:n_j].reshape(-1, 4).T
        self.w_gmin = self.w_j[n_j:]

    def stamp_companions(self, geq: np.ndarray) -> None:
        """Companion conductances of one step attempt (flat, lane-major)."""
        self.comp_j[:] = geq * _COMPANION_SIGNS

    def cap_voltages(self, v: np.ndarray) -> np.ndarray:
        """Voltage across every capacitor at ``v`` (flat, lane-major)."""
        vx = self.vx
        vx[:-1] = v.reshape(-1)
        return vx[self.plan.cap_a] - vx[self.plan.cap_b]

    def node_index(self, nodes: np.ndarray) -> np.ndarray:
        """Flat indices of ``nodes`` in every lane, shape
        ``(lanes, len(nodes))``."""
        plan = self.plan
        return np.arange(plan.lanes)[:, None] * plan.lane_nodes + nodes

    def assemble(self, v: np.ndarray, gmin: float
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Free-node residual and Jacobian at ``v`` (one lane, shape
        ``(n_nodes,)``), gmin included."""
        self.vx[:-1] = v
        return self._scatter(gmin, self._one)

    def assemble_step(self, v: np.ndarray, gmin: float, geq: np.ndarray,
                      v_cap_old: np.ndarray,
                      i_cap_old: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Companion currents, residual and Jacobian of a step attempt.

        The companion currents are ``geq * (v_cap - v_cap_old)``, less
        ``i_cap_old`` for a trapezoidal step (flat, lane-major, like
        every capacitor quantity); the conductances ``geq`` must already
        be stamped (dynamic assemblers only).  ``v`` has one row per
        lane, and so do the residual and Jacobian.
        """
        vx = self.vx
        vx[:-1] = v.reshape(-1)
        i_cap = geq * (vx[self.plan.cap_a] - vx[self.plan.cap_b] - v_cap_old)
        if i_cap_old is not None:
            i_cap -= i_cap_old
        self.comp_f[:] = i_cap * _PLUS_MINUS
        f, jac = self._scatter(gmin, self._per_lane)
        return i_cap, f, jac

    def _scatter(self, gmin: float, shapes: tuple
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Static weights at the loaded voltages, then the scatter."""
        self.plan.static_weights(self.vx, self.w_f, self.w_j)
        self.w_gmin[:] = gmin
        nf = self.nf
        f_shape, j_shape, v_shape = shapes
        f = np.bincount(self.f_slots, weights=self.w_f,
                        minlength=self.f_size).reshape(f_shape)
        jac = np.bincount(self.j_slots, weights=self.w_j,
                          minlength=self.j_size).reshape(j_shape)
        gv = gmin * self.vx[self.free_flat].reshape(v_shape)
        return f[..., :nf] + gv, jac[..., :nf, :nf]

    def static_currents(self, index: np.ndarray) -> np.ndarray:
        """Static current out of the nodes at flat ``index`` (see
        :meth:`node_index`) at the last assembly."""
        plan = self.plan
        f = np.bincount(plan.f_nodes[:plan.n_static_f],
                        weights=self.w_f[:plan.n_static_f],
                        minlength=plan.n_nodes + 1)
        return f[index]
