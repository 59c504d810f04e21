"""Netlists: named nodes, elements, fixed (source-driven) nodes.

The engine uses nodal analysis with *fixed nodes* instead of explicit
voltage-source branches: every voltage source in the paper's circuits
(supply rails, input drivers) is ground-referenced, so pinning node
voltages is equivalent to full MNA and keeps the Jacobian square in the
free node voltages.  The current delivered by a source is recovered after
the solve by evaluating the KCL residual at its node.

Solvers never walk the element list: :meth:`Circuit.compile` turns it
once into a :class:`~repro.circuit.plan.StampPlan` of index arrays,
which DC, VTC and transient analyses all assemble through.  The plan is
cached on the circuit and dropped when an element or node is added;
fixing nodes or changing their values does not invalidate it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.circuit.elements import GROUND, Element
from repro.circuit.plan import StampPlan
from repro.errors import CircuitError


class Circuit:
    """A flat netlist of elements over named nodes."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._node_ids: dict[str, int] = {}
        self.elements: list = []
        #: Fixed node voltages: node index -> value or callable(t) -> value.
        self.fixed: dict[int, float | Callable[[float], float]] = {}
        self._plan: StampPlan | None = None

    # --- nodes ----------------------------------------------------------------
    def node(self, name: str) -> int:
        """Return (creating if needed) the index of a named node.

        The names ``"0"``, ``"gnd"`` and ``"ground"`` refer to the
        reference node.
        """
        if name in ("0", "gnd", "ground"):
            return GROUND
        if name not in self._node_ids:
            self._node_ids[name] = len(self._node_ids)
            self._plan = None
        return self._node_ids[name]

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_ids)

    def node_name(self, index: int) -> str:
        """Inverse lookup (for diagnostics)."""
        if index == GROUND:
            return "gnd"
        for name, idx in self._node_ids.items():
            if idx == index:
                return name
        raise CircuitError(f"unknown node index {index}")

    # --- construction -----------------------------------------------------------
    def add(self, element: Element) -> None:
        """Add an element of one of the kinds of :data:`Element`.

        Elements are plain records of terminals (``nodes``, ``GROUND``
        allowed) and parameters; :meth:`compile` lowers them:

        * ``Resistor`` and ``CurrentSource`` — constant-conductance and
          constant-current stamps between their two nodes;
        * ``Capacitor`` — one fixed two-terminal capacitance;
        * ``TableFET`` / ``CompactMOSFET`` — a drain-to-source current
          (with its ``V_GS``/``V_DS`` derivatives for Newton) and the
          bias-dependent gate-source and gate-drain capacitances.

        Raises :class:`CircuitError` for any other object.
        """
        if not isinstance(element, Element):
            raise CircuitError(f"unsupported circuit element {element!r}")
        self.elements.append(element)
        self._plan = None

    def fix(self, node: int | str,
            value: float | Callable[[float], float]) -> None:
        """Pin a node to a voltage (number) or waveform (callable of time)."""
        idx = self.node(node) if isinstance(node, str) else node
        if idx == GROUND:
            raise CircuitError("cannot fix the ground node")
        self.fixed[idx] = value

    # --- solver support -----------------------------------------------------------
    def fixed_voltages(self, t: float = 0.0) -> dict[int, float]:
        """Evaluate all fixed nodes at time ``t``."""
        out = {}
        for node, value in self.fixed.items():
            out[node] = float(value(t)) if callable(value) else float(value)
        return out

    def free_nodes(self) -> np.ndarray:
        """Indices of nodes solved for (not ground, not fixed)."""
        return np.array([i for i in range(self.n_nodes) if i not in self.fixed],
                        dtype=int)

    def compile(self) -> StampPlan:
        """The circuit's stamp plan, built on first use and cached.

        Raises :class:`CircuitError` if an element references a node
        that does not exist.
        """
        if self._plan is None:
            self._plan = StampPlan(self.elements, self.n_nodes)
            if obs.ACTIVE:
                obs.incr("circuit.plan_compiles")
        return self._plan

    def validate(self) -> None:
        """Sanity-check the netlist before solving."""
        if self.n_nodes == 0:
            raise CircuitError("circuit has no nodes")
        if not self.elements:
            raise CircuitError("circuit has no elements")
        untouched = [self.node_name(i) for i in self.compile().untouched
                     if i not in self.fixed]
        if untouched:
            raise CircuitError(f"dangling nodes with no elements: {untouched}")
