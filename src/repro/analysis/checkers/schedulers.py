"""RPA9xx — scheduler-seam discipline.

The runtime exposes one dispatch seam: :class:`repro.runtime.scheduler.
Scheduler`.  Exploration, variability and characterization code that
calls ``parallel_map`` directly bypasses that seam — it hard-codes the
process-pool policy, cannot be redirected by callers that inject a
scheduler (tests, benchmarks), and silently
diverges from the chunk-planning and fault-recovery behaviour the
``LocalScheduler`` layers on top.

The seam also carries a hard behavioural contract: ``Scheduler.run``
returns ``[fn(t) for t in tasks]`` — results in task order — and every
wave must stay interruptible (Ctrl-C reaches the caller, injected
``BaseException``-class faults are never swallowed by dispatch).

* ``RPA901`` — a module under ``repro.exploration``,
  ``repro.variability`` or ``repro.characterize`` calls
  ``parallel_map`` directly instead of going through a
  :class:`Scheduler`.  The runtime layer itself (and the scheduler's
  own dispatch) is exempt.
* ``RPA902`` — a ``Scheduler.run`` implementation breaks the seam
  contract: it catches ``KeyboardInterrupt`` / ``BaseException`` /
  bare ``except`` (dispatch must stay interruptible; recovery policy
  belongs to :mod:`repro.runtime.resilience`), or returns its results
  through an order-destroying constructor (``set`` / ``sorted`` /
  ``reversed``), which can silently violate the results-in-task-order
  guarantee every sweep depends on.

Escape hatch: ``# repro: noqa[RPA901]`` / ``# repro: noqa[RPA902]`` on
the offending line, for the rare site that intentionally needs it.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, dotted_name
from repro.analysis.dataflow.callgraph import build_call_graph
from repro.analysis.engine import ModuleInfo, Project
from repro.analysis.findings import Finding

PARALLEL_MAP = "repro.runtime.parallel.parallel_map"

#: Package prefixes that must dispatch through the scheduler seam.
_SEAMED_LAYERS = ("repro.exploration", "repro.variability",
                  "repro.characterize")

#: Exception names a Scheduler.run may never catch: swallowing them
#: breaks Ctrl-C and hides process-fatal faults inside dispatch.
_UNCATCHABLE = frozenset({"KeyboardInterrupt", "BaseException",
                          "SystemExit"})

#: Builtins whose return value forgets (or fabricates) task order.
_ORDER_DESTROYING = frozenset({"set", "sorted", "reversed", "frozenset"})


def _base_is_scheduler(base: ast.expr) -> bool:
    """True if a class base names the Scheduler seam (any import style)."""
    name = dotted_name(base)
    return name is not None and (
        name == "Scheduler" or name.endswith(".Scheduler"))


def _caught_forbidden(handler: ast.ExceptHandler) -> str | None:
    """The forbidden name this handler catches, or None."""
    if handler.type is None:
        return "bare except"
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        if name in _UNCATCHABLE:
            return name
    return None


class SchedulerSeamChecker(Checker):
    codes = {
        "RPA901": "exploration/variability/characterize code calls "
                  "parallel_map directly; dispatch through a "
                  "repro.runtime.scheduler.Scheduler so callers can "
                  "inject scheduling policy",
        "RPA902": "Scheduler.run implementation catches "
                  "KeyboardInterrupt/BaseException or returns through "
                  "an order-destroying constructor; dispatch must stay "
                  "interruptible and preserve task order",
    }

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_base_is_scheduler(base) for base in node.bases):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) \
                        and item.name == "run":
                    findings.extend(self._check_run(module, node, item))
        return findings

    def _check_run(self, module: ModuleInfo, cls: ast.ClassDef,
                   fn: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> list[Finding]:
        findings: list[Finding] = []
        qualname = f"{cls.name}.{fn.name}"
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                forbidden = _caught_forbidden(node)
                if forbidden is not None:
                    findings.append(self.finding(
                        module, node, "RPA902",
                        f"'{qualname}' catches {forbidden}; scheduler "
                        "dispatch must stay interruptible — let it "
                        "propagate and keep recovery policy in "
                        "repro.runtime.resilience",
                        symbol=qualname))
            elif isinstance(node, ast.Return) and node.value is not None:
                call = node.value
                if not isinstance(call, ast.Call):
                    continue
                name = dotted_name(call.func)
                if name in _ORDER_DESTROYING:
                    findings.append(self.finding(
                        module, node, "RPA902",
                        f"'{qualname}' returns through {name}(), which "
                        "destroys task order; Scheduler.run must return "
                        "results positionally matched to its tasks",
                        symbol=qualname))
        return findings

    def check_project(self, project: Project) -> list[Finding]:
        graph = build_call_graph(project)
        by_path = {m.path: m for m in project.modules}
        findings: list[Finding] = []

        for info in graph.functions.values():
            if not info.module.startswith(_SEAMED_LAYERS):
                continue
            module = by_path.get(info.path)
            if module is None:
                continue
            for call in ast.walk(info.node):
                if not isinstance(call, ast.Call):
                    continue
                dotted = dotted_name(call.func)
                if dotted is None or \
                        graph.resolve(info.module, dotted) != PARALLEL_MAP:
                    continue
                findings.append(self.finding(
                    module, call, "RPA901",
                    f"'{info.qualname}' calls parallel_map directly; "
                    "accept a Scheduler (resolve_scheduler(...)) and "
                    "dispatch through its .run() so callers can inject "
                    "scheduling policy",
                    symbol=info.qualname))
        return findings
