"""One pass of the characterization gate, in a fresh process.

``perfbench/run.py`` starts this script once per pass (and once per
set-up probe) with a scrubbed environment, its own ``REPRO_CACHE_DIR``
and an empty working directory, then reads the JSON object it prints as
its last line of output::

    python3 perfbench/gate.py --mode pass --workload fast-warm --seed 3 \
        --trace 0 --spawned-at <time.monotonic() of the parent>

Modes: ``setup`` stops at the first dispatch, ``pass`` runs and checks
one gate pass, ``prep`` runs the whole fast gate untimed to fill the
cache directory that warm passes start from.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (the benchmark's own module, beside this file)

GOLDENS = HERE.parent / "goldens"

#: fast-cold leaves out table2, table3 and table4: their 40 transients
#: would add about 25 s to a cold pass, more than the run budget allows,
#: and fast-warm measures them.  What is left builds 12 of the 16 tables.
COLD_IDS = ("fig2", "fig3", "table1", "fig4", "fig5", "fig6", "fig7",
            "ext-roughness", "ext-oxide", "ext-temperature", "ext-yield")


def experiment_order(workload: str, seed: int) -> list[str]:
    """The experiments of one pass, in an order permuted by the seed."""
    from repro.characterize.specs import SPECS

    ids = list(COLD_IDS) if workload == "fast-cold" else list(SPECS)
    random.Random(seed).shuffle(ids)
    return ids


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy this process loaded."""
    import numpy as np

    for lib_path in (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "*openblas*"):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def platform_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def fom_digest(measured: dict) -> str:
    """Hash of every figure of merit, bit for bit."""
    text = json.dumps({eid: {k: repr(float(v)) for k, v in m.items()}
                       for eid, m in measured.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _gate_pass(order: list[str]) -> dict:
    from repro.characterize.runner import characterize
    from repro.characterize.specs import SPECS

    cpu0, t0 = _cpu_s(), time.perf_counter()
    run = characterize(order, fast=True, workers=1, golden_root=GOLDENS)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    checked, failures = 0, []
    for eid, diff in run.diffs.items():
        if diff.status == "unblessed":
            checked += len(SPECS[eid].metrics)
            failures.append(f"{eid}:unblessed")
            continue
        checked += len(diff.metrics)
        failures += [f"{eid}.{m.name}:{m.status}" for m in diff.failures()]
    return {"wall_s": wall, "cpu_s": cpu, "checked": checked,
            "failures": failures, "fom_digest": fom_digest(run.measured),
            "experiment_s": dict(run.timings_s)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "pass", "prep"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(layers.REQUIRED_CALLS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if args.mode == "prep":
        from repro.characterize.runner import characterize
        characterize(None, fast=True, workers=1, golden_root=GOLDENS)
        print(json.dumps({"prep": "ok"}))
        return 0

    # Set-up: imports, golden load and (traced runs) wrapper install.
    import repro  # noqa: F401
    import repro.characterize.runner  # noqa: F401
    import repro.reporting.experiments  # noqa: F401
    from repro.characterize.goldens import load_goldens
    from repro.characterize.specs import SPECS

    order = experiment_order(args.workload, args.seed)
    load_goldens(order, root=GOLDENS)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
        stale = layers.stale_references()
        if stale:
            raise RuntimeError(f"unwrapped references remain: {stale}")
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = _gate_pass(order)
    result.update(setup_s=setup_s, order=order,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  platform=platform_info())
    if tracer is not None:
        layers.check_required(tracer, args.workload)
        result["layers"] = layers.layer_metrics(
            tracer, result["experiment_s"], result["wall_s"], list(SPECS))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
