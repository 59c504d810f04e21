"""Gate benchmark: the ``repro characterize`` gate as one serial client.

Run from the repository root::

    python3 perfbench/run.py --workload fast-warm --seed 1 --seconds 30 --trace 0

Each workload is a closed loop of one client: one gate pass at a time,
``workers=1``, every pass in a fresh child process (``perfbench/gate.py``)
with inherited ``REPRO_*`` variables scrubbed, its own cache directory
and an empty temporary working directory.  Passes repeat while another
one still fits in ``--seconds`` (at least one runs).  Untraced runs add
four set-up probes that time process start, imports and golden load.

Workloads (see ``perfbench/METRICS.md``):

* ``fast-cold``  -- 11 of the 14 experiments in fast mode from an empty
  cache: device-table builds dominate.
* ``fast-warm``  -- all 14 experiments in fast mode, cache filled by an
  untimed prep step: many small inverter-chain transients.

The warm cache is filled once per source tree (keyed by a hash of
``src/``) under ``perfbench/.state/`` and copied into each warm pass.
``--trace 1`` installs the timing wrappers of ``perfbench/layers.py`` and
prints the per-layer metrics; ``--trace 0`` prints the end-to-end ones.
The last line of output is one JSON object: ``correct``, ``attempted``
and ``failed`` (figures of merit checked and failing) and ``metrics``.
The line before it records the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
STATE = HERE / ".state"
WORKLOADS = ("fast-cold", "fast-warm")
SETUP_PROBES = 4
PASS_TIMEOUT_S = 170.0
PREP_TIMEOUT_S = 850.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def source_digest(root: Path) -> str:
    """SHA-256 over every Python file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_rev(root: Path) -> str | None:
    """Commit of a git checkout; None where the checkout has no ``.git``."""
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env(root: Path, cache_dir: Path) -> dict[str, str]:
    """The environment of a gate child: no inherited ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "_REPRO_"))}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def spawn(root: Path, mode: str, workload: str, seed: int, trace: int,
          cache_dir: Path, workdir: Path, timeout: float) -> dict:
    """Run ``gate.py`` once and return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "gate.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=workdir, env=child_env(root, cache_dir),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"gate child ({mode}, {workload}) exited with "
                             f"code {proc.returncode}")
    return json.loads(lines[-1])


def table_files(cache_dir: Path) -> set[str]:
    return {p.name for p in (cache_dir / "tables").glob("*.npz")}


def warm_template(root: Path, digest: str) -> Path:
    """Cache directory filled by an untimed fast gate, once per source."""
    template = STATE / f"warm-{digest[:16]}"
    if template.is_dir():
        return template
    for stale in STATE.glob("warm-*"):
        shutil.rmtree(stale)
    with tempfile.TemporaryDirectory(dir=STATE, prefix="prep-") as tmp:
        cache, work = Path(tmp) / "cache", Path(tmp) / "work"
        work.mkdir()
        spawn(root, "prep", "fast-warm", 0, 0, cache, work, PREP_TIMEOUT_S)
        if not table_files(cache):
            raise BenchmarkError("prep built no table in its cache "
                                 "directory; REPRO_CACHE_DIR was ignored")
        os.replace(cache, template)
    return template


def run_pass(root: Path, workload: str, seed: int, trace: int,
             template: Path | None) -> dict:
    """One gate pass in its own cache and working directory."""
    with tempfile.TemporaryDirectory(dir=STATE, prefix="pass-") as tmp:
        cache, work = Path(tmp) / "cache", Path(tmp) / "work"
        work.mkdir()
        if template is None:
            cache.mkdir()
        else:
            shutil.copytree(template, cache)
        before = table_files(cache)
        result = spawn(root, "pass", workload, seed, trace, cache, work,
                       PASS_TIMEOUT_S)
        after = table_files(cache)
        result["cwd_files"] = sum(1 for _ in work.rglob("*"))
    builds = len(after - before)
    result["table_builds"] = builds
    if template is None and builds == 0:
        raise BenchmarkError("cold pass wrote no table to its empty cache "
                             "directory; it must have used another cache")
    if template is not None and after != before:
        raise BenchmarkError(f"warm pass built {builds} table(s); the "
                             "prepared cache does not cover the workload")
    layer = result.get("layers")
    if layer is not None:
        if layer["device.build_device_table.builds"] != builds:
            raise BenchmarkError("traced builds disagree with the tables "
                                 "written to the cache directory")
        if template is None and layer["runtime.cache.hits"] != 0:
            raise BenchmarkError("cold pass hit the on-disk cache")
    return result


def setup_probe(root: Path, workload: str, seed: int) -> float:
    with tempfile.TemporaryDirectory(dir=STATE, prefix="setup-") as tmp:
        cache, work = Path(tmp) / "cache", Path(tmp) / "work"
        work.mkdir()
        return spawn(root, "setup", workload, seed, 0, cache, work,
                     PASS_TIMEOUT_S)["setup_s"]


def closed_loop(root: Path, workload: str, seed: int, trace: int,
                seconds: float, template: Path | None) -> list[dict]:
    """Passes back to back while the next one still fits in ``seconds``."""
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(root, workload, seed, trace, template))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return passes


def untraced_walls(workload: str, digest: str) -> list[float]:
    """Pass walls of earlier untraced runs of this source, from the log."""
    log = STATE / "log.jsonl"
    if not log.is_file():
        return []
    walls = []
    for line in log.read_text().splitlines():
        record = json.loads(line)
        if (record.get("workload") == workload and record.get("trace") == 0
                and record.get("src_sha256") == digest):
            walls += record["walls_s"]
    return walls


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit inside subprocess.run, which
    # kills the running child and waits for it before unwinding.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not ((root / "src" / "repro" / "__init__.py").is_file()
            and (root / "goldens").is_dir()
            and (root / "BENCHMARK.json").is_file()):
        print(f"{root} is not a checkout of the repository (needs src/repro, "
              "goldens/ and BENCHMARK.json); run from its root",
              file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    STATE.mkdir(exist_ok=True)
    digest = source_digest(root)
    # Every run ensures the template, so only the first run in a checkout
    # pays for the prep, whichever workload it is.
    template = warm_template(root, digest)
    if args.workload == "fast-cold":
        template = None

    setups = [setup_probe(root, args.workload, args.seed)
              for _ in range(0 if args.trace else SETUP_PROBES)]
    passes = closed_loop(root, args.workload, args.seed, args.trace,
                         args.seconds, template)
    checked_passes = list(passes)
    if args.trace:
        untraced = untraced_walls(args.workload, digest)
        if not untraced:
            checked_passes.append(run_pass(root, args.workload, args.seed, 0,
                                           template))
            untraced = [checked_passes[-1]["wall_s"]]
    setups += [p["setup_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    checked = sum(p["checked"] for p in checked_passes)
    failures = [f for p in checked_passes for f in p["failures"]]
    digests = {p["fom_digest"] for p in checked_passes}

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_rev": git_rev(root), "src_sha256": digest,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **passes[0]["platform"],
        "cache": "cold" if template is None else "warm",
        "order": passes[0]["order"], "passes": len(passes),
        "walls_s": walls, "setups_s": setups,
        "table_builds": [p["table_builds"] for p in passes],
        "cwd_files": sum(p["cwd_files"] for p in passes),
        "fom_digest": sorted(digests), "failures": failures,
    }
    if args.trace:
        untraced_median = statistics.median(untraced)
        traced_median = statistics.median(walls)
        context.update(traced_wall_s=traced_median,
                       untraced_median_wall_s=untraced_median,
                       untraced_samples=len(untraced))
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
        values["trace.overhead_frac"] = traced_median / untraced_median - 1.0
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "fom_pass_frac": 1.0 - len(failures) / checked,
        }
    if set(values) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(values) ^ set(units))} differ between "
            "this run and BENCHMARK.json")
    with open(STATE / "log.jsonl", "a") as log:
        log.write(json.dumps(context) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": checked, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
