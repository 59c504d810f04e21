"""The CLI reference documents every ``REPRO_*`` environment variable.

``docs/cli.md`` promises that "every knob the CLI flags export can also
be set directly" and lists them in its "Environment variables" table.
This test holds that table equal to the set of ``REPRO_*`` names the
package actually defines, so a knob added or removed without its doc
row fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
CLI_DOC = REPO_ROOT / "docs" / "cli.md"

_NAME_RE = re.compile(r"REPRO_[A-Z0-9_]+")

#: Table rows: | `REPRO_NAME=value` | effect |
_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)[=`]")


def _source_env_vars() -> set[str]:
    """Every string literal that is exactly a ``REPRO_*`` name.

    ``repro.analysis`` is skipped: its literals are data about the
    variables (which ones are result-neutral), not knobs of its own.
    Private names such as ``_REPRO_IN_WORKER`` do not match.
    """
    found: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if (PACKAGE / "analysis") in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _NAME_RE.fullmatch(node.value)):
                found.add(node.value)
    return found


def _documented_env_vars() -> set[str]:
    """Variables in the "Environment variables" table of docs/cli.md."""
    found: set[str] = set()
    in_section = False
    for line in CLI_DOC.read_text().splitlines():
        if line.startswith("## "):
            in_section = line.strip() == "## Environment variables"
            continue
        match = _ROW_RE.match(line) if in_section else None
        if match:
            found.add(match.group(1))
    return found


def test_source_scan_finds_the_core_knobs():
    # Guards the scan itself: an empty or truncated set would make the
    # equality below vacuous.
    assert {"REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FAULTS"} <= (
        _source_env_vars())


def test_env_table_matches_source():
    in_source = _source_env_vars()
    documented = _documented_env_vars()
    assert in_source - documented == set(), (
        "REPRO_* variables missing from the docs/cli.md table")
    assert documented - in_source == set(), (
        "docs/cli.md documents REPRO_* variables the package no longer reads")
