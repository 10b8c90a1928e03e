"""Deterministic JSON reports for verification runs.

The report payload is a pure function of (command echo, items, seed):
items are emitted in their deterministic generation order and serialized
with sorted keys, so two runs with the same configuration produce
byte-identical files.  Wall time is printed to stderr only, never into the
payload.
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

REPORT_SCHEMA_VERSION = "1"


def build_report(command: str, parameters: dict, items: Sequence[dict], seed: int | None) -> dict:
    passed = sum(1 for it in items if it["pass"])
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "items": list(items),
        "passed": passed,
        "failed": len(items) - passed,
    }


def serialize_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def emit(payload: dict, output: str | None, summary: str) -> None:
    """Write ``payload`` to the file ``output``, or to stdout when there is
    none, and the one-line ``summary`` to stderr."""
    text = serialize_report(payload)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
