"""Canonical verdicts, their digests, and the committed references.

A verdict is reduced to its decision, ``gate_fired``, method, and each
evidence entry (channel, test, outcome, witnesses rounded to six
significant digits), then hashed. Two verdicts with the same digest
agree on everything an auditor of the alarm would read.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def _round6(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.6g}")


def canonical(verdict: dict) -> dict:
    """Reduce ``Verdict.to_dict()`` output (or an evaluate report row)."""
    return {
        "decision": verdict["decision"],
        "gate_fired": bool(verdict["gate_fired"]),
        "method": verdict["method"],
        "evidence": [
            {
                "channel": e["channel"],
                "test": e["test"],
                "outcome": bool(e["outcome"]),
                "witnesses": {k: _round6(v) for k, v in sorted(e["witnesses"].items())},
            }
            for e in verdict["evidence"]
        ],
    }


def digest(canonical_verdict: dict) -> str:
    text = json.dumps(canonical_verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def is_fail_safe(canonical_verdict: dict) -> bool:
    """True when the verdict carries a fail-safe note.

    Every fail-safe path (no usable channel, too few beats, a bank
    that could not be built) adds evidence without a channel name.
    """
    return any(e["channel"] == "" for e in canonical_verdict["evidence"])


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_references(name: str) -> dict[str, dict]:
    """``{"<entry>|<method>": {"digest": ..., "verdict": ...}}``."""
    path = reference_path(name)
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def run_digest(keys: list[str], references: dict[str, dict]) -> str:
    """Expected digest of a whole run plan: its item digests in order."""
    parts = [references.get(k, {}).get("digest", "missing") for k in keys]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
