"""Output checks shared by every workload."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.campaign import NullStore
from repro.campaign.engine import run_payload

GOLDEN_DIR = Path("tests") / "goldens"
#: The tolerance ``tests/test_golden_outputs.py`` applies.
GOLDEN_TOLERANCE = 1e-9
GOLDENS = (
    ("ch4_W1_ts_copies1", Chapter4Spec(mix="W1", policy="ts", copies=1)),
    (
        "ch5_PE1950_W1_bw_copies1",
        Chapter5Spec(platform="PE1950", mix="W1", policy="bw", copies=1),
    ),
)


def canonical(value) -> str:
    """Canonical JSON: sorted keys, exact float reprs."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(values) -> str:
    """SHA-256 over the canonical JSON of ``values`` (first 16 hex)."""
    return hashlib.sha256(canonical(values).encode()).hexdigest()[:16]


def _diff(golden, fresh, path: str, out: list[str]) -> None:
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key not in golden or key not in fresh:
                out.append(f"{path}.{key}: present on one side only")
            else:
                _diff(golden[key], fresh[key], f"{path}.{key}", out)
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            out.append(f"{path}: length {len(golden)} != {len(fresh)}")
            return
        for index, (g, f) in enumerate(zip(golden, fresh)):
            _diff(g, f, f"{path}[{index}]", out)
    elif isinstance(golden, float) or isinstance(fresh, float):
        if abs(float(golden) - float(fresh)) > GOLDEN_TOLERANCE:
            out.append(f"{path}: {golden!r} != {fresh!r}")
    elif golden != fresh:
        out.append(f"{path}: {golden!r} != {fresh!r}")


def check_goldens(report) -> None:
    """Recompute the repository goldens; one mismatch per golden that drifted."""
    for name, spec in GOLDENS:
        report.attempted += 1
        path = GOLDEN_DIR / f"{name}.json"
        if not path.exists():
            report.mismatch(f"golden {path} is missing")
            continue
        payload, _, _ = run_payload(spec, NullStore())
        drift: list[str] = []
        _diff(json.loads(path.read_text()), payload, name, drift)
        if drift:
            report.mismatch(f"golden {name}: " + "; ".join(drift[:5]))
