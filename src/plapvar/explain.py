"""Verdict evidence as JSON, the evidence.json of `plap-var run --explain`.

Each verdict becomes {"status", "evidence"} and each report {"overall",
"conditions"}.  JSON has no infinities or NaN, and the evidence holds
the limsup sentinels, so +-inf and nan are written as the strings
"inf", "-inf" and "nan".  `plapvar.cli` imports this module only when
asked to explain, so a plain run does not load it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = ["write_evidence"]


def _json_value(v):
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _verdict(v) -> dict:
    return {"status": v.status, "evidence": _json_value(v.evidence)}


def _report(rep) -> dict:
    return {"overall": rep.overall,
            "conditions": {k: _verdict(v) for k, v in rep.conditions.items()}}


def write_evidence(out_dir, reports, superlinear, table) -> None:
    """Write out_dir/evidence.json for what a run computed: `reports` from
    `check_theorems`, the `check_superlinear_negativity` verdict and the
    `incomparability_suite` table; a stage that did not run (None) is left
    out."""
    out = {}
    if reports is not None:
        out["conditions"] = {name: _report(rep) for name, rep in reports.items()}
    if superlinear is not None:
        out["superlinear_negativity"] = _verdict(superlinear)
    if table is not None:
        out["incomparability"] = {case: {t: _report(rep) for t, rep in reps.items()}
                                  for case, reps in table.reports.items()}
    text = json.dumps(out, indent=1, allow_nan=False)
    (Path(out_dir) / "evidence.json").write_text(text + "\n", encoding="utf-8")
