"""JSON report serialization.

Reports are plain dicts rendered with sorted keys and a fixed layout so a run
with the same seed is byte-identical. Non-finite floats become null; the
dataclass field `passed` is exported as "pass".
"""

from __future__ import annotations

import dataclasses
import json
import math
from datetime import datetime, timezone

import numpy as np

SCHEMA_VERSION = 1


def to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            key = "pass" if f.name == "passed" else f.name
            out[key] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {("pass" if k == "passed" else str(k)): to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def render_report(command: str, config: dict, payload: dict,
                  timestamp: bool = True) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": to_jsonable(config),
    }
    report.update(to_jsonable(payload))
    if timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_plot_csv(path, laplace):
    """Plot-data table t,estimate,stderr,bound of a LaplaceReport (bound blank
    when absent)."""
    bound_values = laplace.bound_values
    rows = ["t,estimate,stderr,bound"]
    for k, t in enumerate(np.asarray(laplace.t_values, dtype=float)):
        bound = ""
        if bound_values is not None and math.isfinite(bound_values[k]):
            bound = f"{bound_values[k]:.17g}"
        rows.append(f"{t:.17g},{laplace.estimates[k]:.17g},"
                    f"{laplace.standard_errors[k]:.17g},{bound}")
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")
