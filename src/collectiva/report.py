"""Machine-readable run reports: schema, serialization, atomic writes.

Reports are JSON-first with sorted keys and a single timestamp field, so two
runs of the same config differ in at most that one line.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import is_dataclass, asdict
from datetime import datetime, timezone
from fractions import Fraction

from .errors import CapacityError

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "config", "generated_at",
                 "payload", "warnings"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string", "minLength": 1},
        "config": {"type": "object"},
        "generated_at": {"type": "string", "format": "date-time"},
        "payload": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


def jsonable(value):
    """Recursively convert package values to JSON-safe types.

    Fractions become "n/d" strings (lossless); numpy scalars/arrays become
    Python numbers/lists; mapping keys become strings.  No numpy value can
    exist before numpy is imported, so until then none is looked for.
    """
    if isinstance(value, Fraction):
        return _ratio(value)
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    return value


def _ratio(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # int -> str past sys.get_int_max_str_digits()
        raise CapacityError(
            f"a rational in the report exceeds the {sys.get_int_max_str_digits()}-digit "
            "limit of integer string conversion"
        ) from exc


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, Fraction):
        return _ratio(k)
    if isinstance(k, tuple):
        return "|".join(str(x) for x in k)
    return str(k)


def make_report(command: str, config: dict, payload: dict,
                warnings: list[str] | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": jsonable(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "payload": jsonable(payload),
        "warnings": list(warnings or []),
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class ReportSchemaError(ValueError):
    """A report that does not match REPORT_SCHEMA."""


_ENVELOPE_TYPES = {"command": str, "config": dict, "generated_at": str,
                   "payload": dict, "warnings": list}


def validate_report(report: dict):
    """Check a report against REPORT_SCHEMA in plain Python: the six keys
    and no others, the schema version, a non-empty command string, config
    and payload objects, a generated_at string and a list of string
    warnings.  Like jsonschema.validate, it does not assert the date-time
    format.  Raises ReportSchemaError on the first fault."""
    if not isinstance(report, dict):
        raise ReportSchemaError("a report must be an object")
    missing = [k for k in REPORT_SCHEMA["required"] if k not in report]
    if missing:
        raise ReportSchemaError(f"report lacks {', '.join(missing)}")
    extra = [k for k in report if k not in REPORT_SCHEMA["properties"]]
    if extra:
        raise ReportSchemaError(f"report has unknown keys {extra!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ReportSchemaError(f"schema_version must be {SCHEMA_VERSION!r}")
    for key, kind in _ENVELOPE_TYPES.items():
        if not isinstance(report[key], kind):
            raise ReportSchemaError(f"{key} must be of type {kind.__name__}")
    if not report["command"]:
        raise ReportSchemaError("command must be non-empty")
    if not all(isinstance(w, str) for w in report["warnings"]):
        raise ReportSchemaError("warnings must be strings")


def write_report(report: dict, out_path=None):
    """Validate, then write atomically (temp file + rename) or to stdout."""
    validate_report(report)
    text = render_report(report)
    if out_path is None:
        sys.stdout.write(text)
        return
    out_dir = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".report-", dir=out_dir)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
