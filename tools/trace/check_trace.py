#!/usr/bin/env python3
"""Validates a hebs Chrome/Perfetto trace against the checked-in schema.

Two layers, both stdlib-only so CI needs no third-party packages:

1. Schema validation: a small validator for the JSON-Schema subset the
   checked-in schema uses (type / required / properties / items / enum /
   minimum).  Unknown keywords are rejected loudly rather than silently
   ignored, so the schema cannot drift ahead of the validator.
2. Semantic checks the schema cannot express: the trace must contain at
   least one "frame" span, spans must be well nested per tid (a child's
   [ts, ts+dur] interval lies inside its parent's), and every
   "temporal-reuse" level argument must be 0 (cold), 1 (delta refresh)
   or 2 (byte-identical).

Optionally cross-checks a --stats counter dump (the hebs_cli --stats
output): every line must be "name value", every name must start with
"hebs_", the series the contract reads must be present, and the
temporal counters must satisfy the reuse contract
byte_identical + delta_refresh + cold == temporal_frames.

Exit code 0 on success, 1 with a findings list on any violation.
"""

import argparse
import json
import sys

KNOWN_KEYWORDS = {
    "comment", "type", "required", "properties", "items", "enum", "minimum",
}


def validate(instance, schema, path, findings):
    """Validates `instance` against the supported JSON-Schema subset."""
    unknown = set(schema) - KNOWN_KEYWORDS
    if unknown:
        findings.append(f"{path}: schema uses unsupported keywords "
                        f"{sorted(unknown)}; extend check_trace.py first")
        return

    expected = schema.get("type")
    if expected is not None:
        ok = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            # bool is an int subclass in Python; a trace must not abuse it.
            "integer": lambda v: isinstance(v, int)
            and not isinstance(v, bool),
            "number": lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool),
        }[expected](instance)
        if not ok:
            findings.append(f"{path}: expected {expected}, got "
                            f"{type(instance).__name__}")
            return

    if "enum" in schema and instance not in schema["enum"]:
        findings.append(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and instance < schema["minimum"]:
        findings.append(f"{path}: {instance} < minimum {schema['minimum']}")

    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                findings.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                validate(instance[key], sub, f"{path}.{key}", findings)

    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], f"{path}[{i}]", findings)


def check_semantics(trace, findings):
    events = trace.get("traceEvents", [])
    if not any(e.get("name") == "frame" for e in events):
        findings.append("trace contains no 'frame' span")

    for e in events:
        if e.get("name") == "temporal-reuse":
            level = e.get("args", {}).get("arg")
            if level not in (0, 1, 2):
                findings.append(f"temporal-reuse level {level!r} is not "
                                "0 (cold) / 1 (delta) / 2 (byte-identical)")

    # Nesting: within one tid, intervals must be properly nested (the
    # writer sorts by start with longer spans first, so a linear
    # stack-based sweep suffices).
    by_tid = {}
    for e in events:
        by_tid.setdefault(e.get("tid"), []).append(e)
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1] - 1e-9:
                stack.pop()
            if stack and end > stack[-1] + 1e-9:
                findings.append(
                    f"tid {tid}: span '{e['name']}' [{e['ts']}, {end}] "
                    f"overlaps its enclosing span (ends {stack[-1]})")
            stack.append(end)


def check_stats(text, findings):
    counters = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdigit():
            findings.append(f"stats line {lineno}: expected 'name value', "
                            f"got {line!r}")
            continue
        if not parts[0].startswith("hebs_"):
            findings.append(f"stats line {lineno}: counter {parts[0]!r} "
                            "lacks the hebs_ prefix")
        counters[parts[0]] = int(parts[1])

    contract = ["hebs_frames_decided_total", "hebs_temporal_frames_total",
                "hebs_temporal_reuse_byte_identical_total",
                "hebs_temporal_reuse_delta_refresh_total",
                "hebs_temporal_reuse_cold_total"]
    missing = [name for name in contract if name not in counters]
    if missing:
        findings.append(f"stats dump lacks the contract's series {missing}")
        return
    total = counters["hebs_temporal_frames_total"]
    split = (counters["hebs_temporal_reuse_byte_identical_total"]
             + counters["hebs_temporal_reuse_delta_refresh_total"]
             + counters["hebs_temporal_reuse_cold_total"])
    if split != total:
        findings.append(
            f"temporal contract violated: byte_identical + delta + cold "
            f"= {split} but hebs_temporal_frames_total = {total}")
    if counters["hebs_frames_decided_total"] == 0:
        findings.append("stats dump shows zero frames decided")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace JSON written by hebs")
    ap.add_argument("--schema", default="tools/trace/trace_schema.json")
    ap.add_argument("--stats", help="optional hebs_cli --stats dump to "
                                    "cross-check")
    args = ap.parse_args()

    findings = []
    with open(args.schema) as f:
        schema = json.load(f)
    try:
        with open(args.trace) as f:
            trace = json.load(f)
    except json.JSONDecodeError as e:
        print(f"FAIL: {args.trace} is not valid JSON: {e}")
        return 1

    validate(trace, schema, "$", findings)
    if not findings:  # semantic checks assume schema-shaped events
        check_semantics(trace, findings)
    if args.stats:
        with open(args.stats) as f:
            check_stats(f.read(), findings)

    if findings:
        print(f"FAIL: {len(findings)} finding(s) in {args.trace}:")
        for f_ in findings:
            print(f"  - {f_}")
        return 1
    n = len(trace.get("traceEvents", []))
    print(f"OK: {args.trace} ({n} events) matches {args.schema}"
          + (" and stats contract holds" if args.stats else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
