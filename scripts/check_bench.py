#!/usr/bin/env python3
"""Validate a bench JSON artifact and optionally compare it against a
committed baseline.

Usage: check_bench.py <bench.json> [--baseline <baseline.json>]

The artifact's "schema" field (cs-bench-solver-v3, cs-bench-load-v1,
cs-bench-scale-v1 or cs-bench-churn-v2) picks one entry of the RULES
table, and one generic validator applies it to every run. Exit 2 (the
emitter broke) unless "runs" is a non-empty array of objects whose
string fields are non-empty, numeric fields non-negative, enum fields
allowed, keys unique, rate identities within tolerance and invariants
true. Churn's certification invariants are hard failures: the
apply_delta contract (docs/DELTAS.md) promises cold-identical verdicts
on decided checks, checker-valid designs and byte-identical full-tier
designs, so a violation means the program, not the machine, is broken.

With --baseline, runs are matched by key, and exit 1 (advisory: machine
speed varies) flags a run whose floor rate fell below baseline/1.5. A
pair is skipped when either side's count is under the floor (near-idle
rates and medians over a few draws are noise) or either side is capped
(a capped wall clock measures the effort cap, not the machine). Runs
missing from the baseline are reported, not flagged.
"""
import json
import sys

REGRESSION_FACTOR = 1.5

# Per schema: string and numeric fields, allowed values, the unique run
# key, rate identities (stated, numerator, denominator, abs, rel
# tolerance), invariants, regression floors (count, rate, minimum count)
# and the condition under which a run is capped. Invariants and capped
# conditions are expressions over a run's fields.
RULES = {
    "cs-bench-solver-v3": {
        "str": ("workload", "backend", "phase"),
        "num": ("points", "wall_seconds", "conflicts", "propagations",
                "conflicts_per_sec", "propagations_per_sec", "rephases",
                "minimized_literals", "peak_rss_bytes"),
        "enums": {"backend": ("minipb",), "phase": ("cold", "warm")},
        "key": ("workload", "backend", "phase"),
        "rates": (("conflicts_per_sec", "conflicts", "wall_seconds", 1.0,
                   0.01),
                  ("propagations_per_sec", "propagations", "wall_seconds",
                   1.0, 0.01)),
        "floors": (("conflicts", "conflicts_per_sec", 1000),
                   ("propagations", "propagations_per_sec", 100_000)),
    },
    "cs-bench-load-v1": {
        "str": ("backend", "mode"),
        "num": ("dup_pct", "connections", "requests", "rejected", "errors",
                "wall_seconds", "req_per_sec", "p50_ms", "p99_ms",
                "hit_rate_pct"),
        "enums": {"mode": ("closed", "open")},
        "key": ("backend", "dup_pct", "mode"),
        "rates": (("req_per_sec", "requests", "wall_seconds", 1.0, 0.01),),
        # Rejections may be positive: open-loop bursts past the admission
        # queue are turned away by design. Errors never are.
        "gates": ("dup_pct <= 100", "hit_rate_pct <= 100",
                  "p50_ms <= p99_ms", "errors == 0"),
        "floors": (("requests", "req_per_sec", 50),),
    },
    "cs-bench-scale-v1": {
        "str": ("topology", "mode", "status"),
        "num": ("hosts", "routers", "flows", "regions", "cut_links",
                "fallback", "wall_seconds", "hosts_per_sec"),
        "enums": {"mode": ("mono", "sharded"),
                  "status": ("sat", "unsat", "capped"), "fallback": (0, 1)},
        "key": ("topology", "hosts", "mode"),
        "rates": (("hosts_per_sec", "hosts", "wall_seconds", 1.0, 0.01),),
        "floors": (("hosts", "hosts_per_sec", 50),),
        "capped": "status == 'capped'",
    },
    "cs-bench-churn-v2": {
        "str": ("topology", "op_class"),
        "num": ("hosts", "steps", "inc_median_seconds",
                "cold_median_seconds", "speedup_median", "capped",
                "verdict_mismatches", "invalid_designs",
                "design_comparisons", "design_matches", "warm", "retract",
                "full"),
        "enums": {"op_class": ("retune", "uic", "flow", "link", "host",
                               "all")},
        "key": ("topology", "hosts", "op_class"),
        "rates": (("speedup_median", "cold_median_seconds",
                   "inc_median_seconds", 0.01, 0.02),),
        "gates": ("warm + retract + full == steps",
                  "capped <= steps", "verdict_mismatches == 0",
                  "invalid_designs == 0",
                  "design_matches == design_comparisons"),
        "floors": (("steps", "speedup_median", 10),),
        "capped": "capped > 0",
    },
}


def schema_fail(msg):
    print(f"check_bench: SCHEMA FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def holds(expr, run):
    """Evaluates one of the RULES expressions above (never run data) with
    the run's fields as its only names."""
    return eval(expr, {"__builtins__": {}}, dict(run))


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        schema_fail(f"{path}: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("schema"), str):
        schema_fail(f"{path}: not an object with a string 'schema'")
    return doc


def validate(doc, path, rules):
    """Applies `rules` to every run of `doc`; returns {key: run}."""
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        schema_fail(f"{path}: 'runs' must be a non-empty array")
    keyed = {}
    for i, run in enumerate(runs):
        where = f"{path}: runs[{i}]"
        if not isinstance(run, dict):
            schema_fail(f"{where}: not an object")
        for field in rules["str"]:
            if not isinstance(run.get(field), str) or not run[field]:
                schema_fail(f"{where}: missing string field {field!r}")
        for field in rules["num"]:
            if not isinstance(run.get(field), (int, float)):
                schema_fail(f"{where}: missing numeric field {field!r}")
            if run[field] < 0:
                schema_fail(f"{where}: negative {field}")
        for field, allowed in rules["enums"].items():
            if run[field] not in allowed:
                schema_fail(f"{where}: {field} {run[field]!r} not in "
                            f"{allowed}")
        for expr in rules.get("gates", ()):
            if not holds(expr, run):
                schema_fail(f"{where}: violates {expr!r}")
        for stated, num, den, abs_tol, rel_tol in rules["rates"]:
            if run[den] > 0:
                actual = run[num] / run[den]
                if abs(run[stated] - actual) > max(abs_tol,
                                                   rel_tol * actual):
                    schema_fail(f"{where}: {stated} {run[stated]} != "
                                f"{num}/{den} {actual:.3f}")
        key = tuple(run[field] for field in rules["key"])
        if key in keyed:
            schema_fail(f"{where}: duplicate run key {key}")
        keyed[key] = run
    return keyed


def compare(current, baseline, rules):
    """Flags matched runs whose floor rate fell below
    baseline/REGRESSION_FACTOR."""
    regressions = []
    capped = rules.get("capped")
    for key, run in sorted(current.items(), key=lambda kv: str(kv[0])):
        base = baseline.get(key)
        if base is None:
            print(f"check_bench: note: {key} not in baseline (new run)")
            continue
        if capped and (holds(capped, run) or holds(capped, base)):
            continue
        for count, rate, floor in rules["floors"]:
            if run[count] < floor or base[count] < floor:
                continue
            if run[rate] * REGRESSION_FACTOR < base[rate]:
                regressions.append(
                    f"{key}: {rate} {run[rate]:.0f} < baseline "
                    f"{base[rate]:.0f}/{REGRESSION_FACTOR}")
    return regressions


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 3) or (len(args) == 3 and
                                   args[1] != "--baseline"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]
    doc = load(path)
    schema = doc.get("schema")
    rules = RULES.get(schema)
    if rules is None:
        schema_fail(f"{path}: unknown schema {schema!r} "
                    f"(want one of {sorted(RULES)})")
    current = validate(doc, path, rules)
    print(f"check_bench: {path}: {schema} schema OK ({len(current)} runs)")
    if len(args) == 1:
        return

    baseline_path = args[2]
    baseline_doc = load(baseline_path)
    if baseline_doc.get("schema") != schema:
        schema_fail(f"{baseline_path}: baseline schema "
                    f"{baseline_doc.get('schema')!r} != {schema!r}")
    regressions = compare(current, validate(baseline_doc, baseline_path,
                                            rules), rules)
    if regressions:
        for r in regressions:
            print(f"check_bench: REGRESSION: {r}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench: no >{REGRESSION_FACTOR}x throughput regression "
          f"vs {baseline_path}")


if __name__ == "__main__":
    main()
