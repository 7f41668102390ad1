#!/usr/bin/env python3
"""Validate a bench JSON artifact and optionally compare it against a
committed baseline. The artifact's top-level "schema" field selects the
validator:

  cs-bench-solver-v3  (BENCH_solver.json, bench_solver_core)
  cs-bench-load-v1    (BENCH_load.json, bench_load)
  cs-bench-scale-v1   (BENCH_scale.json, bench_fig6_scale)
  cs-bench-churn-v1   (BENCH_churn.json, bench_fig7_churn)

Usage: check_bench.py <bench.json> [--baseline <baseline.json>]

Schema checks (stdlib json only; exit 2 on failure — the emitter broke):

cs-bench-solver-v3:
  * "runs" is a non-empty array; every run carries workload/backend/phase
    plus numeric points, wall_seconds, conflicts, propagations,
    conflicts_per_sec, propagations_per_sec, rephases,
    minimized_literals, peak_rss_bytes;
  * backend is minipb, phase is cold|warm, counts are non-negative,
    (workload, backend, phase) keys are unique;
  * the stated rates agree with conflicts/wall and propagations/wall.

cs-bench-load-v1:
  * "runs" is a non-empty array; every run carries backend/mode strings
    plus numeric dup_pct, connections, requests, rejected, errors,
    wall_seconds, req_per_sec, p50_ms, p99_ms, hit_rate_pct;
  * mode is closed|open, dup_pct and hit_rate_pct lie in [0, 100],
    p50_ms <= p99_ms, errors == 0 (rejected may be positive: open-loop
    bursts past the admission queue are turned away by design),
    (backend, dup_pct, mode) keys are unique;
  * req_per_sec agrees with requests/wall_seconds.

cs-bench-scale-v1:
  * "runs" is a non-empty array; every run carries topology/mode/status
    strings plus numeric hosts, routers, flows, regions, cut_links,
    fallback, wall_seconds, hosts_per_sec;
  * mode is mono|sharded, status is sat|unsat|capped, fallback is 0|1,
    (topology, hosts, mode) keys are unique;
  * hosts_per_sec agrees with hosts/wall_seconds.

cs-bench-churn-v1:
  * "runs" is a non-empty array; every run carries topology/op_class
    strings plus numeric hosts, steps, inc_median_seconds,
    cold_median_seconds, speedup_median, capped, verdict_mismatches,
    invalid_designs, design_comparisons, design_matches, warm, retract,
    replay, full;
  * op_class is retune|uic|flow|link|host|all, path counts sum to steps,
    capped <= steps, (topology, hosts, op_class) keys are unique;
  * correctness certification is a hard gate, not a regression warning:
    verdict_mismatches == 0, invalid_designs == 0 and design_matches ==
    design_comparisons — the apply_delta contract (docs/DELTAS.md) says
    incremental verdicts equal cold solves on decided checks, so any
    decided-vs-decided mismatch means the emitter (not the machine) is
    broken (capped steps — either side kUnknown — are excluded from
    certification by the bench and counted in `capped`);
  * speedup_median agrees with cold_median/inc_median.

Baseline comparison (exit 1 on regression — machine-speed dependent, so
callers treat it as a warning, not a gate):
  * runs are matched to baseline runs by their key;
  * solver: a matched run whose conflicts_per_sec (propagations_per_sec)
    falls below baseline/1.5 is flagged; runs under 1000 conflicts
    (100000 propagations) are skipped — near-idle rates are noise;
  * load: a matched run whose req_per_sec falls below baseline/1.5 is
    flagged; runs under 50 requests are skipped;
  * scale: a matched run whose hosts_per_sec falls below baseline/1.5 is
    flagged; runs under 50 hosts are skipped, and so are capped runs on
    either side (a capped wall clock measures the effort cap, not the
    machine);
  * churn: a matched run whose speedup_median falls below baseline/1.5
    is flagged; cells under 10 steps are skipped — per-class medians
    over a few draws are noise — and so are cells with capped steps on
    either side (a capped probe's wall is its effort cap);
  * runs missing from the baseline are reported but not flagged.

Exit code 0 when the schema is valid and no regression was flagged.
"""
import json
import sys

REGRESSION_FACTOR = 1.5
MIN_CONFLICTS = 1000
MIN_PROPAGATIONS = 100_000
MIN_REQUESTS = 50
MIN_HOSTS = 50
MIN_STEPS = 10

SOLVER_SCHEMA = "cs-bench-solver-v3"
LOAD_SCHEMA = "cs-bench-load-v1"
SCALE_SCHEMA = "cs-bench-scale-v1"
CHURN_SCHEMA = "cs-bench-churn-v1"

SOLVER_STR = ("workload", "backend", "phase")
SOLVER_NUM = ("points", "wall_seconds", "conflicts", "propagations",
              "conflicts_per_sec", "propagations_per_sec", "rephases",
              "minimized_literals", "peak_rss_bytes")
LOAD_STR = ("backend", "mode")
LOAD_NUM = ("dup_pct", "connections", "requests", "rejected", "errors",
            "wall_seconds", "req_per_sec", "p50_ms", "p99_ms",
            "hit_rate_pct")
SCALE_STR = ("topology", "mode", "status")
SCALE_NUM = ("hosts", "routers", "flows", "regions", "cut_links",
             "fallback", "wall_seconds", "hosts_per_sec")
CHURN_STR = ("topology", "op_class")
CHURN_NUM = ("hosts", "steps", "inc_median_seconds", "cold_median_seconds",
             "speedup_median", "capped", "verdict_mismatches",
             "invalid_designs", "design_comparisons", "design_matches",
             "warm", "retract", "replay", "full")
CHURN_CLASSES = ("retune", "uic", "flow", "link", "host", "all")


def schema_fail(msg):
    print(f"check_bench: SCHEMA FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        schema_fail(f"{path}: {e}")


def check_runs(doc, path):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        schema_fail(f"{path}: 'runs' must be a non-empty array")
    return runs


def check_fields(run, where, str_fields, num_fields):
    if not isinstance(run, dict):
        schema_fail(f"{where}: not an object")
    for field in str_fields:
        if not isinstance(run.get(field), str) or not run[field]:
            schema_fail(f"{where}: missing string field {field!r}")
    for field in num_fields:
        if not isinstance(run.get(field), (int, float)):
            schema_fail(f"{where}: missing numeric field {field!r}")
        if run[field] < 0:
            schema_fail(f"{where}: negative {field}")


def check_rate(run, where, count, rate, wall="wall_seconds"):
    """The stated rate must agree with count/wall (1% tolerance)."""
    if run[wall] <= 0:
        return
    stated = run[rate]
    actual = run[count] / run[wall]
    if abs(stated - actual) > max(1.0, 0.01 * actual):
        schema_fail(f"{where}: {rate} {stated} != {count}/wall "
                    f"{actual:.1f}")


def validate_solver(doc, path):
    keyed = {}
    for i, run in enumerate(check_runs(doc, path)):
        where = f"{path}: runs[{i}]"
        check_fields(run, where, SOLVER_STR, SOLVER_NUM)
        if run["backend"] != "minipb":
            schema_fail(f"{where}: backend {run['backend']!r}")
        if run["phase"] not in ("cold", "warm"):
            schema_fail(f"{where}: phase {run['phase']!r}")
        key = (run["workload"], run["backend"], run["phase"])
        if key in keyed:
            schema_fail(f"{where}: duplicate run key {key}")
        keyed[key] = run
        check_rate(run, where, "conflicts", "conflicts_per_sec")
        check_rate(run, where, "propagations", "propagations_per_sec")
    return keyed


def validate_load(doc, path):
    keyed = {}
    for i, run in enumerate(check_runs(doc, path)):
        where = f"{path}: runs[{i}]"
        check_fields(run, where, LOAD_STR, LOAD_NUM)
        if run["mode"] not in ("closed", "open"):
            schema_fail(f"{where}: mode {run['mode']!r}")
        for pct in ("dup_pct", "hit_rate_pct"):
            if not 0 <= run[pct] <= 100:
                schema_fail(f"{where}: {pct} {run[pct]} outside [0, 100]")
        if run["p50_ms"] > run["p99_ms"]:
            schema_fail(f"{where}: p50_ms {run['p50_ms']} > p99_ms "
                        f"{run['p99_ms']}")
        if run["errors"] != 0:
            schema_fail(f"{where}: {run['errors']} request(s) errored")
        key = (run["backend"], run["dup_pct"], run["mode"])
        if key in keyed:
            schema_fail(f"{where}: duplicate run key {key}")
        keyed[key] = run
        check_rate(run, where, "requests", "req_per_sec")
    return keyed


def validate_scale(doc, path):
    keyed = {}
    for i, run in enumerate(check_runs(doc, path)):
        where = f"{path}: runs[{i}]"
        check_fields(run, where, SCALE_STR, SCALE_NUM)
        if run["mode"] not in ("mono", "sharded"):
            schema_fail(f"{where}: mode {run['mode']!r}")
        if run["status"] not in ("sat", "unsat", "capped"):
            schema_fail(f"{where}: status {run['status']!r}")
        if run["fallback"] not in (0, 1):
            schema_fail(f"{where}: fallback {run['fallback']!r}")
        key = (run["topology"], run["hosts"], run["mode"])
        if key in keyed:
            schema_fail(f"{where}: duplicate run key {key}")
        keyed[key] = run
        check_rate(run, where, "hosts", "hosts_per_sec")
    return keyed


def validate_churn(doc, path):
    keyed = {}
    for i, run in enumerate(check_runs(doc, path)):
        where = f"{path}: runs[{i}]"
        check_fields(run, where, CHURN_STR, CHURN_NUM)
        if run["op_class"] not in CHURN_CLASSES:
            schema_fail(f"{where}: op_class {run['op_class']!r}")
        paths = run["warm"] + run["retract"] + run["replay"] + run["full"]
        if paths != run["steps"]:
            schema_fail(f"{where}: path counts {paths} != steps "
                        f"{run['steps']}")
        if run["capped"] > run["steps"]:
            schema_fail(f"{where}: capped {run['capped']} > steps "
                        f"{run['steps']}")
        # Correctness is a hard gate: the apply_delta contract promises
        # cold-identical verdicts, certified designs, and byte-identical
        # designs on the deterministic replay/full tiers.
        if run["verdict_mismatches"] != 0:
            schema_fail(f"{where}: {run['verdict_mismatches']} incremental "
                        f"verdict(s) differ from the cold solve")
        if run["invalid_designs"] != 0:
            schema_fail(f"{where}: {run['invalid_designs']} design(s) "
                        f"failed check_design certification")
        if run["design_matches"] != run["design_comparisons"]:
            schema_fail(f"{where}: only {run['design_matches']} of "
                        f"{run['design_comparisons']} replay/full designs "
                        f"matched the cold design")
        key = (run["topology"], run["hosts"], run["op_class"])
        if key in keyed:
            schema_fail(f"{where}: duplicate run key {key}")
        keyed[key] = run
        if run["inc_median_seconds"] > 0:
            stated = run["speedup_median"]
            actual = run["cold_median_seconds"] / run["inc_median_seconds"]
            if abs(stated - actual) > max(0.01, 0.02 * actual):
                schema_fail(f"{where}: speedup_median {stated} != "
                            f"cold/inc {actual:.3f}")
    return keyed


def skip_capped(run, base):
    """A capped wall clock measures the effort cap, not the machine."""
    return run.get("status") == "capped" or base.get("status") == "capped"


def skip_churn_capped(run, base):
    """A cell with capped steps has cap-burn wall times in its medians."""
    return run["capped"] > 0 or base["capped"] > 0


# schema name -> (validator, regression rate floors, optional pair skip).
# Validators return {key: run}; rate_floors are (count_field, rate_field,
# min_count) triples fed to compare().
SCHEMAS = {
    SOLVER_SCHEMA: {
        "validate": validate_solver,
        "rate_floors": (("conflicts", "conflicts_per_sec", MIN_CONFLICTS),
                        ("propagations", "propagations_per_sec",
                         MIN_PROPAGATIONS)),
    },
    LOAD_SCHEMA: {
        "validate": validate_load,
        "rate_floors": (("requests", "req_per_sec", MIN_REQUESTS),),
    },
    SCALE_SCHEMA: {
        "validate": validate_scale,
        "rate_floors": (("hosts", "hosts_per_sec", MIN_HOSTS),),
        "skip": skip_capped,
    },
    CHURN_SCHEMA: {
        "validate": validate_churn,
        "rate_floors": (("steps", "speedup_median", MIN_STEPS),),
        "skip": skip_churn_capped,
    },
}


def compare(current, baseline, rate_floors, skip=None):
    """Flags matched runs whose rate fell below baseline/REGRESSION_FACTOR.
    rate_floors: (count_field, rate_field, min_count) triples; skip, when
    given, drops (run, base) pairs the rates are meaningless for."""
    regressions = []
    for key, run in sorted(current.items(), key=lambda kv: str(kv[0])):
        base = baseline.get(key)
        if base is None:
            print(f"check_bench: note: {key} not in baseline (new run)")
            continue
        if skip is not None and skip(run, base):
            continue
        for count, rate, floor in rate_floors:
            if run[count] < floor or base[count] < floor:
                continue
            if run[rate] * REGRESSION_FACTOR < base[rate]:
                regressions.append(
                    f"{key}: {rate} {run[rate]:.0f} < baseline "
                    f"{base[rate]:.0f}/{REGRESSION_FACTOR}")
    return regressions


def main():
    args = sys.argv[1:]
    if not args or len(args) not in (1, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]
    baseline_path = None
    if len(args) == 3:
        if args[1] != "--baseline":
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        baseline_path = args[2]

    doc = load(path)
    schema = doc.get("schema")
    entry = SCHEMAS.get(schema)
    if entry is None:
        schema_fail(f"{path}: unknown schema {schema!r} "
                    f"(want one of {sorted(SCHEMAS)})")

    current = entry["validate"](doc, path)
    print(f"check_bench: {path}: {schema} schema OK ({len(current)} runs)")
    if baseline_path is None:
        return

    baseline_doc = load(baseline_path)
    if baseline_doc.get("schema") != schema:
        schema_fail(f"{baseline_path}: baseline schema "
                    f"{baseline_doc.get('schema')!r} != {schema!r}")
    baseline = entry["validate"](baseline_doc, baseline_path)
    regressions = compare(current, baseline, entry["rate_floors"],
                          entry.get("skip"))
    if regressions:
        for r in regressions:
            print(f"check_bench: REGRESSION: {r}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench: no >{REGRESSION_FACTOR}x throughput regression "
          f"vs {baseline_path}")


if __name__ == "__main__":
    main()
