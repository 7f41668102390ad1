#!/usr/bin/env python3
"""Exit-code oracle for a check_bench script.

Usage: check_bench_test.py <path/to/check_bench.py>

Runs the given script on the committed baselines in bench/baselines/ and
on mutated copies of them, and checks its exit code for each case:

  * 0 on every baseline, alone and compared with itself;
  * 2 (schema or correctness failure) on one mutation per rule: missing
    field, negative count, unknown schema, empty runs, a disallowed value
    in each enum, a duplicate run key, each rate identity off by more
    than its tolerance, load errors / p50 > p99 / a percentage above
    100, churn's tier-sum, capped and certification gates, and a
    baseline of another schema;
  * 1 (advisory regression) on a 2x throughput drop above each
    regression floor, and 0 on the same drop below the floor or on a
    capped run.

Exits 0 when every case matches, 1 otherwise (listing the mismatches).
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "bench", "baselines")
FILES = {
    "solver": "BENCH_solver.json",
    "load": "BENCH_load.json",
    "scale": "BENCH_scale.json",
    "churn": "BENCH_churn.json",
}


def baseline(kind):
    with open(os.path.join(BASELINES, FILES[kind])) as f:
        return json.load(f)


def mutate(kind, edit):
    """A copy of the kind's baseline with edit(doc) applied."""
    doc = copy.deepcopy(baseline(kind))
    edit(doc)
    return doc


def run0(edit):
    """An edit that applies `edit` to the first run only."""
    return lambda doc: edit(doc["runs"][0])


def setter(**fields):
    return run0(lambda run: run.update(fields))


def dropper(field):
    return run0(lambda run: run.pop(field))


def off_rate(count, rate, wall="wall_seconds"):
    """Moves a stated rate well past the 1% / 1.0 tolerance."""
    def edit(run):
        run[rate] = 1.5 * run[count] / run[wall] + 2.0
    return run0(edit)


def off_speedup(run):
    run["speedup_median"] = (1.5 * run["cold_median_seconds"] /
                             run["inc_median_seconds"] + 0.1)


def duplicate_first(doc):
    doc["runs"].append(copy.deepcopy(doc["runs"][0]))


def one_run(schema, run):
    return {"schema": schema, "runs": [run]}


# ---- single-run documents for the regression comparisons -------------------

def solver_doc(conflicts, propagations, wall):
    return one_run("cs-bench-solver-v3", {
        "workload": "w", "backend": "minipb", "phase": "cold", "points": 1,
        "wall_seconds": wall, "conflicts": conflicts,
        "propagations": propagations,
        "conflicts_per_sec": conflicts / wall,
        "propagations_per_sec": propagations / wall, "rephases": 0,
        "minimized_literals": 0, "peak_rss_bytes": 1})


def load_doc(requests, wall):
    return one_run("cs-bench-load-v1", {
        "backend": "minipb", "dup_pct": 0, "mode": "closed",
        "connections": 1, "requests": requests, "rejected": 0, "errors": 0,
        "wall_seconds": wall, "req_per_sec": requests / wall, "p50_ms": 1.0,
        "p99_ms": 2.0, "hit_rate_pct": 0.0})


def scale_doc(hosts, wall, status="sat"):
    return one_run("cs-bench-scale-v1", {
        "topology": "fat-tree", "hosts": hosts, "mode": "sharded",
        "status": status, "routers": 1, "flows": 1, "regions": 1,
        "cut_links": 0, "fallback": 0, "wall_seconds": wall,
        "hosts_per_sec": hosts / wall})


def churn_doc(steps, inc, capped=0):
    return one_run("cs-bench-churn-v2", {
        "topology": "campus", "hosts": 24, "op_class": "all",
        "steps": steps, "inc_median_seconds": inc,
        "cold_median_seconds": 0.01, "speedup_median": 0.01 / inc,
        "capped": capped, "verdict_mismatches": 0, "invalid_designs": 0,
        "design_comparisons": 0, "design_matches": 0, "warm": steps,
        "retract": 0, "full": 0})


def cases():
    """(name, current doc, baseline doc or None, expected exit code)."""
    out = []
    for kind in FILES:
        out.append((f"{kind} baseline", baseline(kind), None, 0))
        out.append((f"{kind} baseline vs itself", baseline(kind),
                    baseline(kind), 0))
        out.append((f"{kind} empty runs",
                    mutate(kind, lambda d: d.update(runs=[])), None, 2))
        out.append((f"{kind} duplicate key", mutate(kind, duplicate_first),
                    None, 2))
    out.append(("unknown schema",
                mutate("solver", lambda d: d.update(schema="cs-bench-x-v1")),
                None, 2))
    out.append(("baseline of another schema", baseline("solver"),
                baseline("load"), 2))

    fail = [
        # Missing string and numeric fields, negative counts.
        ("solver", "missing workload", dropper("workload")),
        ("solver", "missing conflicts", dropper("conflicts")),
        ("load", "missing mode", dropper("mode")),
        ("load", "missing requests", dropper("requests")),
        ("scale", "missing status", dropper("status")),
        ("scale", "missing flows", dropper("flows")),
        ("churn", "missing op_class", dropper("op_class")),
        ("churn", "missing design_matches", dropper("design_matches")),
        ("solver", "negative rephases", setter(rephases=-1)),
        ("load", "negative rejected", setter(rejected=-1)),
        ("scale", "negative regions", setter(regions=-1)),
        ("churn", "negative hosts", setter(hosts=-1)),
        # Disallowed enum values.
        ("solver", "backend race", setter(backend="race")),
        ("solver", "phase hot", setter(phase="hot")),
        ("load", "mode half", setter(mode="half")),
        ("scale", "mode hybrid", setter(mode="hybrid")),
        ("scale", "status timeout", setter(status="timeout")),
        ("scale", "fallback 2", setter(fallback=2)),
        ("churn", "op_class reboot", setter(op_class="reboot")),
        # Rate identities.
        ("solver", "conflicts_per_sec off",
         off_rate("conflicts", "conflicts_per_sec")),
        ("solver", "propagations_per_sec off",
         off_rate("propagations", "propagations_per_sec")),
        ("load", "req_per_sec off", off_rate("requests", "req_per_sec")),
        ("scale", "hosts_per_sec off", off_rate("hosts", "hosts_per_sec")),
        ("churn", "speedup_median off", run0(off_speedup)),
        # Load invariants.
        ("load", "errors", setter(errors=1)),
        ("load", "p50 above p99", run0(lambda r: r.update(
            p50_ms=r["p99_ms"] + 1))),
        ("load", "hit rate above 100", setter(hit_rate_pct=100.5)),
        ("load", "dup_pct above 100", setter(dup_pct=101)),
        # Churn's tier sum and correctness gates.
        ("churn", "tier counts != steps", run0(lambda r: r.update(
            warm=r["warm"] + 1))),
        ("churn", "capped > steps", run0(lambda r: r.update(
            capped=r["steps"] + 1))),
        ("churn", "verdict mismatch", setter(verdict_mismatches=1)),
        ("churn", "invalid design", setter(invalid_designs=1)),
        ("churn", "design matches != comparisons", run0(lambda r: r.update(
            design_comparisons=r["design_matches"] + 1))),
    ]
    for kind, name, edit in fail:
        out.append((f"{kind} {name}", mutate(kind, edit), None, 2))

    # 2x throughput drops: flagged above each floor, not below it and not
    # on capped runs.
    out += [
        ("solver conflicts 2x drop", solver_doc(2000, 50_000, 2.0),
         solver_doc(2000, 50_000, 1.0), 1),
        ("solver conflicts 2x drop below floor", solver_doc(500, 50_000, 2.0),
         solver_doc(500, 50_000, 1.0), 0),
        ("solver propagations 2x drop", solver_doc(500, 200_000, 2.0),
         solver_doc(500, 200_000, 1.0), 1),
        ("solver propagations 2x drop below floor",
         solver_doc(500, 50_000, 2.0), solver_doc(500, 50_000, 1.0), 0),
        ("load 2x drop", load_doc(200, 2.0), load_doc(200, 1.0), 1),
        ("load 2x drop below floor", load_doc(40, 2.0), load_doc(40, 1.0), 0),
        ("scale 2x drop", scale_doc(100, 2.0), scale_doc(100, 1.0), 1),
        ("scale 2x drop below floor", scale_doc(40, 2.0), scale_doc(40, 1.0),
         0),
        ("scale 2x drop on a capped run", scale_doc(100, 2.0, "capped"),
         scale_doc(100, 1.0), 0),
        ("scale 2x drop on a capped baseline run", scale_doc(100, 2.0),
         scale_doc(100, 1.0, "capped"), 0),
        ("churn 2x drop", churn_doc(12, 0.002), churn_doc(12, 0.001), 1),
        ("churn 2x drop below floor", churn_doc(8, 0.002),
         churn_doc(8, 0.001), 0),
        ("churn 2x drop on a capped run", churn_doc(12, 0.002, capped=1),
         churn_doc(12, 0.001), 0),
        ("churn 2x drop on a capped baseline run", churn_doc(12, 0.002),
         churn_doc(12, 0.001, capped=1), 0),
    ]
    return out


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    script = sys.argv[1]
    failures = []
    all_cases = cases()
    with tempfile.TemporaryDirectory() as tmp:
        def dump(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        for name, current, base, want in all_cases:
            cmd = [sys.executable, script, dump("current.json", current)]
            if base is not None:
                cmd += ["--baseline", dump("baseline.json", base)]
            got = subprocess.run(cmd, capture_output=True).returncode
            if got != want:
                failures.append(f"{name}: exit {got}, want {want}")
    for f in failures:
        print(f"check_bench_test: FAIL: {f}", file=sys.stderr)
    print(f"check_bench_test: {len(all_cases) - len(failures)}/"
          f"{len(all_cases)} cases match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
