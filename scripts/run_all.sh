#!/usr/bin/env bash
# Builds everything, runs the full test suite and regenerates every paper
# table/figure. Artifacts: test_output.txt, bench_output.txt, *.csv.
set -u
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Request-file smoke run of the synthesis server (cache + admission
# control end to end; deterministic effort cap keeps it quick). The
# trace/metrics dumps double as an observability smoke: check_trace.py
# validates JSON shape and per-track span nesting.
./build/examples/configsynth_server examples/data/server_requests.txt \
  --backend minipb --jobs 2 --time-limit 20000 --conflict-limit 20000 \
  --trace-out server_trace.json --metrics-prom server_metrics.prom \
  2>&1 | tee server_output.txt
python3 scripts/check_trace.py server_trace.json \
  service/queue_wait service/solve synth/

# CLI trace smoke: one synthesis run with the span tracer on, validated
# the same way (encoder phases + solver counter timeline present).
./build/examples/configsynth_cli synth examples/data/paper_example.cfg \
  --backend minipb --trace-out cli_trace.json > /dev/null
python3 scripts/check_trace.py cli_trace.json \
  encode/ synth/check minipb/conflicts

# Parallel-safety audit: the concurrency-heavy tests under ThreadSanitizer
# on the MiniPB backend — the same targets and filters as CI's tsan job.
# Z3 is an uninstrumented system library, so only the from-scratch backend
# gives TSan full visibility; the filters select the pool tests plus every
# MiniPB-backed sweep and service test. Skip with CS_SKIP_TSAN=1.
if [ "${CS_SKIP_TSAN:-0}" != "1" ]; then
  cmake -B build-tsan -G Ninja -DCONFIGSYNTH_SANITIZE=thread
  cmake --build build-tsan \
    --target sweep_test service_test obs_test net_test shard_test \
    delta_test minisolver_test fuzz_minipb
  ./build-tsan/tests/sweep_test \
    --gtest_filter='ThreadPool*:SweepEngineMiniPb*:*minipb*' \
    2>&1 | tee tsan_output.txt
  ./build-tsan/tests/service_test \
    --gtest_filter='SynthServiceMiniPb*:ResultCache*:Metrics*:*minipb*' \
    2>&1 | tee -a tsan_output.txt
  ./build-tsan/tests/net_test 2>&1 | tee -a tsan_output.txt
  ./build-tsan/tests/shard_test 2>&1 | tee -a tsan_output.txt
  ./build-tsan/tests/delta_test \
    --gtest_filter='DeltaSynthesisParallel*:DeltaGrammar*' \
    2>&1 | tee -a tsan_output.txt
  ./build-tsan/tests/obs_test 2>&1 | tee -a tsan_output.txt
  # Solver-core coverage: the arena/watched-sum/reduce paths themselves,
  # plus a short differential fuzz burst, instrumented.
  ./build-tsan/tests/minisolver_test 2>&1 | tee -a tsan_output.txt
  ./build-tsan/tests/fuzz_minipb 500 2>&1 | tee -a tsan_output.txt
fi

for b in build/bench/bench_*; do
  echo "### $b"
  "$b"
done 2>&1 | tee bench_output.txt

# Solver-core bench artifact sanity: a schema failure (exit 2) means the
# emitter broke and should block; a throughput regression vs the committed
# baseline (exit 1) is machine-speed dependent, so warn only.
python3 scripts/check_bench.py BENCH_solver.json \
  --baseline bench/baselines/BENCH_solver.json
case $? in
  0) ;;
  1) echo "WARNING: solver bench throughput regressed vs baseline" ;;
  *) echo "BENCH_solver.json schema check failed"; exit 2 ;;
esac

# Churn bench artifact: schema AND the incremental-verdict certification
# are hard gates (exit 2 — any mismatch means apply_delta broke, not the
# machine); a speedup regression vs the baseline (exit 1) warns only.
python3 scripts/check_bench.py BENCH_churn.json \
  --baseline bench/baselines/BENCH_churn.json
case $? in
  0) ;;
  1) echo "WARNING: churn bench speedup regressed vs baseline" ;;
  *) echo "BENCH_churn.json check failed"; exit 2 ;;
esac

echo "Artifacts written. What each bench/CSV means: docs/BENCHMARKS.md"
