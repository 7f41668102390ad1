// Tests for the parallel sweep engine and its thread pool:
//   * util::ThreadPool — submit-from-worker, exception propagation,
//     shutdown-while-busy drain semantics.
//   * synth::SweepEngine / explore_frontier — parallel runs must be
//     byte-identical to serial runs (fresh synthesizer per point), on the
//     paper example and generated topologies, for both backends.
//
// The MiniPB-named tests double as the ThreadSanitizer regression suite
// (scripts/run_all.sh builds with -DCONFIGSYNTH_SANITIZE=thread and runs
// the filter 'ThreadPool*:*minipb*:SweepEngineMiniPb*'): Z3 is an
// uninstrumented system library, so only the from-scratch backend gives
// TSan full visibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "spec_helpers.h"
#include "synth/frontier.h"
#include "synth/sweep.h"
#include "synth/unsat_analysis.h"
#include "util/thread_pool.h"

namespace cs::synth {
namespace {

using cs::testing::make_example_spec;
using cs::testing::make_random_spec;
using smt::BackendKind;
using util::ThreadPool;

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SubmitFromWorker) {
  // A task enqueues a follow-up task from inside a worker; the pool must
  // accept it without deadlocking, even with a single worker.
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    pool.submit([&pool, &count] {
        ++count;
        pool.submit([&count] { ++count; });
      }).get();
    // The follow-up may still be queued here; the destructor drains it.
  }
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> bad =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives the throwing task and keeps serving.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ShutdownWhileBusyDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i)
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++count;
      });
    // Destructor runs while most tasks are still queued: every submitted
    // task must still execute before the workers join.
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, HardwareJobsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
}

// ---- SweepEngine determinism ----------------------------------------------

/// Deterministic per-check effort cap. Boundary probes are genuinely
/// exponential (paper Fig. 5a), so uncapped sweeps are intractable; a
/// wall-clock cap would expire nondeterministically under scheduler load
/// and break serial-vs-parallel comparability. The conflict/resource cap
/// expires as a pure function of the formula, keeping capped sweeps
/// byte-identical across worker counts. Units differ per backend (Z3
/// resource units vs MiniPB conflicts).
std::int64_t effort_cap(BackendKind backend) {
  return backend == BackendKind::kZ3 ? 2'000'000 : 20'000;
}

/// Frontier of `spec` at the given worker count, fresh-per-point mode.
std::vector<FrontierPoint> frontier_at(const model::ProblemSpec& spec,
                                       BackendKind backend, int jobs) {
  SynthesisOptions options;
  options.backend = backend;
  options.check_conflict_limit = effort_cap(backend);
  FrontierOptions fopts;
  fopts.usability_floors = {util::Fixed::from_int(0),
                            util::Fixed::from_int(4),
                            util::Fixed::from_int(8)};
  fopts.budgets = {util::Fixed::from_int(20), util::Fixed::from_int(60)};
  // Coarse search grid: fewer (and easier) boundary probes per point.
  fopts.optimize.resolution = util::Fixed::from_raw(500);
  fopts.jobs = jobs;
  return explore_frontier(spec, options, fopts);
}

class BackendSweepTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendSweepTest, ParallelFrontierIdenticalToSerial) {
  const model::ProblemSpec paper = make_example_spec();
  const model::ProblemSpec random_a = make_random_spec(31, 6, 5);
  const model::ProblemSpec random_b = make_random_spec(32, 7, 6);
  for (const model::ProblemSpec* spec : {&paper, &random_a, &random_b}) {
    const auto serial = frontier_at(*spec, GetParam(), 1);
    const auto parallel = frontier_at(*spec, GetParam(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
  }
}

TEST_P(BackendSweepTest, SweepResultKeepsGridOrderAndCounts) {
  const model::ProblemSpec spec = make_example_spec();
  SweepRequest request = SweepRequest::max_isolation_grid(
      {util::Fixed::from_int(0), util::Fixed::from_int(6)},
      {util::Fixed::from_int(30)});
  request.synthesis.backend = GetParam();
  request.synthesis.check_conflict_limit = effort_cap(GetParam());
  request.jobs = 3;
  const SweepResult result = SweepEngine(spec).run(request);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.jobs, 3);
  // Grid order: floor-major regardless of which worker finished first.
  EXPECT_EQ(result.points[0].point.usability, util::Fixed::from_int(0));
  EXPECT_EQ(result.points[1].point.usability, util::Fixed::from_int(6));
  int probes = 0;
  std::size_t peak = 0;
  for (const SweepPointResult& p : result.points) {
    EXPECT_FALSE(p.skipped);
    EXPECT_GT(p.search.probes, 0);
    EXPECT_GT(p.wall_seconds, 0.0);
    probes += p.search.probes;
    peak = std::max(peak, p.solver_memory_bytes);
  }
  EXPECT_EQ(result.total_probes, probes);
  // Peak memory is the max over workers, never the sum.
  EXPECT_EQ(result.peak_solver_memory_bytes, peak);
  EXPECT_FALSE(result.deadline_expired);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSweepTest,
                         ::testing::Values(BackendKind::kZ3,
                                           BackendKind::kMiniPb),
                         [](const auto& info) {
                           return info.param == BackendKind::kZ3 ? "z3"
                                                                 : "minipb";
                         });

TEST(SweepEngine, MiniPbAndZ3AgreeOnExactBounds) {
  // The two backends must agree on feasibility *and* on the exact
  // max-isolation bound of every grid cell both decide. A cell is
  // compared only when both runs converged exactly: near-threshold
  // boundary probes are genuinely exponential (paper Fig. 5a), so grids
  // with a nonzero floor always carry cells a backend leaves undecided
  // at test-sized caps, and a capped bound depends on learnt state.
  // Every spec must contribute at least one compared cell, so the test
  // cannot silently skip everything.
  const model::ProblemSpec paper = make_example_spec();
  const model::ProblemSpec random_a = make_random_spec(31, 6, 5);
  const model::ProblemSpec random_b = make_random_spec(32, 7, 6);
  for (const model::ProblemSpec* spec : {&paper, &random_a, &random_b}) {
    SweepRequest request = SweepRequest::max_isolation_grid(
        {util::Fixed::from_int(0), util::Fixed::from_int(3)},
        {util::Fixed::from_int(60)});
    request.optimize.resolution = util::Fixed::from_raw(500);
    // Decidedness needs headroom over effort_cap(): 10x in MiniPB
    // conflicts, 15x in Z3 resource units.
    request.synthesis.backend = BackendKind::kMiniPb;
    request.synthesis.check_conflict_limit = 200'000;
    const SweepResult mini = SweepEngine(*spec).run(request);
    request.synthesis.backend = BackendKind::kZ3;
    request.synthesis.check_conflict_limit = 30'000'000;
    const SweepResult z3 = SweepEngine(*spec).run(request);
    ASSERT_EQ(mini.points.size(), z3.points.size());
    int compared = 0;
    for (std::size_t p = 0; p < mini.points.size(); ++p) {
      if (!mini.points[p].search.exact || !z3.points[p].search.exact)
        continue;
      ++compared;
      EXPECT_EQ(mini.points[p].search.feasible, z3.points[p].search.feasible)
          << "point " << p;
      EXPECT_EQ(mini.points[p].search.bound, z3.points[p].search.bound)
          << "point " << p;
    }
    EXPECT_GE(compared, 1) << "no cell decided by both backends";
  }
}

// ---- SweepEngine semantics (MiniPB-backed, TSan-covered) -------------------

TEST(SweepEngineMiniPb, FeasibilityGridMatchesDirectSolve) {
  const model::ProblemSpec spec = make_example_spec();
  const std::vector<model::Sliders> grid = {
      model::Sliders{util::Fixed::from_int(0), util::Fixed::from_int(0),
                     util::Fixed::from_int(0)},
      spec.sliders,
      model::Sliders{util::Fixed::from_int(10), util::Fixed::from_int(10),
                     util::Fixed::from_int(5)},
  };
  SweepRequest request = SweepRequest::feasibility_grid(grid);
  request.synthesis.backend = BackendKind::kMiniPb;
  request.jobs = 4;
  const SweepResult result = SweepEngine(spec).run(request);
  ASSERT_EQ(result.points.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    Synthesizer direct(spec, request.synthesis);
    EXPECT_EQ(result.points[i].status,
              direct.synthesize(grid[i]).status)
        << "point " << i;
  }
  // The overtight triple must be UNSAT, the loose one SAT.
  EXPECT_EQ(result.points[0].status, smt::CheckResult::kSat);
  EXPECT_EQ(result.points[2].status, smt::CheckResult::kUnsat);
}

TEST(SweepEngineMiniPb, CancellationSkipsRemainingPoints) {
  const model::ProblemSpec spec = make_example_spec();
  SweepRequest request = SweepRequest::max_isolation_grid(
      {util::Fixed::from_int(0), util::Fixed::from_int(5)},
      {util::Fixed::from_int(20), util::Fixed::from_int(40)});
  request.synthesis.backend = BackendKind::kMiniPb;
  request.jobs = 2;
  std::atomic<bool> cancel{true};  // raised before the sweep starts
  request.cancel = &cancel;
  const SweepResult result = SweepEngine(spec).run(request);
  ASSERT_EQ(result.points.size(), 4u);  // grid shape preserved
  EXPECT_TRUE(result.deadline_expired);
  for (const SweepPointResult& p : result.points) {
    EXPECT_TRUE(p.skipped);
    EXPECT_EQ(p.status, smt::CheckResult::kUnknown);
    EXPECT_FALSE(p.search.exact);
    EXPECT_FALSE(p.search.feasible);
  }
}

TEST(SweepEngineMiniPb, EmptyGridReturnsImmediately) {
  const model::ProblemSpec spec = make_example_spec();
  SweepRequest request;  // no points
  request.synthesis.backend = BackendKind::kMiniPb;
  request.jobs = 4;
  const SweepResult result = SweepEngine(spec).run(request);
  EXPECT_TRUE(result.points.empty());
  EXPECT_EQ(result.total_probes, 0);
  EXPECT_FALSE(result.deadline_expired);
  EXPECT_EQ(result.jobs, 4);
}

TEST(SweepEngineMiniPb, AlreadyExpiredDeadlineSkipsEveryPoint) {
  const model::ProblemSpec spec = make_example_spec();
  SweepRequest request = SweepRequest::max_isolation_grid(
      {util::Fixed::from_int(0), util::Fixed::from_int(5)},
      {util::Fixed::from_int(20), util::Fixed::from_int(40)});
  request.synthesis.backend = BackendKind::kMiniPb;
  request.jobs = 2;
  request.deadline_ms = -1;  // expired before the sweep begins
  const SweepResult result = SweepEngine(spec).run(request);
  ASSERT_EQ(result.points.size(), 4u);  // grid shape preserved
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_EQ(result.total_probes, 0);
  for (const SweepPointResult& p : result.points) {
    EXPECT_TRUE(p.skipped);
    EXPECT_EQ(p.status, smt::CheckResult::kUnknown);
    EXPECT_FALSE(p.search.exact);
  }
  // Grid order survives the mass skip: floor-major.
  EXPECT_EQ(result.points[0].point.usability, util::Fixed::from_int(0));
  EXPECT_EQ(result.points[3].point.usability, util::Fixed::from_int(5));
}

TEST(SweepEngineMiniPb, WorkerExceptionPropagatesToCaller) {
  const model::ProblemSpec spec = make_example_spec();
  SweepRequest request = SweepRequest::max_isolation_grid(
      {util::Fixed::from_int(0)},
      {util::Fixed::from_int(20), util::Fixed::from_int(40)});
  request.synthesis.backend = BackendKind::kMiniPb;
  request.optimize.resolution = util::Fixed{};  // invalid: must throw
  request.jobs = 2;
  EXPECT_THROW(SweepEngine(spec).run(request), util::Error);
}

// ---- Warm-started sweeps ---------------------------------------------------

TEST_P(BackendSweepTest, WarmMaxIsolationGridByteIdenticalToCold) {
  // The Fig. 3(a) shape: warm and cold sweeps must render identical
  // cells (feasibility, exactness and the converged bound — exactly what
  // bench_fig3a writes to its CSV) at any worker count. Byte-identity is
  // only guaranteed for *decided* probes (a capped probe's verdict
  // depends on the learnt state warm reuse deliberately changes), so the
  // grid runs on a small generated spec where every boundary probe
  // decides well within the effort cap; the ASSERTs on exactness below
  // keep that precondition honest.
  const model::ProblemSpec spec = make_random_spec(7, 4, 3);
  SweepRequest request = SweepRequest::max_isolation_grid(
      {util::Fixed::from_int(0), util::Fixed::from_int(4),
       util::Fixed::from_int(8)},
      {util::Fixed::from_int(20), util::Fixed::from_int(60)});
  request.synthesis.backend = GetParam();
  // 10x the usual cap: this test *requires* decided probes, and the spec
  // is small enough that the headroom costs nothing when probes decide.
  request.synthesis.check_conflict_limit = 10 * effort_cap(GetParam());
  request.optimize.resolution = util::Fixed::from_raw(500);
  const SweepEngine engine(spec);
  const SweepResult cold = engine.run(request);
  request.warm_start = true;
  for (const int jobs : {1, 2}) {
    request.jobs = jobs;
    const SweepResult warm = engine.run(request);
    ASSERT_EQ(warm.points.size(), cold.points.size());
    // Every worker's chunk has > 1 point here, so reuse must happen.
    EXPECT_GT(warm.warm_reuses, 0) << "jobs " << jobs;
    EXPECT_EQ(warm.warm_reuses,
              static_cast<int>(warm.points.size()) - jobs);
    for (std::size_t i = 0; i < cold.points.size(); ++i) {
      ASSERT_TRUE(cold.points[i].search.exact) << "cap expired at " << i;
      ASSERT_TRUE(warm.points[i].search.exact) << "cap expired at " << i;
      EXPECT_EQ(warm.points[i].search.feasible,
                cold.points[i].search.feasible)
          << "point " << i;
      EXPECT_EQ(warm.points[i].search.bound, cold.points[i].search.bound)
          << "point " << i;
      if (warm.points[i].warm) {
        EXPECT_EQ(warm.points[i].encode_seconds, 0.0) << "point " << i;
      }
    }
  }
}

TEST_P(BackendSweepTest, WarmFeasibilityGridMatchesColdVerdicts) {
  // The Fig. 5(a) shape: the emitted verdict markers ("(unsat)") must be
  // identical warm and cold; only the wall times may differ.
  const model::ProblemSpec spec = make_example_spec();
  std::vector<model::Sliders> grid;
  for (int iso = 0; iso <= 5; ++iso)
    grid.push_back(model::Sliders{util::Fixed::from_int(iso),
                                  util::Fixed::from_int(3),
                                  util::Fixed::from_int(60)});
  // One overtight triple so the grid crosses into UNSAT territory.
  grid.push_back(model::Sliders{util::Fixed::from_int(10),
                                util::Fixed::from_int(10),
                                util::Fixed::from_int(5)});
  SweepRequest request = SweepRequest::feasibility_grid(grid);
  request.synthesis.backend = GetParam();
  // 10x the usual cap: verdict identity needs every probe decided.
  request.synthesis.check_conflict_limit = 10 * effort_cap(GetParam());
  const SweepEngine engine(spec);
  const SweepResult cold = engine.run(request);
  request.warm_start = true;
  request.jobs = 2;
  const SweepResult warm = engine.run(request);
  ASSERT_EQ(warm.points.size(), cold.points.size());
  EXPECT_GT(warm.warm_reuses, 0);
  for (std::size_t i = 0; i < cold.points.size(); ++i) {
    ASSERT_NE(cold.points[i].status, smt::CheckResult::kUnknown)
        << "cap expired at " << i;
    EXPECT_EQ(warm.points[i].status, cold.points[i].status)
        << "point " << i;
  }
  // The warm sweep encodes once per worker chunk, the cold one per point.
  EXPECT_LT(warm.total_encode_seconds, cold.total_encode_seconds);
}

TEST_P(BackendSweepTest, UnsatPointCoreMatchesRelaxationAnalysis) {
  // Regression: the failed-assumption core a sweep point reports must
  // name the same thresholds as Algorithm 1's relaxation analysis — both
  // read the same backend core off the same formula.
  model::ProblemSpec spec = make_example_spec();
  spec.sliders = model::Sliders{util::Fixed::from_int(10),
                                util::Fixed::from_int(10),
                                util::Fixed::from_int(5)};
  SweepRequest request = SweepRequest::feasibility_grid({spec.sliders});
  request.synthesis.backend = GetParam();
  const SweepResult swept = SweepEngine(spec).run(request);
  ASSERT_EQ(swept.points.size(), 1u);
  ASSERT_EQ(swept.points[0].status, smt::CheckResult::kUnsat);
  ASSERT_FALSE(swept.points[0].conflicting.empty());

  Synthesizer synth(spec, request.synthesis);
  const UnsatReport report = analyze_unsat(synth, spec);
  ASSERT_TRUE(report.was_unsat);
  auto sweep_core = swept.points[0].conflicting;
  auto analysis_core = report.core;
  std::sort(sweep_core.begin(), sweep_core.end());
  std::sort(analysis_core.begin(), analysis_core.end());
  EXPECT_EQ(sweep_core, analysis_core);
}

TEST_P(BackendSweepTest, WarmResolveReportsUnsatCore) {
  // A warm re-solve that lands on an UNSAT triple must still produce a
  // threshold core from its failed assumptions — explanations don't
  // degrade when the encode is skipped.
  const model::ProblemSpec spec = make_example_spec();
  SynthesisOptions options;
  options.backend = GetParam();
  Synthesizer synth(spec, options);
  ASSERT_EQ(synth.synthesize(spec.sliders).status, smt::CheckResult::kSat);
  const SynthesisResult unsat =
      synth.resolve(model::Sliders{util::Fixed::from_int(10),
                                   util::Fixed::from_int(10),
                                   util::Fixed::from_int(5)});
  EXPECT_EQ(unsat.status, smt::CheckResult::kUnsat);
  EXPECT_FALSE(unsat.conflicting.empty());
  EXPECT_EQ(unsat.encode_seconds, 0.0);
  EXPECT_EQ(synth.resolves(), 1);
}

TEST(SweepEngineMiniPb, SolveIntoSlotBuildsOnceThenResolvesWarm) {
  // The one point-solve path: an empty slot is filled and charged the
  // encode; a filled slot re-solves warm and must agree with a cold
  // solve of the same point.
  const model::ProblemSpec spec = make_random_spec(7, 4, 3);
  SweepRequest request;
  request.synthesis.backend = BackendKind::kMiniPb;
  request.synthesis.check_conflict_limit =
      10 * effort_cap(BackendKind::kMiniPb);
  request.optimize.resolution = util::Fixed::from_raw(500);
  SweepPoint first;
  first.usability = util::Fixed::from_int(0);
  first.budget = util::Fixed::from_int(60);
  SweepPoint second = first;
  second.usability = util::Fixed::from_int(4);
  second.budget = util::Fixed::from_int(20);

  std::unique_ptr<Synthesizer> slot;
  const SweepPointResult cold_first =
      solve_sweep_point_on(slot, spec, request, first);
  ASSERT_NE(slot, nullptr);
  EXPECT_FALSE(cold_first.warm);
  EXPECT_GT(cold_first.encode_seconds, 0.0);
  const Synthesizer* built = slot.get();

  const SweepPointResult warm =
      solve_sweep_point_on(slot, spec, request, second);
  EXPECT_EQ(slot.get(), built);  // re-solved in place, not rebuilt
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.encode_seconds, 0.0);
  const SweepPointResult cold = solve_sweep_point(spec, request, second);
  ASSERT_TRUE(cold.search.exact);
  ASSERT_TRUE(warm.search.exact);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.search.bound, cold.search.bound);
}

TEST(SweepEngineMiniPb, WarmSweepAccumulatesSolverStats) {
  const model::ProblemSpec spec = make_example_spec();
  std::vector<model::Sliders> grid;
  for (int iso = 0; iso <= 3; ++iso)
    grid.push_back(model::Sliders{util::Fixed::from_int(iso),
                                  util::Fixed::from_int(3),
                                  util::Fixed::from_int(60)});
  SweepRequest request = SweepRequest::feasibility_grid(grid);
  request.synthesis.backend = BackendKind::kMiniPb;
  request.warm_start = true;
  const SweepResult result = SweepEngine(spec).run(request);
  // Per-point deltas sum to the total, and solving did real work.
  smt::SolverStats sum;
  for (const SweepPointResult& p : result.points) sum += p.solver;
  EXPECT_EQ(sum, result.total_solver);
  EXPECT_GT(result.total_solver.propagations, 0);
  EXPECT_EQ(result.warm_reuses, static_cast<int>(grid.size()) - 1);
}

TEST(SweepEngineMiniPb, WarmSweepSurvivesConflictCappedPoint) {
  // Regression: a warm worker whose solver exhausts its conflict budget
  // mid-flight (possibly mid reduce-epoch, with learnt clauses already
  // marked for deletion) must stay usable — the *same* synthesizer then
  // re-solves the remaining grid points and still decides them correctly.
  // Sliders (6,5,40) are calibrated to blow a 3000-conflict cap on the
  // example spec; (3,3,60) decides SAT in ~100 conflicts and (10,10,5)
  // is instantly UNSAT, so the cap only bites the hard point.
  const model::ProblemSpec spec = make_example_spec();
  const std::vector<model::Sliders> grid = {
      model::Sliders{util::Fixed::from_int(6), util::Fixed::from_int(5),
                     util::Fixed::from_int(40)},
      model::Sliders{util::Fixed::from_int(3), util::Fixed::from_int(3),
                     util::Fixed::from_int(60)},
      model::Sliders{util::Fixed::from_int(10), util::Fixed::from_int(10),
                     util::Fixed::from_int(5)},
  };
  SweepRequest request = SweepRequest::feasibility_grid(grid);
  request.synthesis.backend = BackendKind::kMiniPb;
  request.synthesis.check_conflict_limit = 3000;
  request.warm_start = true;
  request.jobs = 1;  // single worker chunk: the capped solver is reused
  const SweepResult warm = SweepEngine(spec).run(request);
  ASSERT_EQ(warm.points.size(), 3u);
  // Calibration self-check: the hard point really hit the cap (it is not
  // skipped — the budget expired inside the solver, not in the engine).
  ASSERT_EQ(warm.points[0].status, smt::CheckResult::kUnknown);
  EXPECT_FALSE(warm.points[0].skipped);
  EXPECT_GE(warm.points[0].solver.conflicts, 3000);
  // The capped synthesizer kept serving: both remaining points are warm
  // re-solves and carry the verdicts a fresh solver produces.
  EXPECT_EQ(warm.warm_reuses, 2);
  EXPECT_TRUE(warm.points[1].warm);
  EXPECT_TRUE(warm.points[2].warm);
  EXPECT_EQ(warm.points[1].status, smt::CheckResult::kSat);
  EXPECT_EQ(warm.points[2].status, smt::CheckResult::kUnsat);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    Synthesizer direct(spec, request.synthesis);
    EXPECT_EQ(warm.points[i].status, direct.synthesize(grid[i]).status)
        << "point " << i;
  }
}

}  // namespace
}  // namespace cs::synth
