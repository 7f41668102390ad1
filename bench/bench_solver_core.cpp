// Solver-core throughput benchmark: conflicts/sec and propagations/sec of
// the MiniPB solver on the paper's workload families, cold and warm.
//
// Four workload groups:
//   * fig4a_h{8,10,12} — the hosts ladder swept end-to-end through the
//     sweep engine (cold fresh-per-point, warm assumption-swapping);
//     measures the whole solver including the clause arena.
//   * fig5a_grid — isolation 0..6 x usability {5,6} at 10 hosts; the
//     tight corner blows the 20000-conflict cap, so part of the grid is
//     pure bounded solver work.
//   * fig5a_pb_core — the PB skeleton of the Fig. 5(a) encoding family
//     at paper scale, driven directly on minisolver::Solver: ~300
//     defense variables, ~300 long >=-sums (per-flow isolation,
//     per-host usability, cost) whose term count is O(#flows) with the
//     ConfigSynth coefficient palette, plus ternary routing clauses.
//     Cold = one capped plain solve; warm = thousands of threshold-probe
//     assumption rounds on a persistent solver. This is the workload
//     where watched-sum PB propagation dominates.
//   * fig3a_grid — the paper example's Fig. 3(a) max-isolation grid,
//     cold, under a 100000-conflict cap.
//
// Unlike the figure benches this one takes no CS_BENCH_BACKEND — every
// run is MiniPB — and its table is also written as a machine-readable
// artifact, BENCH_solver.json (schema cs-bench-solver-v3, one run per
// (workload, backend, phase)), that scripts/check_bench.py validates and
// compares against the committed baseline in bench/baselines/.
//
// Throughput rates are only meaningful when the solver did real work, so
// every run uses a deterministic conflict cap (hard points become a fixed
// amount of work instead of an unbounded one). peak_rss_bytes is the
// process-wide high-water mark when the run finishes, so it is monotone
// across the runs of one invocation — compare like-positioned runs only.
#include <string>
#include <vector>

#include "common/workloads.h"
#include "minisolver/solver.h"
#include "synth/sweep.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace cs;
using minisolver::Lit;
using minisolver::PbTerm;
using minisolver::Solver;
using minisolver::Var;

/// One artifact run: counts are cumulative over the run's points and
/// rates are counts/wall.
bench::Row run_row(const std::string& workload, const char* phase,
                   int points, double wall_seconds, std::int64_t conflicts,
                   std::int64_t propagations, std::int64_t rephases,
                   std::int64_t minimized_literals) {
  const auto per_sec = [&](std::int64_t count) {
    return bench::number(
        wall_seconds > 0 ? static_cast<double>(count) / wall_seconds : 0.0,
        1);
  };
  return {workload, "minipb", phase, points,
          bench::number(wall_seconds, 6), conflicts, propagations,
          per_sec(conflicts), per_sec(propagations), rephases,
          minimized_literals, util::peak_rss_bytes()};
}

// ---- sweep-engine workloads (whole solver, end to end) ---------------------

struct Workload {
  std::string name;
  model::ProblemSpec spec;
  std::vector<model::Sliders> grid;
};

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  for (const int hosts : {8, 10, 12}) {
    const int routers = std::clamp(8 + hosts / 5, 8, 20);
    Workload w;
    w.name = "fig4a_h" + std::to_string(hosts);
    w.spec = bench::make_eval_spec(hosts, routers, 0.10,
                                   1000 + static_cast<std::uint64_t>(hosts));
    for (const int iso : {1, 3, 5})
      w.grid.push_back(model::Sliders{util::Fixed::from_int(iso),
                                      util::Fixed::from_int(3),
                                      util::Fixed::from_int(10 * hosts)});
    out.push_back(std::move(w));
  }
  Workload w;
  w.name = "fig5a_grid";
  w.spec = bench::make_eval_spec(10, 10, 0.10, 4242);
  for (int iso = 0; iso <= 6; ++iso)
    for (const int usab : {5, 6})
      w.grid.push_back(model::Sliders{util::Fixed::from_int(iso),
                                      util::Fixed::from_int(usab),
                                      util::Fixed::from_int(100)});
  out.push_back(std::move(w));
  return out;
}

bench::Row measure_sweep(const std::string& workload, const char* phase,
                         const synth::SweepEngine& engine,
                         synth::SweepRequest& request) {
  request.warm_start = std::string(phase) == "warm";
  util::Stopwatch watch;
  const synth::SweepResult result = engine.run(request);
  const double wall = watch.elapsed_seconds();
  const smt::SolverStats& stats = result.total_solver;
  return run_row(workload, phase, static_cast<int>(result.points.size()),
                 wall, stats.conflicts, stats.propagations, stats.rephases,
                 stats.minimized_literals);
}

// ---- PB-core workload (direct solver, PB propagation dominates) ------------

constexpr int kPbVars = 300;      // defense placement variables
constexpr int kPbSums = 300;      // per-flow / per-host / cost sums
constexpr int kPbSumLen = 150;    // O(#flows) terms per sum (30-host scale)
constexpr int kPbClauses = 300;   // ternary routing-structure clauses
constexpr int kPbWarmRounds = 10000;
constexpr std::int64_t kPbCap = 30000;

/// Loads the Fig. 5(a)-shaped PB skeleton: long descending-coefficient
/// sums over a shared variable pool (every variable lands in ~#sums/2
/// constraints, the high occurrence degree of the paper's usability and
/// cost sums) with a loose threshold-probe bound at 20% of each total.
void build_pb_core(Solver& s, util::Rng& rng) {
  for (int v = 0; v < kPbVars; ++v) (void)s.new_var();
  static const std::int64_t palette[] = {1000, 2500, 5000, 7500, 10000};
  for (int p = 0; p < kPbSums; ++p) {
    std::vector<PbTerm> terms;
    std::int64_t total = 0;
    for (int t = 0; t < kPbSumLen; ++t) {
      const Var v = static_cast<Var>(rng.uniform(0, kPbVars - 1));
      const std::int64_t coeff = palette[rng.uniform(0, 4)];
      total += coeff;
      terms.push_back(
          PbTerm{rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v), coeff});
    }
    (void)s.add_linear_ge(terms, total / 5);
  }
  for (int c = 0; c < kPbClauses; ++c) {
    std::vector<Lit> cl;
    for (int l = 0; l < 3; ++l) {
      const Var v = static_cast<Var>(rng.uniform(0, kPbVars - 1));
      cl.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));
    }
    (void)s.add_clause(cl);
  }
}

/// Cold: load the skeleton into a fresh solver and solve it once — the
/// wall includes constraint normalization and the watch setup. Warm: a
/// persistent solver re-solved under kPbWarmRounds random
/// threshold-assumption rounds (the synthesizer's probe pattern); the
/// wall excludes loading.
bench::Row measure_pb_core(const char* phase) {
  Solver s;
  util::Rng rng(4242);
  const bool cold = std::string(phase) == "cold";
  util::Stopwatch watch;  // cold wall includes the load below
  build_pb_core(s, rng);
  s.set_conflict_limit(kPbCap);
  if (cold) {
    (void)s.solve();
  } else {
    watch.reset();  // warm wall starts after the load
    for (int round = 0; round < kPbWarmRounds; ++round) {
      std::vector<Lit> assume;
      for (Var v = 0; v < kPbVars; ++v)
        if (rng.chance(0.1))
          assume.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));
      (void)s.solve(assume);
    }
  }
  const double wall = watch.elapsed_seconds();
  return run_row("fig5a_pb_core", phase, cold ? 1 : kPbWarmRounds, wall,
                 s.stats().conflicts, s.stats().propagations,
                 s.stats().rephases, s.stats().minimized_literals);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cs;
  const bench::TraceGuard trace(argc, argv);
  std::vector<bench::Row> runs;

  for (const Workload& w : make_workloads()) {
    synth::SweepRequest request =
        synth::SweepRequest::feasibility_grid(w.grid);
    request.synthesis.backend = smt::BackendKind::kMiniPb;
    request.synthesis.check_conflict_limit = 20000;
    request.jobs = bench::jobs(argc, argv);
    const synth::SweepEngine engine(w.spec);
    for (const char* phase : {"cold", "warm"})
      runs.push_back(measure_sweep(w.name, phase, engine, request));
  }
  for (const char* phase : {"cold", "warm"})
    runs.push_back(measure_pb_core(phase));

  const model::ProblemSpec fig3a = bench::make_paper_example_spec();
  std::vector<util::Fixed> floors;
  for (int u = 0; u <= 10; u += 2) floors.push_back(util::Fixed::from_int(u));
  synth::SweepRequest request = synth::SweepRequest::max_isolation_grid(
      floors, {util::Fixed::from_int(10), util::Fixed::from_int(20)});
  request.synthesis.backend = smt::BackendKind::kMiniPb;
  request.synthesis.check_conflict_limit = 100'000;
  request.jobs = bench::jobs(argc, argv);
  runs.push_back(measure_sweep("fig3a_grid", "cold",
                               synth::SweepEngine(fig3a), request));

  bench::emit("solver_core", "Solver core throughput (MiniPB)",
              {"workload", "backend", "phase", "points", "wall_seconds",
               "conflicts", "propagations", "conflicts_per_sec",
               "propagations_per_sec", "rephases", "minimized_literals",
               "peak_rss_bytes"},
              runs, "cs-bench-solver-v3", "BENCH_solver.json");
  return 0;
}
