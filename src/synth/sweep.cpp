#include "synth/sweep.h"

#include <algorithm>
#include <future>
#include <memory>

#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cs::synth {

namespace {

/// Objective dispatch: runs the point on `synth` and fills the verdict
/// fields of `out` (solve_sweep_point_on measures time and effort).
void run_point_objective(Synthesizer& synth, const model::ProblemSpec& spec,
                         const SweepRequest& request, const SweepPoint& point,
                         SweepPointResult& out) {
  switch (point.objective) {
    case SweepObjective::kMaxIsolation:
      out.search = maximize_isolation(synth, spec, point.usability,
                                      point.budget, request.optimize);
      out.status = out.search.feasible ? smt::CheckResult::kSat
                   : out.search.exact  ? smt::CheckResult::kUnsat
                                       : smt::CheckResult::kUnknown;
      break;
    case SweepObjective::kMinCost:
      out.search = minimize_cost(synth, spec, point.isolation,
                                 point.usability, request.min_cost);
      out.status = out.search.feasible ? smt::CheckResult::kSat
                   : out.search.exact  ? smt::CheckResult::kUnsat
                                       : smt::CheckResult::kUnknown;
      break;
    case SweepObjective::kFeasibility: {
      const model::Sliders sliders{point.isolation, point.usability,
                                   point.budget};
      SynthesisResult r =
          out.warm ? synth.resolve(sliders) : synth.synthesize(sliders);
      out.status = r.status;
      out.conflicting = std::move(r.conflicting);
      out.search.feasible = r.status == smt::CheckResult::kSat;
      out.search.exact = r.status != smt::CheckResult::kUnknown;
      out.search.probes = 1;
      out.search.solve_seconds = r.solve_seconds;
      if (r.design) {
        out.search.metrics = compute_metrics(spec, *r.design);
        out.search.design = std::move(r.design);
      }
      break;
    }
  }
}

}  // namespace

SweepPointResult solve_sweep_point_on(std::unique_ptr<Synthesizer>& slot,
                                      const model::ProblemSpec& spec,
                                      const SweepRequest& request,
                                      const SweepPoint& point,
                                      std::int64_t remaining_ms) {
  SweepPointResult out;
  out.point = point;
  out.warm = slot != nullptr;
  // A cold point's wall clock includes building the synthesizer (routes
  // and encode), matching the paper's cold-solve timing definition.
  util::Stopwatch watch;
  if (!out.warm) {
    slot = std::make_unique<Synthesizer>(spec, request.synthesis);
    out.encode_seconds = slot->encode_seconds();
  }
  Synthesizer& synth = *slot;
  synth.set_check_budget(remaining_ms);
  const smt::SolverStats before = synth.solver_statistics();
  run_point_objective(synth, spec, request, point, out);
  out.wall_seconds = watch.elapsed_seconds();
  out.solver = synth.solver_statistics() - before;
  out.solver_memory_bytes = synth.backend().memory_bytes();
  return out;
}

SweepPointResult solve_sweep_point(const model::ProblemSpec& spec,
                                   const SweepRequest& request,
                                   const SweepPoint& point,
                                   std::int64_t remaining_ms) {
  std::unique_ptr<Synthesizer> fresh;
  return solve_sweep_point_on(fresh, spec, request, point, remaining_ms);
}

std::string_view sweep_objective_name(SweepObjective objective) {
  switch (objective) {
    case SweepObjective::kMaxIsolation:
      return "max-isolation";
    case SweepObjective::kMinCost:
      return "min-cost";
    case SweepObjective::kFeasibility:
      return "feasibility";
  }
  return "?";
}

SweepRequest SweepRequest::max_isolation_grid(
    const std::vector<util::Fixed>& usability_floors,
    const std::vector<util::Fixed>& budgets) {
  SweepRequest request;
  request.points.reserve(usability_floors.size() * budgets.size());
  for (const util::Fixed floor : usability_floors) {
    for (const util::Fixed budget : budgets) {
      SweepPoint p;
      p.objective = SweepObjective::kMaxIsolation;
      p.usability = floor;
      p.budget = budget;
      request.points.push_back(p);
    }
  }
  return request;
}

SweepRequest SweepRequest::feasibility_grid(
    const std::vector<model::Sliders>& sliders) {
  SweepRequest request;
  request.points.reserve(sliders.size());
  for (const model::Sliders& s : sliders) {
    SweepPoint p;
    p.objective = SweepObjective::kFeasibility;
    p.isolation = s.isolation;
    p.usability = s.usability;
    p.budget = s.budget;
    request.points.push_back(p);
  }
  return request;
}

SweepResult SweepEngine::run(const SweepRequest& request) const {
  CS_REQUIRE(request.jobs >= 0, "sweep jobs must be >= 0");
  const int jobs =
      request.jobs == 0
          ? static_cast<int>(util::ThreadPool::hardware_jobs())
          : request.jobs;
  const bool warm = request.warm_start;

  SweepResult result;
  result.jobs = jobs;
  result.points.resize(request.points.size());
  if (request.points.empty()) return result;  // nothing to schedule

  obs::Span sweep_span("sweep", "sweep/run");
  sweep_span.arg("jobs", std::to_string(jobs));
  sweep_span.arg("points", std::to_string(request.points.size()));
  sweep_span.arg("warm", warm ? "1" : "0");

  util::Stopwatch sweep_watch;
  const util::Deadline deadline(request.deadline_ms);
  const auto cancelled = [&] {
    return request.cancel != nullptr &&
           request.cancel->load(std::memory_order_relaxed);
  };

  // Worker task: one synthesizer slot for a contiguous chunk, filled at
  // the chunk's first live point and reused (assumption swap only) for
  // the rest. A cold sweep is one-point chunks, so every point gets a
  // fresh synthesizer. The partition is static and results land in
  // index-addressed slots, so neither completion order nor the worker
  // count leaks into the output beyond the warm chunk boundaries.
  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    std::unique_ptr<Synthesizer> synth;
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t left = deadline.remaining_ms();
      if (left < 0 || cancelled()) {
        result.points[i].point = request.points[i];
        result.points[i].skipped = true;
        result.points[i].search.exact = false;
        continue;
      }
      obs::Span span("sweep", "sweep/point");
      span.arg("index", std::to_string(i));
      span.arg("warm", synth != nullptr ? "1" : "0");
      span.arg("objective",
               std::string(sweep_objective_name(request.points[i].objective)));
      result.points[i] = solve_sweep_point_on(synth, spec_, request,
                                              request.points[i], left);
    }
  };

  const std::size_t n = request.points.size();
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
  const std::size_t chunk = warm ? (n + workers - 1) / workers : 1;
  if (workers <= 1) {
    for (std::size_t begin = 0; begin < n; begin += chunk)
      run_chunk(begin, std::min(begin + chunk, n));
  } else {
    util::ThreadPool pool(workers);
    std::vector<std::future<void>> pending;
    for (std::size_t begin = 0; begin < n; begin += chunk)
      pending.push_back(pool.submit([&run_chunk, begin, chunk, n] {
        obs::set_thread_name("sweep-worker");
        run_chunk(begin, std::min(begin + chunk, n));
      }));
    for (std::future<void>& f : pending) f.get();  // rethrows task errors
  }

  result.wall_seconds = sweep_watch.elapsed_seconds();
  for (const SweepPointResult& p : result.points) {
    result.total_probes += p.search.probes;
    result.total_encode_seconds += p.encode_seconds;
    result.total_solver += p.solver;
    result.warm_reuses += p.warm ? 1 : 0;
    result.peak_solver_memory_bytes =
        std::max(result.peak_solver_memory_bytes, p.solver_memory_bytes);
    result.deadline_expired = result.deadline_expired || p.skipped;
  }
  return result;
}

}  // namespace cs::synth
