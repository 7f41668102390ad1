// Parallel sweep engine: grids of independent synthesis probes.
//
// Every decision-support workload in the paper — the Fig. 3 frontiers, the
// Fig. 4/5 scaling sweeps, Table III slider assistance — is a grid of
// feasibility or bound-search probes that share one ProblemSpec but nothing
// else. `SweepEngine` runs such a grid on a fixed-size worker pool
// (util/thread_pool.h) and returns the points in deterministic grid order
// regardless of completion order, so serial and parallel runs produce
// byte-identical output.
//
// Threading model — one backend per worker task. A `ProblemSpec` is
// read-only after `finalize()`, so all workers share it; Z3 contexts and
// MiniPB solver state are NOT thread-safe, so every grid point is solved on
// a Synthesizer (and therefore a backend) constructed inside the worker
// that owns the point. Fresh-per-point construction is also what makes the
// results independent of the partition: no point inherits another point's
// guard literals or learnt clauses, so `jobs = 1` and `jobs = N` solve
// identical instances.
//
// Warm start (`SweepRequest::warm_start`) — encode once per worker, not
// once per point. The slider thresholds are assumption-guarded selector
// constraints (Encoding::add_threshold), so one solver can
// re-solve every grid point by swapping assumptions: learnt clauses,
// variable activity and the PB encoding survive between points; only the
// selectors change. The grid is split into contiguous chunks, one warm
// Synthesizer per chunk, each chunk solved in request order — a static,
// deterministic partition, so a warm sweep at a fixed `jobs` value always
// re-solves the same instance sequence. Warm and cold sweeps return the
// same verdicts and bounds whenever every probe is decided (SAT/UNSAT are
// properties of the formula, and bound searches converge on monotone
// predicates regardless of probe order); only effort caps that actually
// expire can differ, because a warm solver's learnt state changes where a
// capped probe gives up.
//
// Deadlines are cooperative: `SweepRequest::deadline_ms` caps the whole
// sweep's wall clock by clamping each point's
// `SynthesisOptions::check_time_limit_ms` to the time remaining when the
// point starts. Points that start after the deadline (or after `cancel` is
// raised) are returned with `skipped = true` and kUnknown status — the
// grid shape is always preserved. A deadline that has already expired at
// submit time (`deadline_ms < 0`) skips every point immediately, and an
// empty grid returns at once; neither hangs or asserts.
//
// Caps and reproducibility. A wall-clock cap (`check_time_limit_ms`,
// `deadline_ms`) expires under scheduler load, so a capped probe can
// resolve serially yet expire when workers contend — use it for
// latency-bounded interactive sweeps. When serial/parallel byte-identity
// matters (regression baselines, the determinism tests), cap probes with
// `SynthesisOptions::check_conflict_limit` instead: its expiry is a pure
// function of the formula, so every probe returns the same verdict at any
// worker count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "synth/optimizer.h"
#include "synth/synthesizer.h"

namespace cs::synth {

/// What a grid point asks of the solver.
enum class SweepObjective {
  /// Maximize the isolation threshold s.t. usability ≥ `usability`,
  /// cost ≤ `budget` (paper Fig. 3).
  kMaxIsolation,
  /// Minimize the budget s.t. isolation ≥ `isolation`,
  /// usability ≥ `usability`.
  kMinCost,
  /// One feasibility check of the full slider triple (paper Fig. 4/5
  /// timing points).
  kFeasibility,
};

/// Stable lowercase name ("max-isolation", "min-cost", "feasibility") —
/// the spelling the CLI, server request files and CSVs use.
std::string_view sweep_objective_name(SweepObjective objective);

/// One grid point. Field meaning depends on `objective` (see above);
/// unused thresholds are ignored.
struct SweepPoint {
  SweepObjective objective = SweepObjective::kMaxIsolation;
  util::Fixed isolation;
  util::Fixed usability;
  util::Fixed budget;

  bool operator==(const SweepPoint&) const = default;
};

/// A grid of independent probes against one shared ProblemSpec.
struct SweepRequest {
  std::vector<SweepPoint> points;
  /// Backend and per-check cap; each worker task builds its own
  /// Synthesizer from these options (never shared across threads).
  SynthesisOptions synthesis;
  /// Search options for kMaxIsolation / kMinCost points.
  OptimizeOptions optimize;
  MinCostOptions min_cost;
  /// Worker count; 0 = one per hardware thread, 1 = run on the calling
  /// thread (no pool).
  int jobs = 1;
  /// Reuse one warm Synthesizer per worker across that worker's chunk of
  /// the grid (encode once, swap threshold assumptions — see the header
  /// comment). false = fresh synthesizer per point (the cold path).
  bool warm_start = false;
  /// Whole-sweep wall-clock cap in milliseconds (0 = none; negative =
  /// already expired, all points skipped), enforced cooperatively through
  /// SynthesisOptions::check_time_limit_ms.
  std::int64_t deadline_ms = 0;
  /// Optional cancellation token: set it (from any thread) to skip all
  /// points that have not started yet.
  const std::atomic<bool>* cancel = nullptr;

  /// Floor-major, budget-minor kMaxIsolation grid — the Fig. 3(a) shape.
  static SweepRequest max_isolation_grid(
      const std::vector<util::Fixed>& usability_floors,
      const std::vector<util::Fixed>& budgets);

  /// One kFeasibility point per slider triple, in the given order.
  static SweepRequest feasibility_grid(
      const std::vector<model::Sliders>& sliders);
};

/// Outcome of one grid point, in the request's order.
struct SweepPointResult {
  SweepPoint point;
  /// Bound-search outcome; for kFeasibility points only `feasible`,
  /// `metrics`, `design` and `probes` (= 1) are meaningful.
  BoundSearchResult search;
  /// Verdict of the last probe: kSat iff feasible, kUnknown when capped
  /// or skipped.
  smt::CheckResult status = smt::CheckResult::kUnknown;
  /// For kFeasibility points that came back kUnsat: the threshold
  /// assumptions in the solver's unsat core (the service layer caches
  /// these as the negative-result explanation).
  std::vector<ThresholdKind> conflicting;
  /// Wall time of this point (encoding + all probes) on its worker.
  double wall_seconds = 0;
  /// Encode time charged to this point: the full encode on the cold path,
  /// 0 for warm re-solves (the worker's first point carries the encode).
  double encode_seconds = 0;
  /// Peak backend footprint of this point's solver.
  std::size_t solver_memory_bytes = 0;
  /// Backend effort spent on this point (conflicts, propagations, ...):
  /// the delta of the solver's cumulative counters across the point.
  smt::SolverStats solver;
  /// True when this point was re-solved on a reused warm synthesizer
  /// (no re-encoding happened).
  bool warm = false;
  /// True when the deadline/cancellation fired before the point started;
  /// the point was not solved.
  bool skipped = false;
};

/// Whole-sweep outcome: per-point results in grid order plus effort
/// aggregates for the cold-vs-warm comparisons the benches print.
struct SweepResult {
  /// One entry per requested point, in request order (deterministic
  /// regardless of worker completion order).
  std::vector<SweepPointResult> points;
  /// Workers actually used.
  int jobs = 1;
  /// Whole-sweep wall clock.
  double wall_seconds = 0;
  /// Solver probes summed over all points.
  int total_probes = 0;
  /// Encode time summed over all points — the cost warm start amortizes:
  /// cold pays one encode per point, warm one per worker chunk.
  double total_encode_seconds = 0;
  /// Backend effort summed over all points (comparable cold vs warm even
  /// on 1-core machines where wall-clock speedups are noisy).
  smt::SolverStats total_solver;
  /// Points that were re-solved on a warm synthesizer (0 on cold sweeps).
  int warm_reuses = 0;
  /// Peak per-worker solver footprint: the maximum over points, not the
  /// sum — concurrent workers each hold one backend, so the sum would
  /// overstate a machine-wide peak that the max bounds per worker.
  std::size_t peak_solver_memory_bytes = 0;
  /// True when any point was skipped by the deadline or cancellation.
  bool deadline_expired = false;
};

/// Solves one grid point — the one point-solve path of the sweep engine
/// and the request service (src/service). When `slot` is empty it builds
/// a Synthesizer there from `request.synthesis` and charges this point
/// the encode and the build's wall time (`warm == false`); otherwise it
/// re-solves warm on the slot's synthesizer by swapping threshold
/// assumptions (`warm == true`, `encode_seconds == 0`). Either way the
/// per-check caps are applied once, the wall-clock cap clamped to
/// `remaining_ms` when > 0. A filled slot must have been built for the
/// same encoding shape, backend and caps as `request` — the service keys
/// its warm pool on exactly that.
SweepPointResult solve_sweep_point_on(std::unique_ptr<Synthesizer>& slot,
                                      const model::ProblemSpec& spec,
                                      const SweepRequest& request,
                                      const SweepPoint& point,
                                      std::int64_t remaining_ms = 0);

/// solve_sweep_point_on with an empty slot: one cold point on a fresh
/// Synthesizer owned by the calling thread.
SweepPointResult solve_sweep_point(const model::ProblemSpec& spec,
                                   const SweepRequest& request,
                                   const SweepPoint& point,
                                   std::int64_t remaining_ms = 0);

/// Runs sweep grids against one read-only ProblemSpec. The spec must
/// outlive the engine and must not be mutated while a sweep runs.
class SweepEngine {
 public:
  explicit SweepEngine(const model::ProblemSpec& spec) : spec_(spec) {}

  /// Executes the request. Safe to call repeatedly; each call owns its
  /// workers. Throws only on malformed requests or internal errors —
  /// solver timeouts are reported per point, never thrown.
  SweepResult run(const SweepRequest& request) const;

 private:
  const model::ProblemSpec& spec_;
};

}  // namespace cs::synth
