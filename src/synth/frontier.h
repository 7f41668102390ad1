// Isolation/usability/cost trade-off frontier exploration.
//
// ConfigSynth is a decision-support system (paper §I): administrators want
// to see the achievable operating points before committing to slider
// values. `explore_frontier` sweeps a usability grid and, for each floor,
// maximizes isolation under each budget of interest — the computation
// behind the paper's Fig. 3 — returning the frontier as data the caller
// can render or serialize.
//
// Every point gets a fresh synthesizer on the sweep engine (synth/sweep.h):
// points are fully independent, so no point inherits another's guard
// literals and the grid can run on `jobs` parallel workers (one backend
// per worker) with byte-identical results to a serial run.
#pragma once

#include <vector>

#include "synth/optimizer.h"
#include "synth/synthesizer.h"

namespace cs::synth {

struct FrontierPoint {
  util::Fixed usability_floor;
  util::Fixed budget;
  /// False when the floor itself is infeasible under the budget.
  bool feasible = false;
  /// False when a capped probe left the maximum a lower bound.
  bool exact = true;
  /// Maximum isolation threshold proven reachable.
  util::Fixed max_isolation;
  /// Metrics of the witnessing design.
  DesignMetrics metrics;
  std::size_t devices = 0;

  bool operator==(const FrontierPoint&) const = default;
};

struct FrontierOptions {
  /// Usability floors to sweep (0..10 scale).
  std::vector<util::Fixed> usability_floors;
  /// Budgets of interest.
  std::vector<util::Fixed> budgets;
  OptimizeOptions optimize;
  /// Worker count; 0 = one per hardware thread, 1 = serial.
  int jobs = 1;

  /// Fig. 3(a)-style defaults: floors 0,2,...,10.
  static FrontierOptions fig3_defaults(util::Fixed low_budget,
                                       util::Fixed high_budget);
};

/// Sweeps the grid. Points are ordered floor-major, budget-minor,
/// independent of `jobs`.
std::vector<FrontierPoint> explore_frontier(
    const model::ProblemSpec& spec, const SynthesisOptions& synth_options,
    const FrontierOptions& options);

/// Renders the frontier as an aligned table (one row per floor, one
/// isolation column per budget).
std::string render_frontier(const std::vector<FrontierPoint>& points);

}  // namespace cs::synth
