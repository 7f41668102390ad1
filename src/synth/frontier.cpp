#include "synth/frontier.h"

#include <map>
#include <sstream>

#include "synth/sweep.h"
#include "util/error.h"
#include "util/table.h"

namespace cs::synth {

namespace {

FrontierPoint to_frontier_point(util::Fixed floor, util::Fixed budget,
                                const BoundSearchResult& best) {
  FrontierPoint p;
  p.usability_floor = floor;
  p.budget = budget;
  p.feasible = best.feasible;
  p.exact = best.exact;
  if (best.feasible) {
    p.max_isolation = best.metrics.isolation;
    p.metrics = best.metrics;
    p.devices = best.design->device_count();
  }
  return p;
}

}  // namespace

FrontierOptions FrontierOptions::fig3_defaults(util::Fixed low_budget,
                                               util::Fixed high_budget) {
  FrontierOptions opts;
  for (int u = 0; u <= 10; u += 2)
    opts.usability_floors.push_back(util::Fixed::from_int(u));
  opts.budgets = {low_budget, high_budget};
  return opts;
}

std::vector<FrontierPoint> explore_frontier(
    const model::ProblemSpec& spec, const SynthesisOptions& synth_options,
    const FrontierOptions& options) {
  CS_REQUIRE(!options.usability_floors.empty(),
             "frontier needs at least one usability floor");
  CS_REQUIRE(!options.budgets.empty(),
             "frontier needs at least one budget");

  SweepRequest request = SweepRequest::max_isolation_grid(
      options.usability_floors, options.budgets);
  request.synthesis = synth_options;
  request.optimize = options.optimize;
  request.jobs = options.jobs;

  const SweepResult sweep = SweepEngine(spec).run(request);
  std::vector<FrontierPoint> points;
  points.reserve(sweep.points.size());
  for (const SweepPointResult& p : sweep.points)
    points.push_back(
        to_frontier_point(p.point.usability, p.point.budget, p.search));
  return points;
}

std::string render_frontier(const std::vector<FrontierPoint>& points) {
  // Group by floor; one column per distinct budget (insertion order).
  std::vector<util::Fixed> budgets;
  for (const FrontierPoint& p : points) {
    bool known = false;
    for (const util::Fixed b : budgets) known = known || b == p.budget;
    if (!known) budgets.push_back(p.budget);
  }
  std::vector<std::string> header{"usability >="};
  for (const util::Fixed b : budgets)
    header.push_back("max isolation ($" + b.to_string() + "K)");
  util::TextTable table(header);

  std::map<std::int64_t, std::vector<std::string>> rows;  // by floor raw
  for (const FrontierPoint& p : points) {
    auto& row = rows[p.usability_floor.raw()];
    if (row.empty()) {
      row.push_back(p.usability_floor.to_string());
      row.resize(1 + budgets.size());
    }
    std::size_t col = 0;
    while (col < budgets.size() && !(budgets[col] == p.budget)) ++col;
    row[1 + col] = p.feasible
                       ? p.max_isolation.to_string() + (p.exact ? "" : "+")
                       : "infeasible";
  }
  for (auto& [floor, row] : rows) {
    (void)floor;
    for (std::string& cell : row)
      if (cell.empty()) cell += '-';
    table.add_row(row);
  }
  return table.render();
}

}  // namespace cs::synth
