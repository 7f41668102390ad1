// Fig. 3(b) — maximum possible isolation vs. the deployment-cost
// constraint, under two usability constraints (5 and 7).
//
// Expected shape (paper §V-A): isolation grows with budget, the lower
// usability floor dominates, and beyond a certain budget the curves
// plateau — extra money cannot buy isolation that the usability constraint
// forbids.
//
// The grid runs on the sweep engine: `--jobs N` solves the points on N
// workers with output byte-identical to the serial run.
#include "common/workloads.h"
#include "synth/sweep.h"

int main(int argc, char** argv) {
  using namespace cs;
  const model::ProblemSpec spec = bench::make_paper_example_spec();

  const std::vector<util::Fixed> usabilities = {util::Fixed::from_int(5),
                                                util::Fixed::from_int(7)};
  const int step = bench::full_mode() ? 5 : 10;

  // Budget-major grid (one row per budget, one point per usability floor).
  synth::SweepRequest request;
  request.synthesis = bench::sweep_options();
  request.jobs = bench::jobs(argc, argv);
  for (int c = 0; c <= 60; c += step) {
    for (const util::Fixed usab : usabilities) {
      synth::SweepPoint p;
      p.objective = synth::SweepObjective::kMaxIsolation;
      p.usability = usab;
      p.budget = util::Fixed::from_int(c);
      request.points.push_back(p);
    }
  }
  const synth::SweepResult sweep = synth::SweepEngine(spec).run(request);

  std::vector<bench::Row> rows;
  for (std::size_t i = 0; i < sweep.points.size();
       i += usabilities.size()) {
    bench::Row row{sweep.points[i].point.budget.to_string()};
    for (std::size_t u = 0; u < usabilities.size(); ++u) {
      const synth::BoundSearchResult& best = sweep.points[i + u].search;
      row.push_back(best.feasible ? best.metrics.isolation.to_string() +
                                        (best.exact ? "" : " (>=)")
                    : best.exact ? "infeasible"
                                 : "timeout");
    }
    rows.push_back(std::move(row));
  }
  bench::emit("fig3b_isolation_vs_cost",
              "Fig 3(b): max isolation vs deployment cost constraint",
              {"budget($K)", "isolation@U5", "isolation@U7"}, rows);
  std::printf("(%d worker(s), %.3fs wall, %d probes)\n", sweep.jobs,
              sweep.wall_seconds, sweep.total_probes);
  return 0;
}
