// Fig. 5(b) — synthesis time vs. the deployment-cost constraint, at two
// usability constraints (3 and 5).
//
// Expected shape (paper §V-B): a small budget tightens the problem and
// costs time; as the budget grows the solver finds models faster, and past
// a point additional budget no longer changes the time.
//
// The grid runs on the sweep engine (fresh synthesizer per point).
// `--jobs N` parallelizes the points; keep the default serial run when the
// per-point times themselves are the result.
#include "common/workloads.h"
#include "synth/sweep.h"

int main(int argc, char** argv) {
  using namespace cs;
  const int hosts = bench::full_mode() ? 30 : 10;
  const int routers = std::clamp(8 + hosts / 5, 8, 20);
  const model::ProblemSpec spec =
      bench::make_eval_spec(hosts, routers, 0.10, 4243);
  const std::vector<util::Fixed> usabilities = {util::Fixed::from_int(3),
                                                util::Fixed::from_int(5)};
  const util::Fixed isolation = util::Fixed::from_int(3);
  const std::vector<int> budgets =
      bench::full_mode()
          ? std::vector<int>{25, 50, 75, 100, 150, 200, 250, 300}
          : std::vector<int>{25, 50, 100, 200};

  std::vector<model::Sliders> grid;
  for (const int budget : budgets)
    for (const util::Fixed usab : usabilities)
      grid.push_back(model::Sliders{isolation, usab,
                                    util::Fixed::from_int(budget)});

  synth::SweepRequest request = synth::SweepRequest::feasibility_grid(grid);
  request.synthesis = bench::options();
  request.jobs = bench::jobs(argc, argv);
  const synth::SweepResult sweep = synth::SweepEngine(spec).run(request);

  std::vector<bench::Row> rows;
  for (std::size_t i = 0; i < sweep.points.size();
       i += usabilities.size()) {
    bench::Row row{sweep.points[i].point.budget.to_string()};
    for (std::size_t u = 0; u < usabilities.size(); ++u) {
      const synth::SweepPointResult& p = sweep.points[i + u];
      row.push_back(bench::fmt_seconds(p.wall_seconds) +
                    (p.status == smt::CheckResult::kSat ? "" : " (unsat)"));
    }
    rows.push_back(std::move(row));
  }
  bench::emit("fig5b_time_vs_cost",
              "Fig 5(b): synthesis time vs deployment cost constraint",
              {"budget($K)", "time(s)@U3", "time(s)@U5"}, rows);
  std::printf("(%d worker(s), %.3fs wall, peak solver %.1f MB)\n",
              sweep.jobs, sweep.wall_seconds,
              static_cast<double>(sweep.peak_solver_memory_bytes) / 1e6);
  return 0;
}
