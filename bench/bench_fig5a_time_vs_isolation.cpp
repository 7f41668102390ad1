// Fig. 5(a) — synthesis time vs. the isolation constraint, at two
// usability constraints (3 and 5).
//
// Expected shape (paper §V-B): tightening the isolation threshold shrinks
// the solution space, so time rises — slowly at first, then sharply past a
// knee; the tighter usability curve (5) sits above the looser one (3)
// where both are still satisfiable.
//
// The grid runs on the sweep engine (fresh synthesizer per point — the
// paper measures cold solves, and the emitted times are the cold run's).
// A second, warm-started pass (synth/sweep.h) then re-solves the same
// grid by swapping threshold assumptions on per-worker synthesizers; the
// closing effort lines compare the two modes' encode time and solver
// conflicts — the deltas warm start exists to save. `--jobs N`
// parallelizes the points; note that concurrent workers contend for
// cores, so keep the default serial run when the per-point times
// themselves are the result.
#include "common/workloads.h"
#include "synth/sweep.h"

int main(int argc, char** argv) {
  using namespace cs;
  // `--trace-out <file>`: per-worker sweep-point spans (warm/cold
  // tagged), encoder-phase spans, and solver counter timelines.
  const bench::TraceGuard trace(argc, argv);
  const int hosts = bench::full_mode() ? 30 : 10;
  const int routers = std::clamp(8 + hosts / 5, 8, 20);
  const model::ProblemSpec spec =
      bench::make_eval_spec(hosts, routers, 0.10, 4242);
  const std::vector<util::Fixed> usabilities = {util::Fixed::from_int(3),
                                                util::Fixed::from_int(5)};
  const util::Fixed budget = util::Fixed::from_int(10 * hosts);
  const int iso_max = bench::full_mode() ? 7 : 6;

  std::vector<model::Sliders> grid;
  for (int iso = 0; iso <= iso_max; ++iso)
    for (const util::Fixed usab : usabilities)
      grid.push_back(
          model::Sliders{util::Fixed::from_int(iso), usab, budget});

  synth::SweepRequest request = synth::SweepRequest::feasibility_grid(grid);
  request.synthesis = bench::options();
  request.jobs = bench::jobs(argc, argv);
  const synth::SweepEngine engine(spec);
  const synth::SweepResult sweep = engine.run(request);
  request.warm_start = true;
  const synth::SweepResult warm = engine.run(request);

  std::vector<bench::Row> rows;
  for (std::size_t i = 0; i < sweep.points.size();
       i += usabilities.size()) {
    bench::Row row{sweep.points[i].point.isolation.to_string()};
    for (std::size_t u = 0; u < usabilities.size(); ++u)
      row.push_back(bench::fmt_time_cell(sweep.points[i + u]));
    rows.push_back(std::move(row));
  }
  bench::emit("fig5a_time_vs_isolation",
              "Fig 5(a): synthesis time vs isolation constraint",
              {"isolation", "time(s)@U3", "time(s)@U5"}, rows);
  std::printf("(peak solver %.1f MB)\n",
              static_cast<double>(sweep.peak_solver_memory_bytes) / 1e6);
  bench::print_sweep_effort("cold", sweep);
  bench::print_sweep_effort("warm", warm);
  return 0;
}
