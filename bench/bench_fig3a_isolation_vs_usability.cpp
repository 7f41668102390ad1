// Fig. 3(a) — maximum possible isolation vs. the usability constraint,
// under two deployment-cost constraints ($10K and $20K on the example
// network).
//
// Expected shape (paper §V-A): isolation decreases as the usability floor
// rises; connectivity requirements cap isolation even at usability 0; the
// higher budget curve dominates the lower one and the gap narrows at high
// usability values.
//
// The grid runs on the sweep engine twice: once cold (fresh synthesizer
// per point) and once warm-started (encode once per worker, swap threshold
// assumptions — synth/sweep.h). The emitted table comes from the cold run;
// the warm run must reproduce every *decided* cell (a converged bound is a
// property of the formula, identical in both modes), and the closing
// effort lines show what warm start saves in encode time and solver
// conflicts. Cells whose search hit the effort cap are excluded from the
// comparison: a capped probe's verdict depends on learnt state, which warm
// reuse deliberately changes. `--jobs N` solves the points on N workers
// with output byte-identical to the serial run.
#include "common/workloads.h"
#include "synth/sweep.h"

int main(int argc, char** argv) {
  using namespace cs;
  // `--trace-out <file>`: per-worker sweep-point spans (warm/cold
  // tagged), encoder-phase spans, and solver counter timelines.
  const bench::TraceGuard trace(argc, argv);
  const model::ProblemSpec spec = bench::make_paper_example_spec();

  const std::vector<util::Fixed> budgets = {util::Fixed::from_int(10),
                                            util::Fixed::from_int(20)};
  const int step = bench::full_mode() ? 1 : 2;
  std::vector<util::Fixed> floors;
  for (int u = 0; u <= 10; u += step)
    floors.push_back(util::Fixed::from_int(u));

  synth::SweepRequest request =
      synth::SweepRequest::max_isolation_grid(floors, budgets);
  request.synthesis = bench::sweep_options();
  request.jobs = bench::jobs(argc, argv);
  const synth::SweepEngine engine(spec);
  const synth::SweepResult cold = engine.run(request);
  request.warm_start = true;
  const synth::SweepResult warm = engine.run(request);

  // Floor-major, budget-minor grid order: one row per floor.
  const auto render = [&](const synth::SweepResult& sweep) {
    std::vector<bench::Row> rows;
    for (std::size_t i = 0; i < sweep.points.size(); i += budgets.size()) {
      bench::Row row{sweep.points[i].point.usability.to_string()};
      for (std::size_t b = 0; b < budgets.size(); ++b)
        row.push_back(bench::fmt_isolation_cell(sweep.points[i + b]));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  const std::vector<bench::Row> rows = render(cold);
  bench::emit("fig3a_isolation_vs_usability",
              "Fig 3(a): max isolation vs usability constraint",
              {"usability", "isolation@$10K", "isolation@$20K"}, rows);
  bench::print_sweep_effort("cold", cold);
  bench::print_sweep_effort("warm", warm);

  // Warm/cold agreement, decided cells only (see the header comment).
  const std::vector<bench::Row> warm_rows = render(warm);
  int decided = 0, capped = 0, diverged = 0;
  for (std::size_t i = 0; i < cold.points.size(); ++i) {
    const std::size_t r = i / budgets.size(), c = 1 + i % budgets.size();
    if (!cold.points[i].search.exact || !warm.points[i].search.exact) {
      ++capped;
    } else if (warm_rows[r][c].text != rows[r][c].text) {
      ++diverged;
    } else {
      ++decided;
    }
  }
  std::printf(
      "warm run reproduces the cold table: %s "
      "(%d decided cell(s) agree, %d capped cell(s) not comparable)\n",
      diverged == 0 ? "yes" : "NO — decided bounds diverged", decided,
      capped);
  return diverged == 0 ? 0 : 1;
}
