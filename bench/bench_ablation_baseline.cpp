// Ablation A1 — SMT top-down synthesis vs. the greedy bottom-up baseline.
//
// For a set of generated networks, compares the isolation achieved by the
// greedy baseline against the SMT optimizer's maximum, under identical
// usability and budget constraints. Expected: the baseline never wins, and
// on budget-tight instances it is clearly worse, which quantifies the
// paper's §II claim for top-down design automation.
#include "common/workloads.h"
#include "synth/baseline.h"
#include "synth/optimizer.h"

int main() {
  using namespace cs;
  const int nets = bench::full_mode() ? 8 : 4;
  std::vector<bench::Row> rows;
  for (int n = 0; n < nets; ++n) {
    const int hosts = 6 + 2 * n;
    const int routers = std::clamp(6 + hosts / 4, 6, 14);
    model::ProblemSpec spec = bench::make_eval_spec(
        hosts, routers, 0.10, 7000 + static_cast<std::uint64_t>(n));
    spec.sliders = model::Sliders{util::Fixed{}, util::Fixed::from_int(4),
                                  util::Fixed::from_int(8 * hosts)};

    const synth::BaselineResult greedy = synth::greedy_baseline(spec);

    synth::Synthesizer synthesizer(
        spec, bench::options());
    const synth::BoundSearchResult best = synth::maximize_isolation(
        synthesizer, spec, spec.sliders.usability, spec.sliders.budget);

    rows.push_back(
        {std::to_string(hosts), std::to_string(spec.flows.size()),
         greedy.metrics.isolation.to_string(),
         best.feasible ? best.metrics.isolation.to_string() +
                             (best.exact ? "" : " (>=)")
                       : "infeasible",
         bench::fmt_seconds(greedy.seconds),
         bench::fmt_seconds(best.solve_seconds)});
  }
  bench::emit("ablation_baseline",
              "Ablation A1: greedy bottom-up vs SMT top-down (isolation "
              "achieved under usability >= 4, budget $8K/host)",
              {"hosts", "flows", "greedy isolation", "smt isolation",
               "greedy time(s)", "smt time(s)"},
              rows);
  return 0;
}
