// Ablation A3 — sensitivity to the flow-route enumeration bound k.
//
// The placement constraints quantify over enumerated routes per host pair
// (DESIGN.md §6.2). This bench sweeps the bound: more routes mean more
// coverage clauses (safer placements, potentially higher cost and slower
// synthesis); k=1 models only the primary path.
#include "common/workloads.h"
#include "synth/metrics.h"
#include "synth/synthesizer.h"
#include "util/timer.h"

int main() {
  using namespace cs;
  const int hosts = bench::full_mode() ? 16 : 10;
  const int routers = 12;
  std::vector<bench::Row> rows;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    model::ProblemSpec spec =
        bench::make_eval_spec(hosts, routers, 0.10, 9001);
    spec.route_options.max_routes = k;
    const model::Sliders sliders{util::Fixed::from_int(3),
                                 util::Fixed::from_int(3),
                                 util::Fixed::from_int(10 * hosts)};
    util::Stopwatch watch;
    synth::Synthesizer synthesizer(spec,
                                   bench::options());
    const synth::SynthesisResult r = synthesizer.synthesize(sliders);
    const double seconds = watch.elapsed_seconds();
    std::string cost = "-";
    if (r.status == smt::CheckResult::kSat)
      cost = synth::compute_metrics(spec, *r.design).cost.to_string();
    rows.push_back({std::to_string(k),
                    std::to_string(r.encoding.clauses),
                    bench::fmt_seconds(seconds), cost,
                    r.status == smt::CheckResult::kSat ? "sat" : "unsat"});
  }
  bench::emit("ablation_routes",
              "Ablation A3: route-enumeration bound k",
              {"k", "clauses", "time(s)", "design cost($K)", "status"},
              rows);
  return 0;
}
