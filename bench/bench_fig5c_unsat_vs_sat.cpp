// Fig. 5(c) — synthesis time of unsatisfiable vs. satisfiable instances as
// the network grows.
//
// Expected shape (paper §V-B): the UNSAT curve sits above the SAT curve —
// proving that no design exists requires exhausting all options, while a
// SAT run can stop at the first model. The paper's unsatisfiable cases are
// "very tight constraints": we reproduce that by first finding the maximum
// feasible isolation, then timing a probe just below it (SAT) against a
// probe just above it (barely UNSAT). Far-infeasible sliders would be
// refuted by bound propagation instantly and invert the figure.
#include "common/workloads.h"
#include "synth/optimizer.h"

int main() {
  using namespace cs;
  const std::vector<int> host_counts =
      bench::full_mode() ? std::vector<int>{10, 20, 30, 40}
                         : std::vector<int>{6, 10, 14};

  std::vector<bench::Row> rows;
  for (const int hosts : host_counts) {
    const int routers = std::clamp(8 + hosts / 5, 8, 20);
    const model::ProblemSpec spec = bench::make_eval_spec(
        hosts, routers, 0.10, 5000 + static_cast<std::uint64_t>(hosts));
    const util::Fixed usability = util::Fixed::from_int(3);
    const util::Fixed budget = util::Fixed::from_int(10 * hosts);

    // Locate the feasibility boundary (not timed).
    synth::Synthesizer scout(spec, bench::options());
    const synth::BoundSearchResult max =
        synth::maximize_isolation(scout, spec, usability, budget);
    if (!max.feasible) continue;
    const util::Fixed sat_iso = max.bound - util::Fixed::from_double(0.5);

    const bench::TimedRun sat = bench::run_synthesis(
        spec, model::Sliders{sat_iso, usability, budget});
    // When the boundary scout was capped, the bound is only a lower
    // bound — step upward until the probe stops being satisfiable.
    util::Fixed unsat_iso =
        max.metrics.isolation + util::Fixed::from_double(0.25);
    bench::TimedRun unsat;
    for (int attempt = 0; attempt < 4; ++attempt) {
      unsat = bench::run_synthesis(
          spec, model::Sliders{unsat_iso, usability, budget});
      if (unsat.status != smt::CheckResult::kSat) break;
      unsat_iso = unsat_iso + util::Fixed::from_double(0.5);
    }
    const bool ok = sat.status == smt::CheckResult::kSat &&
                    unsat.status != smt::CheckResult::kSat;
    rows.push_back({std::to_string(hosts), bench::fmt_seconds(sat.seconds),
                    bench::fmt_seconds(unsat.seconds) +
                        (unsat.status == smt::CheckResult::kUnknown
                             ? " (timeout)"
                             : ""),
                    ok ? (max.exact ? "ok" : "ok (boundary approx)")
                       : "unexpected-verdict"});
  }
  bench::emit("fig5c_unsat_vs_sat",
              "Fig 5(c): satisfiable vs barely-unsatisfiable synthesis time",
              {"hosts", "sat time(s)", "unsat time(s)", "verdicts"}, rows);
  return 0;
}
