// Ablation A2 — Z3 backend vs. the from-scratch MiniPB backend.
//
// Runs identical synthesis problems through both backends and compares
// verdicts (must agree) and wall-clock time. Shows that the paper's model
// is solvable without an SMT solver at all: its constraint system is pure
// pseudo-Boolean.
#include "common/workloads.h"
#include "synth/synthesizer.h"
#include "util/timer.h"

int main() {
  using namespace cs;
  const std::vector<int> host_counts =
      bench::full_mode() ? std::vector<int>{8, 12, 16, 20, 24}
                         : std::vector<int>{6, 10, 14};

  std::vector<bench::Row> rows;
  for (const int hosts : host_counts) {
    const int routers = std::clamp(8 + hosts / 5, 8, 20);
    const model::ProblemSpec spec = bench::make_eval_spec(
        hosts, routers, 0.10, 8000 + static_cast<std::uint64_t>(hosts));
    const model::Sliders sliders{util::Fixed::from_int(3),
                                 util::Fixed::from_int(3),
                                 util::Fixed::from_int(10 * hosts)};

    std::string verdicts;
    bench::Row row{std::to_string(hosts), std::to_string(spec.flows.size())};
    for (const smt::BackendKind kind :
         {smt::BackendKind::kZ3, smt::BackendKind::kMiniPb}) {
      util::Stopwatch watch;
      synth::SynthesisOptions opts = bench::options();
      opts.backend = kind;
      synth::Synthesizer synthesizer(spec, opts);
      const synth::SynthesisResult r = synthesizer.synthesize(sliders);
      row.push_back(bench::fmt_seconds(watch.elapsed_seconds()));
      verdicts += r.status == smt::CheckResult::kSat ? "S" : "U";
    }
    row.push_back(verdicts == "SS" || verdicts == "UU" ? "agree"
                                                       : "DISAGREE");
    rows.push_back(std::move(row));
  }
  bench::emit("ablation_backend",
              "Ablation A2: Z3 vs MiniPB backend synthesis time",
              {"hosts", "flows", "z3 time(s)", "minipb time(s)", "verdicts"},
              rows);
  return 0;
}
