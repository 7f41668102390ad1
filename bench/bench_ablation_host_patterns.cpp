// Ablation A4 — host-level isolation patterns (§VII extension).
//
// Sweeps the isolation floor and compares the minimum budget at which the
// network-only model and the extended model (host firewall $1K, antivirus
// $0.5K per host) become satisfiable. Expected: at low isolation floors
// host-level patterns cover the open flows for a fraction of a network
// device's price; at high floors they stop helping (their scores are
// capped well below access-deny).
#include "common/workloads.h"
#include "synth/optimizer.h"
#include "synth/synthesizer.h"

namespace {

/// Smallest budget ($K) making the isolation floor satisfiable; -1 if
/// none up to max_k does.
int min_feasible_budget(const cs::model::ProblemSpec& base,
                        cs::util::Fixed isolation, int max_k) {
  using namespace cs;
  synth::Synthesizer synth(base, bench::options());
  synth::MinCostOptions opts;
  opts.max_budget = util::Fixed::from_int(max_k);
  const synth::BoundSearchResult r = synth::minimize_cost(
      synth, base, isolation, util::Fixed{}, opts);
  if (!r.feasible) return -1;
  return static_cast<int>(r.bound.to_double() + 0.5);
}

}  // namespace

int main() {
  using namespace cs;
  const int hosts = bench::full_mode() ? 14 : 8;
  const int routers = 10;
  const int budget_cap = 40 * hosts;

  std::vector<bench::Row> rows;
  for (const double iso : {1.0, 1.5, 2.0, 3.0, 4.0}) {
    model::ProblemSpec plain =
        bench::make_eval_spec(hosts, routers, 0.10, 11000);
    model::ProblemSpec extended =
        bench::make_eval_spec(hosts, routers, 0.10, 11000);
    extended.host_patterns = model::HostPatternConfig::defaults();

    const util::Fixed floor = util::Fixed::from_double(iso);
    const int plain_budget = min_feasible_budget(plain, floor, budget_cap);
    const int ext_budget = min_feasible_budget(extended, floor, budget_cap);
    rows.push_back(
        {floor.to_string(),
         plain_budget < 0 ? "infeasible" : std::to_string(plain_budget),
         ext_budget < 0 ? "infeasible" : std::to_string(ext_budget)});
  }
  bench::emit("ablation_host_patterns",
              "Ablation A4: minimum budget ($K) to reach an isolation "
              "floor, network-only vs +host-level patterns",
              {"isolation floor", "network-only $K", "+host patterns $K"},
              rows);
  return 0;
}
