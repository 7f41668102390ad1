// Table VI — memory requirement (MB) vs. problem size, in two isolation
// scenarios (constraint 3 and constraint 5).
//
// Expected shape (paper §V-B): memory grows ~quadratically with the host
// count (the model size is dominated by per-flow variables), and the
// tighter isolation scenario needs somewhat more memory than the looser
// one.
#include "common/workloads.h"
#include "util/memory.h"

int main() {
  using namespace cs;
  const std::vector<int> host_counts =
      bench::full_mode() ? std::vector<int>{10, 20, 30, 40, 50}
                         : std::vector<int>{6, 10, 14};
  const util::Fixed scenarios[] = {util::Fixed::from_int(3),
                                   util::Fixed::from_int(5)};

  std::vector<bench::Row> rows;
  for (const int hosts : host_counts) {
    const int routers = std::clamp(8 + hosts / 5, 8, 20);
    bench::Row row{std::to_string(hosts)};
    for (const util::Fixed iso : scenarios) {
      const model::ProblemSpec spec = bench::make_eval_spec(
          hosts, routers, 0.10, 6000 + static_cast<std::uint64_t>(hosts));
      const model::Sliders sliders{iso, util::Fixed::from_int(3),
                                   util::Fixed::from_int(10 * hosts)};
      const bench::TimedRun run = bench::run_synthesis(spec, sliders);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f",
                    static_cast<double>(run.solver_memory_bytes) / 1e6);
      row.push_back(buf);
    }
    rows.push_back(std::move(row));
  }
  bench::emit("table6_memory",
              "Table VI: solver memory (MB) vs problem size",
              {"hosts", "MB@iso3", "MB@iso5"}, rows);
  return 0;
}
