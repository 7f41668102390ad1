// Fig. 4(b) — model synthesis time vs. the number of routers (fixed host
// count), at two connectivity-requirement volumes.
//
// Expected shape (paper §V-B): the flow count is unchanged, but a larger
// core distributes the hosts across more candidate placement links, so the
// search grows — roughly quadratically in the router count.
#include "common/workloads.h"

int main() {
  using namespace cs;
  const int hosts = bench::full_mode() ? 20 : 14;
  const std::vector<int> router_counts =
      bench::full_mode() ? std::vector<int>{8, 10, 12, 14, 16, 20}
                         : std::vector<int>{8, 12, 16, 20};
  const double cr_volumes[] = {0.10, 0.20};

  std::vector<bench::Row> rows;
  for (const int routers : router_counts) {
    bench::Row row{std::to_string(routers)};
    {
      // Model size grows with the core even when a modern solver's time
      // does not: report the clause count alongside (see EXPERIMENTS.md).
      const model::ProblemSpec spec = bench::make_eval_spec(
          hosts, routers, 0.10, 2000 + static_cast<std::uint64_t>(routers));
      synth::Synthesizer probe(spec, bench::options());
      row.push_back(std::to_string(probe.encoding_stats().clauses));
    }
    for (const double cr : cr_volumes) {
      // Isolation 4 makes device placement load-bearing, so the larger
      // core's bigger placement search shows up in the timing; median of
      // three seeds tames per-network variance.
      const model::Sliders sliders{util::Fixed::from_int(4),
                                   util::Fixed::from_int(3),
                                   util::Fixed::from_int(10 * hosts)};
      bool decided = true;
      const double median = bench::median_synthesis_seconds(
          hosts, routers, cr, 2000 + static_cast<std::uint64_t>(routers), 3,
          sliders, &decided);
      row.push_back(bench::fmt_seconds(median) +
                    (decided ? "" : " (timeout)"));
    }
    rows.push_back(std::move(row));
  }
  bench::emit("fig4b_time_vs_routers",
              "Fig 4(b): synthesis time vs number of routers",
              {"routers", "clauses", "time(s)@10%CR", "time(s)@20%CR"},
              rows);
  return 0;
}
