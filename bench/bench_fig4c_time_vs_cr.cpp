// Fig. 4(c) — model synthesis time vs. the volume of connectivity
// requirements, for two network sizes (20 and 30 hosts).
//
// Expected shape (paper §V-B): the flow count is constant per curve, but
// more CRs mean more hard constraints and fewer satisfying options, so the
// synthesis time rises with the CR volume; the larger network sits above
// the smaller one.
#include "common/workloads.h"

int main() {
  using namespace cs;
  const std::vector<int> host_counts =
      bench::full_mode() ? std::vector<int>{20, 30}
                         : std::vector<int>{12, 16};
  const std::vector<int> cr_percents = bench::full_mode()
                                           ? std::vector<int>{5, 10, 15, 20,
                                                              25, 30}
                                           : std::vector<int>{5, 15, 25};

  std::vector<bench::Row> rows;
  for (const int cr : cr_percents) {
    bench::Row row{std::to_string(cr) + "%"};
    for (const int hosts : host_counts) {
      const int routers = std::clamp(8 + hosts / 5, 8, 20);
      // Isolation 5 pushes towards deny-heavy designs, which the CRs veto
      // flow by flow — more CRs, more constrained search; median of three
      // seeds tames per-network variance.
      const model::Sliders sliders{util::Fixed::from_int(5),
                                   util::Fixed::from_int(3),
                                   util::Fixed::from_int(10 * hosts)};
      bool decided = true;
      const double median = bench::median_synthesis_seconds(
          hosts, routers, cr / 100.0,
          3000 + static_cast<std::uint64_t>(cr) * 7 +
              static_cast<std::uint64_t>(hosts),
          3, sliders, &decided);
      row.push_back(bench::fmt_seconds(median) +
                    (decided ? "" : " (timeout)"));
    }
    rows.push_back(std::move(row));
  }
  std::vector<std::string> header{"CR volume"};
  for (const int hosts : host_counts)
    header.push_back("time(s)@" + std::to_string(hosts) + "hosts");
  bench::emit("fig4c_time_vs_cr",
              "Fig 4(c): synthesis time vs connectivity-requirement volume",
              header, rows);
  return 0;
}
