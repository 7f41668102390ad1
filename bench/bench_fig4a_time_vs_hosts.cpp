// Fig. 4(a) — model synthesis time vs. the number of hosts, at two
// connectivity-requirement volumes (10% and 20% of all flows).
//
// Expected shape (paper §V-B): super-quadratic growth in the host count
// (the flow count is O(N²)), with the 20% CR curve above the 10% curve.
//
// --topology mesh|fat-tree|campus|isp (default mesh) swaps the paper's
// random mesh for a structured fabric (topology/structured.h) with the
// same random workload, so the curve can be read per network family.
#include "common/workloads.h"
#include "util/error.h"

int main(int argc, char** argv) {
  using namespace cs;
  topology::TopologyKind kind = topology::TopologyKind::kMesh;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--topology") {
        CS_REQUIRE(i + 1 < argc, "--topology needs a value");
        kind = topology::topology_kind_from_name(argv[++i]);
      } else {
        throw util::SpecError("unknown flag '" + flag + "'");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::string topo(topology::topology_kind_name(kind));
  const std::vector<int> host_counts =
      bench::full_mode() ? std::vector<int>{10, 20, 30, 40, 50}
                         : std::vector<int>{6, 10, 14, 18};
  const double cr_volumes[] = {0.10, 0.20};

  std::vector<bench::Row> rows;
  for (const int hosts : host_counts) {
    const int routers = std::clamp(8 + hosts / 5, 8, 20);
    bench::Row row{std::to_string(hosts)};
    for (const double cr : cr_volumes) {
      const model::ProblemSpec spec = bench::make_eval_spec(
          kind, hosts, routers, cr, 1000 + static_cast<std::uint64_t>(hosts));
      const model::Sliders sliders{
          util::Fixed::from_int(3), util::Fixed::from_int(3),
          util::Fixed::from_int(10 * hosts)};  // budget scales with size
      const bench::TimedRun run = bench::run_synthesis(spec, sliders);
      row.push_back(bench::fmt_seconds(run.seconds) +
                    (run.status == smt::CheckResult::kSat ? "" : " (unsat)"));
    }
    rows.push_back(std::move(row));
  }
  bench::emit("fig4a_time_vs_hosts",
              "Fig 4(a): synthesis time vs number of hosts (" + topo + ")",
              {"hosts", "time(s)@10%CR", "time(s)@20%CR"}, rows);
  return 0;
}
