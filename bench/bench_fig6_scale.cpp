// Fig. 6 (scale extension) — synthesis time vs. the number of hosts,
// monolithic vs. sharded, on structured topologies (topology/structured.h).
//
// The paper's evaluation (§V-B) stops near 50 hosts because monolithic
// synthesis grows super-quadratically in the host count. This bench
// extends the curve to 100-2000 hosts with a locality-weighted workload
// (most flows stay near their source, the shape sharding exploits) and
// runs each point twice: a plain synth::Synthesizer solve and a
// shard::ShardedSynthesizer solve (partition → per-region solves →
// stitch). A monolithic point whose check hits the bench effort cap is
// reported as "capped" — at the largest sizes that is the expected
// outcome, and it is exactly the regime the sharded runs are for.
//
// Flags:
//   --topology <name>        mesh|fat-tree|campus|isp (default fat-tree)
//   --hosts <n1,n2,...>      host counts (default 100,300,1000;
//                            CS_BENCH_FULL=1 appends 2000)
//   --mode both|mono|sharded which modes to run (default both)
//   --jobs <N>               sharded region-solve workers (default 1;
//                            0 = one per hardware thread — results are
//                            byte-identical at any value)
//   --out <file>             JSON artifact path (BENCH_scale.json)
//   --trace-out <file>       Chrome-trace-event timeline
//
// The artifact (schema cs-bench-scale-v1) is validated, and compared
// against bench/baselines/BENCH_scale.json, by scripts/check_bench.py.
#include <cstdio>
#include <string>
#include <vector>

#include "common/workloads.h"
#include "shard/sharded.h"
#include "topology/structured.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace cs;

const char* status_name(smt::CheckResult status) {
  switch (status) {
    case smt::CheckResult::kSat:
      return "sat";
    case smt::CheckResult::kUnsat:
      return "unsat";
    case smt::CheckResult::kUnknown:
      return "capped";
  }
  return "capped";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cs;
  bench::TraceGuard trace(argc, argv);
  topology::TopologyKind kind = topology::TopologyKind::kFatTree;
  std::vector<int> host_counts{100, 300, 1000};
  if (bench::full_mode()) host_counts.push_back(2000);
  bool run_mono = true;
  bool run_sharded = true;
  std::string out_path = "BENCH_scale.json";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto next = [&]() -> std::string {
        CS_REQUIRE(i + 1 < argc, "flag " + flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--topology") {
        kind = topology::topology_kind_from_name(next());
      } else if (flag == "--hosts") {
        host_counts.clear();
        for (const std::string& part : util::split(next(), ','))
          host_counts.push_back(
              static_cast<int>(util::parse_int(part, "hosts")));
        CS_REQUIRE(!host_counts.empty(), "--hosts wants n1,n2,...");
      } else if (flag == "--mode") {
        const std::string mode = next();
        CS_REQUIRE(mode == "both" || mode == "mono" || mode == "sharded",
                   "--mode wants both|mono|sharded");
        run_mono = mode != "sharded";
        run_sharded = mode != "mono";
      } else if (flag == "--out") {
        out_path = next();
      } else if (flag == "--jobs" || flag == "--trace-out") {
        next();  // consumed by bench::jobs / TraceGuard
      } else {
        throw util::SpecError("unknown flag '" + flag + "'");
      }
    }

    const synth::SynthesisOptions options = bench::sweep_options();
    const int jobs = bench::jobs(argc, argv);
    const std::string topo(topology::topology_kind_name(kind));
    std::vector<bench::Row> runs;
    for (const int host_count : host_counts) {
      const model::ProblemSpec spec = bench::make_locality_spec(
          kind, host_count, 6000 + static_cast<std::uint64_t>(host_count));
      const int hosts = static_cast<int>(spec.network.host_count());
      // regions and cut_links are 0 on the monolithic side; fallback is 1
      // when the sharded solve fell back to the monolithic one.
      const auto run = [&](const char* mode, smt::CheckResult status,
                           int regions, int cut_links, bool fallback,
                           double wall) -> bench::Row {
        return {topo, hosts, mode, status_name(status),
                static_cast<int>(spec.network.router_count()),
                static_cast<int>(spec.flows.size()), regions, cut_links,
                fallback ? 1 : 0, bench::number(wall, 6),
                bench::number(wall > 0 ? hosts / wall : 0, 3)};
      };

      if (run_mono) {
        util::Stopwatch watch;
        synth::Synthesizer synthesizer(spec, options);
        const synth::SynthesisResult result = synthesizer.synthesize();
        const double wall = watch.elapsed_seconds();
        if (result.design.has_value()) {
          const synth::DesignMetrics m =
              synth::compute_metrics(spec, *result.design);
          std::fprintf(stderr, "mono %d hosts: cost %s iso %s usab %s\n",
                       hosts, m.cost.to_string().c_str(),
                       m.isolation.to_string().c_str(),
                       m.usability.to_string().c_str());
        }
        runs.push_back(run("mono", result.status, 0, 0, false, wall));
      }

      if (run_sharded) {
        shard::ShardOptions shard_options;
        shard_options.synthesis = options;
        shard_options.jobs = jobs;
        const shard::ShardedOutcome outcome =
            shard::ShardedSynthesizer(spec, shard_options).synthesize();
        std::fprintf(stderr,
                     "sharded %d hosts: plan %.3fs regions %.3fs stitch "
                     "%.3fs fallback %.3fs escalated %d repairs %d\n",
                     hosts, outcome.plan_seconds,
                     outcome.region_wall_seconds, outcome.stitch_seconds,
                     outcome.fallback_seconds, outcome.escalated_flows,
                     outcome.repair_placements);
        if (outcome.used_fallback)
          std::fprintf(stderr, "  fallback: %s\n",
                       outcome.fallback_reason.c_str());
        if (!outcome.stitch_failure.empty())
          std::fprintf(stderr, "  stitch failure: %s\n",
                       outcome.stitch_failure.c_str());
        for (const shard::RegionOutcome& r : outcome.region_outcomes)
          std::fprintf(stderr, "  region %d: %zu hosts %zu flows %s %.3fs\n",
                       r.index, r.hosts, r.flows, status_name(r.status),
                       r.wall_seconds);
        runs.push_back(run("sharded", outcome.status, outcome.regions,
                           outcome.cut_links, outcome.used_fallback,
                           outcome.wall_seconds));
      }
    }

    bench::emit("fig6_scale",
                std::string("Fig 6: synthesis time vs hosts at scale (") +
                    topo + ", mono vs sharded)",
                {"topology", "hosts", "mode", "status", "routers", "flows",
                 "regions", "cut_links", "fallback", "wall_seconds",
                 "hosts_per_sec"},
                runs, "cs-bench-scale-v1", out_path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
