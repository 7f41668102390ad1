// Fig. 7 (churn extension) — incremental re-synthesis under topology
// churn vs. cold re-solves, on structured topologies.
//
// The paper synthesizes once; real deployments mutate. This bench
// replays a seeded stream of single-op cs-delta-v1 deltas (docs/
// DELTAS.md) against a live synth::Synthesizer via apply_delta and,
// for every step, also cold-solves the post-delta spec on a fresh
// synthesizer with the same options. The op mix models operational
// churn: mostly threshold retunes and policy edits, occasional flow
// changes, rare link failures and host arrivals/departures.
//
// Per step the bench asserts the incremental verdict equals the cold
// verdict (the apply_delta contract; any decided-vs-decided difference
// is counted in verdict_mismatches and hard-fails the artifact check),
// certifies the incremental design with analysis::check_design when
// SAT, and — on the deterministic full tier — compares the designs
// byte-for-byte. Steps where either side returns kUnknown are
// counted `capped` and excluded from certification: a cold reference
// that burns its whole effort budget on a formula the warm solver's
// learnt state decides is the asymmetry being measured, not a bug.
// Streams are independent per host count and seeded, so results are
// byte-identical at any --jobs value.
//
// Flags:
//   --topology <name>     mesh|fat-tree|campus|isp (default fat-tree)
//   --hosts <n1,n2,...>   host counts (default 100,300;
//                         CS_BENCH_FULL=1 appends 1000)
//   --steps <n>           delta ops per stream (default 40)
//   --jobs <N>            concurrent streams (default 1; 0 = one per
//                         hardware thread — results are byte-identical
//                         at any value)
//   --out <file>          JSON artifact path (BENCH_churn.json)
//   --trace-out <file>    Chrome-trace-event timeline
//
// The artifact (schema cs-bench-churn-v2) is validated, and compared
// against bench/baselines/BENCH_churn.json, by scripts/check_bench.py.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "common/workloads.h"
#include "model/delta.h"
#include "topology/structured.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cs;

struct StepRecord {
  std::string op_class;  // "retune" | "uic" | "flow" | "link" | "host"
  std::string path;      // "warm" | "retract" | "full"
  double inc_seconds = 0;
  double cold_seconds = 0;
  bool capped = false;  // either side kUnknown: effort cap, not a verdict
  bool verdict_mismatch = false;
  bool invalid_design = false;
  bool design_compared = false;  // full with both sides SAT
  bool design_matched = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Deterministic churn-stream generator. Op mix: retune 35%, policy
/// (UIC add/remove) 25%, flow add/remove 20%, link fail/restore 10%,
/// host add/remove 10%. Removals only target objects the stream itself
/// added (plus link restores of its own failures), so every delta is
/// valid against the evolving spec by construction.
class ChurnGenerator {
 public:
  ChurnGenerator(std::uint64_t seed, int hosts) : rng_(seed), hosts_(hosts) {}

  model::SpecDelta next(const model::ProblemSpec& cur,
                        std::string* op_class) {
    const double r = rng_.uniform01();
    model::DeltaOp op;
    if (r < 0.35) {
      *op_class = "retune";
      op = retune();
    } else if (r < 0.60) {
      *op_class = "uic";
      op = uic(cur);
    } else if (r < 0.80) {
      *op_class = "flow";
      op = flow(cur);
    } else if (r < 0.90) {
      *op_class = "link";
      op = link(cur, op_class);
    } else {
      *op_class = "host";
      op = host(cur);
    }
    return model::SpecDelta{{std::move(op)}};
  }

 private:
  const std::string& host_name(const model::ProblemSpec& cur, int i) {
    // Base (non-churn) hosts only: names are stable across the stream.
    const auto& hs = cur.network.hosts();
    return cur.network
        .node(hs[static_cast<std::size_t>(((i % hosts_) + hosts_) % hosts_)])
        .name;
  }

  model::DeltaOp retune() {
    model::DeltaOp op;
    op.kind = model::DeltaOpKind::kRetune;
    // At least one knob; each present with p=1/2, isolation as default.
    const bool iso = rng_.chance(0.5);
    const bool usab = rng_.chance(0.5);
    const bool budget = rng_.chance(0.5);
    if (iso || (!usab && !budget))
      op.isolation = util::Fixed::from_double(
          static_cast<double>(rng_.uniform(50, 90)) / 10.0);
    if (usab)
      op.usability = util::Fixed::from_double(
          static_cast<double>(rng_.uniform(30, 55)) / 10.0);
    if (budget)
      op.budget = util::Fixed::from_int(rng_.uniform(12, 20) * hosts_);
    return op;
  }

  model::DeltaOp uic(const model::ProblemSpec& cur) {
    model::DeltaOp op;
    if (!added_uics_.empty() && rng_.chance(0.4)) {
      op.kind = model::DeltaOpKind::kRemoveUic;
      const std::size_t at = static_cast<std::size_t>(
          rng_.uniform(0, static_cast<std::int64_t>(added_uics_.size()) - 1));
      op.uic = added_uics_[at];
      added_uics_.erase(added_uics_.begin() +
                        static_cast<std::ptrdiff_t>(at));
      return op;
    }
    // Strengthen a base WEB flow (i -> i+1, never removed by this
    // stream) with a non-denying pattern, so CR flows stay routable.
    static constexpr const char* kPatterns[] = {"trusted-comm",
                                                "payload-inspection",
                                                "proxy"};
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int i = static_cast<int>(rng_.uniform(0, hosts_ - 1));
      std::vector<std::string> uic{
          "forbid-flow", host_name(cur, i), host_name(cur, i + 1), "WEB",
          kPatterns[rng_.uniform(0, 2)]};
      if (std::find(added_uics_.begin(), added_uics_.end(), uic) !=
          added_uics_.end())
        continue;  // set semantics: add-uic rejects duplicates
      op.kind = model::DeltaOpKind::kAddUic;
      op.uic = uic;
      added_uics_.push_back(std::move(uic));
      return op;
    }
    return retune();  // saturated; keep the stream moving
  }

  model::DeltaOp flow(const model::ProblemSpec& cur) {
    model::DeltaOp op;
    op.service = "WEB";
    if (!added_flows_.empty() && rng_.chance(0.5)) {
      op.kind = model::DeltaOpKind::kRemoveFlow;
      const std::size_t at = static_cast<std::size_t>(rng_.uniform(
          0, static_cast<std::int64_t>(added_flows_.size()) - 1));
      op.a = added_flows_[at].first;
      op.b = added_flows_[at].second;
      added_flows_.erase(added_flows_.begin() +
                         static_cast<std::ptrdiff_t>(at));
      return op;
    }
    // (i, i+3, WEB) never exists in the locality workload (WEB spans 1,
    // DB 2, SSH n/2), so only this stream's own additions can collide.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int i = static_cast<int>(rng_.uniform(0, hosts_ - 1));
      std::pair<std::string, std::string> pair{host_name(cur, i),
                                               host_name(cur, i + 3)};
      if (std::find(added_flows_.begin(), added_flows_.end(), pair) !=
          added_flows_.end())
        continue;
      op.kind = model::DeltaOpKind::kAddFlow;
      op.a = pair.first;
      op.b = pair.second;
      op.connectivity_required = rng_.chance(0.3);
      added_flows_.push_back(std::move(pair));
      return op;
    }
    return retune();
  }

  model::DeltaOp link(const model::ProblemSpec& cur, std::string* op_class) {
    model::DeltaOp op;
    if (!failed_links_.empty() && rng_.chance(0.5)) {
      op.kind = model::DeltaOpKind::kRestoreLink;
      op.a = failed_links_.back().first;
      op.b = failed_links_.back().second;
      failed_links_.pop_back();
      return op;
    }
    // Fail a redundant router-router link: probe candidates with a real
    // apply (cheap next to any solve) and take the first that keeps the
    // network connected.
    const auto& links = cur.network.links();
    const std::size_t start = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(links.size()) - 1));
    for (std::size_t k = 0; k < links.size(); ++k) {
      const topology::Link& l = links[(start + k) % links.size()];
      if (!cur.network.is_router(l.a) || !cur.network.is_router(l.b))
        continue;
      model::DeltaOp candidate;
      candidate.kind = model::DeltaOpKind::kFailLink;
      candidate.a = cur.network.node(l.a).name;
      candidate.b = cur.network.node(l.b).name;
      try {
        model::apply_delta(cur, model::SpecDelta{{candidate}});
      } catch (const util::Error&) {
        continue;  // bridge link: failing it would disconnect
      }
      failed_links_.emplace_back(candidate.a, candidate.b);
      return candidate;
    }
    *op_class = "retune";  // no redundant link left; keep moving
    return retune();
  }

  model::DeltaOp host(const model::ProblemSpec& cur) {
    model::DeltaOp op;
    if (!added_hosts_.empty() && rng_.chance(0.5)) {
      op.kind = model::DeltaOpKind::kRemoveHost;
      op.a = added_hosts_.back();
      added_hosts_.pop_back();
      return op;
    }
    op.kind = model::DeltaOpKind::kAddHost;
    op.a = "churn-h" + std::to_string(next_host_++);
    const auto& routers = cur.network.routers();
    op.b = cur.network
               .node(routers[static_cast<std::size_t>(rng_.uniform(
                   0, static_cast<std::int64_t>(routers.size()) - 1))])
               .name;
    added_hosts_.push_back(op.a);
    return op;
  }

  util::Rng rng_;
  int hosts_;
  int next_host_ = 0;
  std::vector<std::vector<std::string>> added_uics_;
  std::vector<std::pair<std::string, std::string>> added_flows_;
  std::vector<std::pair<std::string, std::string>> failed_links_;
  std::vector<std::string> added_hosts_;
};

std::vector<StepRecord> run_stream(topology::TopologyKind kind, int hosts,
                                   int steps,
                                   const synth::SynthesisOptions& options) {
  auto spec = std::make_shared<const model::ProblemSpec>(
      bench::make_locality_spec(kind, hosts,
                                6000 + static_cast<std::uint64_t>(hosts)));
  synth::Synthesizer inc(spec, options);
  inc.synthesize();  // the pre-churn solve every delta is warm against

  ChurnGenerator gen(9000 + static_cast<std::uint64_t>(hosts), hosts);
  std::vector<StepRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    StepRecord rec;
    const model::SpecDelta delta = gen.next(inc.spec(), &rec.op_class);

    util::Stopwatch inc_watch;
    const synth::DeltaApplyReport report = inc.apply_delta(delta);
    rec.inc_seconds = inc_watch.elapsed_seconds();
    rec.path = report.path;

    // Cold reference: fresh synthesizer on the post-delta spec, same
    // options (cold wall clock includes the encode, the paper's
    // definition).
    const model::ProblemSpec& post = inc.spec();
    util::Stopwatch cold_watch;
    synth::Synthesizer cold(post, options);
    const synth::SynthesisResult cold_result = cold.synthesize();
    rec.cold_seconds = cold_watch.elapsed_seconds();

    // A kUnknown on either side is an effort cap, not a verdict: the
    // cold reference can burn its whole budget on a formula the warm
    // solver's learnt state decides instantly (that asymmetry is the
    // *point* of the incremental path). Capped steps keep their wall
    // times but are excluded from certification — a decided-vs-decided
    // disagreement is still a hard failure.
    rec.capped = report.result.status == smt::CheckResult::kUnknown ||
                 cold_result.status == smt::CheckResult::kUnknown;
    rec.verdict_mismatch =
        !rec.capped && report.result.status != cold_result.status;
    if (rec.verdict_mismatch)
      std::fprintf(stderr,
                   "VERDICT MISMATCH %d hosts step %d (%s, %s): %s\n",
                   hosts, s, rec.op_class.c_str(), rec.path.c_str(),
                   model::render_delta(delta).c_str());
    if (report.result.design.has_value()) {
      const analysis::CheckReport check =
          analysis::check_design(post, *report.result.design,
                                 /*check_thresholds=*/false);
      rec.invalid_design = !check.ok();
      if (rec.invalid_design)
        std::fprintf(stderr, "INVALID DESIGN %d hosts step %d: %s\n", hosts,
                     s, check.to_string().c_str());
    }
    // Full rebuilds deterministically, so the witness — not just the
    // verdict — must match the cold one bit for bit.
    if (rec.path == "full" && report.result.design.has_value() &&
        cold_result.design.has_value()) {
      rec.design_compared = true;
      rec.design_matched = *report.result.design == *cold_result.design;
      if (!rec.design_matched)
        std::fprintf(stderr, "DESIGN MISMATCH %d hosts step %d (%s)\n",
                     hosts, s, rec.path.c_str());
    }
    records.push_back(std::move(rec));
  }
  return records;
}

/// The artifact runs of one stream: one (topology, hosts, op_class) cell
/// per class the mix drew, in a stable order, then an "all" aggregate.
std::vector<bench::Row> aggregate(const std::string& topo, int hosts,
                                  const std::vector<StepRecord>& records) {
  std::vector<bench::Row> runs;
  for (const std::string cls :
       {"retune", "uic", "flow", "link", "host", "all"}) {
    int steps = 0, capped = 0, mismatches = 0, invalid = 0;
    int comparisons = 0, matches = 0;
    std::map<std::string, int> tiers;
    std::vector<double> inc, cold;
    for (const StepRecord& r : records) {
      if (cls != "all" && r.op_class != cls) continue;
      ++steps;
      inc.push_back(r.inc_seconds);
      cold.push_back(r.cold_seconds);
      capped += r.capped;
      mismatches += r.verdict_mismatch;
      invalid += r.invalid_design;
      comparisons += r.design_compared;
      matches += r.design_matched;
      ++tiers[r.path];
    }
    if (steps == 0) continue;  // mix didn't draw this class
    const double inc_median = median(inc);
    const double cold_median = median(cold);
    runs.push_back({topo, hosts, cls, steps, bench::number(inc_median, 6),
                    bench::number(cold_median, 6),
                    bench::number(
                        inc_median > 0 ? cold_median / inc_median : 0, 3),
                    capped, mismatches, invalid, comparisons, matches,
                    tiers["warm"], tiers["retract"], tiers["full"]});
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cs;
  bench::TraceGuard trace(argc, argv);
  topology::TopologyKind kind = topology::TopologyKind::kFatTree;
  std::vector<int> host_counts{100, 300};
  if (bench::full_mode()) host_counts.push_back(1000);
  int steps = 40;
  std::string out_path = "BENCH_churn.json";
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
      } else if (flag == "--steps") {
        steps = static_cast<int>(util::parse_int(next(), "steps"));
        CS_REQUIRE(steps > 0, "--steps must be positive");
      } else if (flag == "--out") {
        out_path = next();
      } else if (flag == "--jobs" || flag == "--trace-out") {
        next();  // consumed by bench::jobs / TraceGuard
      } else {
        throw util::SpecError("unknown flag '" + flag + "'");
      }
    }

    synth::SynthesisOptions options = bench::sweep_options();
    // The whole point: policy-only deltas retract instead of re-encode.
    // The cold reference uses the same options, so verdict and design
    // comparisons are against the identical formula.
    options.retractable_sections = true;
    const int jobs = bench::jobs(argc, argv);
    const std::string topo(topology::topology_kind_name(kind));

    // One stream per host count; streams share nothing and are fully
    // seeded, so running them on a pool changes wall time only.
    std::vector<std::vector<StepRecord>> streams(host_counts.size());
    {
      util::ThreadPool pool(static_cast<std::size_t>(
          jobs == 0 ? util::ThreadPool::hardware_jobs()
                    : std::max(1, jobs)));
      std::vector<std::future<void>> futs;
      for (std::size_t i = 0; i < host_counts.size(); ++i)
        futs.push_back(pool.submit([&, i] {
          streams[i] = run_stream(kind, host_counts[i], steps, options);
        }));
      for (auto& f : futs) f.get();
    }

    std::vector<bench::Row> runs;
    int failures = 0;
    for (std::size_t i = 0; i < host_counts.size(); ++i) {
      for (bench::Row& run : aggregate(topo, host_counts[i], streams[i]))
        runs.push_back(std::move(run));
      for (const StepRecord& r : streams[i])
        failures += r.verdict_mismatch + r.invalid_design +
                    (r.design_compared && !r.design_matched);
    }

    bench::emit("fig7_churn",
                std::string("Fig 7: incremental vs cold re-synthesis "
                            "under churn (") +
                    topo + ", " + std::to_string(steps) + " ops/stream)",
                {"topology", "hosts", "op_class", "steps",
                 "inc_median_seconds", "cold_median_seconds",
                 "speedup_median", "capped", "verdict_mismatches",
                 "invalid_designs", "design_comparisons", "design_matches",
                 "warm", "retract", "full"},
                runs, "cs-bench-churn-v2", out_path);
    if (failures > 0) {
      std::fprintf(stderr,
                   "error: %d verdict/design certification failure(s)\n",
                   failures);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
