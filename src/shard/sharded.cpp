#include "shard/sharded.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cs::shard {
namespace {

// One region solve: a fresh Synthesizer per region keeps the single-owner
// backend rule (sweep.h determinism contract) — no solver state is ever
// shared across threads, and caps are deterministic functions of the
// region formula.
void solve_region(const RegionPlan& region,
                  const synth::SynthesisOptions& synthesis,
                  RegionOutcome& outcome,
                  std::optional<synth::SecurityDesign>& design) {
  obs::Span span("shard", "shard/region");
  span.arg("region", std::to_string(region.index));
  span.arg("flows", std::to_string(region.projection.spec.flows.size()));
  util::Stopwatch timer;
  outcome.index = region.index;
  outcome.trivial = region.trivial;
  outcome.hosts = region.projection.spec.network.host_count();
  outcome.flows = region.projection.spec.flows.size();
  outcome.sub_digest = region.sub_digest;
  if (region.trivial) {
    // No flows to decide: the empty design satisfies the region
    // vacuously (and is not a valid solver input — validate() rejects
    // empty flow sets).
    outcome.status = smt::CheckResult::kSat;
    design.emplace(region.projection.spec.flows.size(),
                   region.projection.spec.network.link_count());
    outcome.wall_seconds = timer.elapsed_seconds();
    return;
  }
  synth::Synthesizer synth(region.projection.spec, synthesis);
  synth::SynthesisResult result = synth.synthesize();
  outcome.status = result.status;
  if (result.status == smt::CheckResult::kSat) design = result.design;
  outcome.wall_seconds = timer.elapsed_seconds();
  span.arg("status", result.status == smt::CheckResult::kSat     ? "sat"
                     : result.status == smt::CheckResult::kUnsat ? "unsat"
                                                                 : "unknown");
}

}  // namespace

ShardedSynthesizer::ShardedSynthesizer(const model::ProblemSpec& spec,
                                       ShardOptions options)
    : spec_(spec), options_(options) {
  spec_.validate();
}

ShardedOutcome ShardedSynthesizer::synthesize() {
  util::Stopwatch total;
  ShardedOutcome out;

  util::Stopwatch plan_timer;
  ShardPlan plan;
  {
    obs::Span span("shard", "shard/plan");
    plan = plan_shards(spec_, ShardPlannerOptions{options_.regions});
    span.arg("regions", std::to_string(plan.partition.regions));
    span.arg("cut_links", std::to_string(plan.partition.cut_links.size()));
    span.arg("cross_flows", std::to_string(plan.cross_flows.size()));
  }
  out.plan_seconds = plan_timer.elapsed_seconds();
  out.regions = plan.partition.regions;
  out.cut_links = plan.partition.cut_links.size();
  out.cross_flows = plan.cross_flows.size();

  const auto fallback = [&](const std::string& reason) {
    obs::Span span("shard", "shard/fallback");
    span.arg("reason", reason);
    util::Stopwatch timer;
    out.used_fallback = true;
    out.fallback_reason = reason;
    synth::Synthesizer synth(spec_, options_.synthesis);
    synth::SynthesisResult result = synth.synthesize();
    out.status = result.status;
    out.design = result.design;
    out.conflicting = result.conflicting;
    out.fallback_seconds = timer.elapsed_seconds();
    out.wall_seconds = total.elapsed_seconds();
    return out;
  };

  if (plan.partition.regions < 2) return fallback("single-region");

  // Region solves, in parallel when asked. Results land in index-ordered
  // slots, so collection order — and therefore everything downstream —
  // is independent of scheduling.
  const std::size_t count = plan.regions.size();
  out.region_outcomes.assign(count, RegionOutcome{});
  std::vector<std::optional<synth::SecurityDesign>> designs(count);
  const int jobs = std::min<int>(
      options_.jobs <= 0 ? static_cast<int>(util::ThreadPool::hardware_jobs())
                         : options_.jobs,
      static_cast<int>(count));
  if (jobs <= 1) {
    for (std::size_t r = 0; r < count; ++r) {
      solve_region(plan.regions[r], options_.synthesis,
                   out.region_outcomes[r], designs[r]);
    }
  } else {
    util::ThreadPool pool(static_cast<std::size_t>(jobs));
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
      futures.push_back(pool.submit([&, r] {
        solve_region(plan.regions[r], options_.synthesis,
                     out.region_outcomes[r], designs[r]);
      }));
    }
    for (auto& f : futures) f.get();
  }
  for (const RegionOutcome& ro : out.region_outcomes)
    out.region_wall_seconds += ro.wall_seconds;

  for (const RegionOutcome& ro : out.region_outcomes) {
    if (ro.status == smt::CheckResult::kUnsat) return fallback("region-unsat");
    if (ro.status == smt::CheckResult::kUnknown)
      return fallback("region-unknown");
  }

  util::Stopwatch stitch_timer;
  StitchResult stitched;
  {
    obs::Span span("shard", "shard/stitch");
    stitched = stitch_designs(spec_, plan, designs);
    span.arg("ok", stitched.ok ? "1" : "0");
    span.arg("escalated", std::to_string(stitched.escalated_flows));
    span.arg("repairs", std::to_string(stitched.repair_placements));
    if (!stitched.ok) span.arg("issue", stitched.failure);
  }
  out.stitch_seconds = stitch_timer.elapsed_seconds();
  out.escalated_flows = stitched.escalated_flows;
  out.repair_placements = stitched.repair_placements;

  if (!stitched.ok) {
    out.stitch_failure = stitched.failure;
    return fallback("stitch-failed");
  }

  out.status = smt::CheckResult::kSat;
  out.design = std::move(stitched.design);
  out.sharded = true;
  out.wall_seconds = total.elapsed_seconds();
  return out;
}

}  // namespace cs::shard
