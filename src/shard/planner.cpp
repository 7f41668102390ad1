#include "shard/planner.h"

#include <string>

#include "util/error.h"

namespace cs::shard {

ShardPlan plan_shards(const model::ProblemSpec& spec,
                      const ShardPlannerOptions& options) {
  CS_REQUIRE(spec.ranks.size() == spec.flows.size(),
             "plan_shards requires a finalized spec");
  ShardPlan plan;
  plan.partition = partition_topology(spec.network, options.regions);

  // Intra-region flow counts drive the budget split; cross flows are
  // listed for the stitcher.
  std::vector<long long> region_flows(
      static_cast<std::size_t>(plan.partition.regions), 0);
  const auto flow_count = static_cast<model::FlowId>(spec.flows.size());
  for (model::FlowId f = 0; f < flow_count; ++f) {
    const model::Flow& fl = spec.flows.flow(f);
    const int src = plan.partition.region_of[static_cast<std::size_t>(fl.src)];
    const int dst = plan.partition.region_of[static_cast<std::size_t>(fl.dst)];
    if (src == dst) {
      ++region_flows[static_cast<std::size_t>(src)];
    } else {
      plan.cross_flows.push_back(f);
    }
  }
  const long long intra_total =
      static_cast<long long>(spec.flows.size()) -
      static_cast<long long>(plan.cross_flows.size());

  model::FingerprintHasher plan_hash;
  plan_hash.mix_string("cs-shard-plan-v1");
  plan_hash.mix_i64(plan.partition.regions);
  for (int r = 0; r < plan.partition.regions; ++r) {
    RegionPlan region;
    region.index = r;
    region.projection = model::project_spec(
        spec, plan.partition.members[static_cast<std::size_t>(r)]);
    // Proportional budget share, floored so the shares never overshoot
    // the global budget; the remainder (including the cross-flow share)
    // stays unallocated as stitch headroom.
    model::ProblemSpec& sub = region.projection.spec;
    if (intra_total > 0) {
      sub.sliders.budget = util::Fixed::from_raw(
          spec.sliders.budget.raw() *
          region_flows[static_cast<std::size_t>(r)] / intra_total);
    }
    region.trivial =
        sub.flows.empty() || sub.network.host_count() < 2;
    // Digested after the budget rewrite, so sub_digest is the canonical
    // digest of the problem the region solver actually sees.
    region.sub_digest = model::fingerprint_spec(sub);
    plan_hash.mix_digest(region.sub_digest);
    plan.regions.push_back(std::move(region));
  }
  plan.plan_digest = plan_hash.digest();
  return plan;
}

}  // namespace cs::shard
