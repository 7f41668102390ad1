// ShardPlanner: turning a partition into per-region synthesis problems.
//
// For each region of the partition the planner projects the global
// ProblemSpec onto the region's nodes (model/subspec.h) and rewrites the
// region's budget slider to its proportional share of the global budget
// (by intra-region flow count, floored — the unassigned remainder is the
// stitcher's headroom for cross-region devices). Flows whose endpoints
// live in different regions cannot be decided by any region solve; they
// are collected as `cross_flows`, the interface-constraint set the
// stitcher resolves globally.
//
// Regions with no flows or fewer than two hosts are marked `trivial`:
// their sub-spec is not a valid synthesis problem (validate() rejects
// empty flow sets) and an empty design is vacuously optimal, so the
// sharded synthesizer skips the solver for them.
#pragma once

#include <vector>

#include "model/fingerprint.h"
#include "model/spec.h"
#include "model/subspec.h"
#include "shard/partition.h"

namespace cs::shard {

struct ShardPlannerOptions {
  /// Region count; 0 = partition.h auto rule.
  int regions = 0;
};

struct RegionPlan {
  int index = 0;
  /// Region sub-spec plus local->global id maps.
  model::SpecProjection projection;
  /// cs-spec-v1 digest of the region sub-spec as the region solver sees
  /// it (after the budget rewrite).
  model::Fingerprint sub_digest;
  /// True when the region needs no solver (no flows / fewer than two
  /// hosts): its contribution to the global design is empty.
  bool trivial = false;
};

struct ShardPlan {
  Partition partition;
  std::vector<RegionPlan> regions;
  /// Global ids of flows whose endpoints lie in different regions,
  /// ascending.
  std::vector<model::FlowId> cross_flows;
  /// Order-sensitive fold of the region sub-digests — one digest that
  /// changes iff any region's problem changes.
  model::Fingerprint plan_digest;
};

/// Builds the plan. `spec` must be finalized and valid.
ShardPlan plan_shards(const model::ProblemSpec& spec,
                      const ShardPlannerOptions& options = {});

}  // namespace cs::shard
