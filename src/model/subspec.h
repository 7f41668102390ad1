// Spec restriction: a ProblemSpec cut down to what survives a removal.
//
// One operation serves two callers. The shard planner (src/shard) cuts
// the topology into regions and solves each region as an independent
// synthesis problem; apply_delta (model/delta.h) implements the
// cs-delta-v1 removals — `remove-host`, `fail-link`, `remove-flow` — as
// restrictions of the whole spec. `project_spec` keeps the induced
// subgraph on the kept nodes (minus an optional failed link), the flows
// whose endpoints both survive (minus an optional removed flow), and
// every piece of policy state that refers only to surviving entities —
// connectivity requirements, flow ranks, user constraints, per-host risk
// requirements. Node, link and flow ids are re-densified in their old
// order; the projection keeps the local→global maps so the stitcher can
// lift region designs back into the global id space.
//
// The projection is not fingerprinted here: `plan_shards` digests each
// region spec once, after its budget rewrite (`RegionPlan::sub_digest`).
#pragma once

#include <optional>
#include <vector>

#include "model/spec.h"

namespace cs::model {

/// A restricted spec plus the id maps back into the parent spec.
struct SpecProjection {
  /// The projected problem. Finalized (ranks installed); NOT validated —
  /// a region can legitimately end up with zero flows, which validate()
  /// rejects. Callers must skip the solver for such trivial regions.
  ProblemSpec spec;
  /// Local node id -> global node id, in ascending global order.
  std::vector<topology::NodeId> nodes;
  /// Local link id -> global link id.
  std::vector<topology::LinkId> links;
  /// Local flow id -> global flow id.
  std::vector<FlowId> flows;
};

/// Projects `spec` onto `keep_nodes` (global node ids; deduplicated and
/// sorted internally), dropping `drop_link` and `drop_flow` when given.
/// The input spec must be finalized. Projection rules:
///   * nodes: re-densified in ascending global-id order;
///   * links: the induced subgraph minus `drop_link`, in global order;
///   * services, isolation/host/app pattern configs, device costs,
///     sliders, alpha, route options: copied verbatim (service ids are
///     global);
///   * flows: kept iff both endpoints survive and the flow is not
///     `drop_flow`, in global order, with their ranks and
///     connectivity-requirement markings;
///   * user constraints, in order: ForbidPatternForService always
///     survives; flow-scoped constraints survive iff their flow(s) do;
///   * host isolation requirements, in order: kept iff the host survives.
SpecProjection project_spec(const ProblemSpec& spec,
                            std::vector<topology::NodeId> keep_nodes,
                            std::optional<topology::LinkId> drop_link = {},
                            std::optional<Flow> drop_flow = {});

}  // namespace cs::model
