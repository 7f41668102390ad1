#include "model/subspec.h"

#include <algorithm>
#include <optional>
#include <variant>

#include "util/error.h"

namespace cs::model {

SpecProjection project_spec(const ProblemSpec& spec,
                            std::vector<topology::NodeId> keep_nodes,
                            std::optional<topology::LinkId> drop_link,
                            std::optional<Flow> drop_flow) {
  CS_REQUIRE(spec.ranks.size() == spec.flows.size(),
             "project_spec requires a finalized spec (call finalize())");
  std::sort(keep_nodes.begin(), keep_nodes.end());
  keep_nodes.erase(std::unique(keep_nodes.begin(), keep_nodes.end()),
                   keep_nodes.end());

  const topology::Network& net = spec.network;
  SpecProjection out;
  std::vector<topology::NodeId> local(net.node_count(), topology::kInvalidNode);
  for (const topology::NodeId gid : keep_nodes) {
    CS_REQUIRE(gid >= 0 && static_cast<std::size_t>(gid) < net.node_count(),
               "project_spec: node id out of range");
    const topology::Node& n = net.node(gid);
    topology::NodeId lid;
    if (n.kind == topology::NodeKind::kRouter) {
      lid = out.spec.network.add_router(n.name);
    } else if (n.is_internet) {
      lid = out.spec.network.add_internet(n.name);
    } else {
      lid = out.spec.network.add_host(n.name, n.group_size);
    }
    local[static_cast<std::size_t>(gid)] = lid;
    out.nodes.push_back(gid);
  }
  for (const topology::Link& l : net.links()) {
    const topology::NodeId a = local[static_cast<std::size_t>(l.a)];
    const topology::NodeId b = local[static_cast<std::size_t>(l.b)];
    if (a == topology::kInvalidNode || b == topology::kInvalidNode ||
        l.id == drop_link)
      continue;
    out.spec.network.add_link(a, b);
    out.links.push_back(l.id);
  }

  out.spec.services = spec.services;
  out.spec.isolation = spec.isolation;
  out.spec.host_patterns = spec.host_patterns;
  out.spec.app_patterns = spec.app_patterns;
  out.spec.device_costs = spec.device_costs;
  out.spec.sliders = spec.sliders;
  out.spec.alpha = spec.alpha;
  out.spec.route_options = spec.route_options;

  // A flow survives iff both endpoints do and it is not the dropped one;
  // flow-scoped constraints live and die with their flows.
  const auto remap_flow = [&](const Flow& f) -> std::optional<Flow> {
    const topology::NodeId src = local[static_cast<std::size_t>(f.src)];
    const topology::NodeId dst = local[static_cast<std::size_t>(f.dst)];
    if (src == topology::kInvalidNode || dst == topology::kInvalidNode ||
        f == drop_flow)
      return std::nullopt;
    return Flow{src, dst, f.service};
  };

  const auto flow_count = static_cast<FlowId>(spec.flows.size());
  for (FlowId f = 0; f < flow_count; ++f) {
    const auto mapped = remap_flow(spec.flows.flow(f));
    if (!mapped.has_value()) continue;
    const FlowId lf = out.spec.flows.add(*mapped);
    out.flows.push_back(f);
    if (spec.connectivity.required(f)) out.spec.connectivity.add(lf);
  }
  out.spec.ranks = FlowRanks::uniform(out.spec.flows);
  for (std::size_t lf = 0; lf < out.flows.size(); ++lf) {
    out.spec.ranks.set(static_cast<FlowId>(lf),
                       spec.ranks.rank(out.flows[lf]));
  }

  for (const UserConstraint& uc : spec.user_constraints) {
    std::visit(
        [&](const auto& c) {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, ForbidPatternForService>) {
            out.spec.user_constraints.push_back(c);
          } else if constexpr (std::is_same_v<T, ForbidPatternForFlow>) {
            if (const auto m = remap_flow(c.flow); m.has_value())
              out.spec.user_constraints.push_back(
                  ForbidPatternForFlow{*m, c.pattern});
          } else if constexpr (std::is_same_v<T, RequirePatternForFlow>) {
            if (const auto m = remap_flow(c.flow); m.has_value())
              out.spec.user_constraints.push_back(
                  RequirePatternForFlow{*m, c.pattern});
          } else if constexpr (std::is_same_v<T, DenyOneOf>) {
            const auto open = remap_flow(c.open_flow);
            const auto guard = remap_flow(c.guard_flow);
            if (open.has_value() && guard.has_value())
              out.spec.user_constraints.push_back(DenyOneOf{*open, *guard});
          }
        },
        uc);
  }

  for (const HostIsolationRequirement& hr : spec.host_requirements) {
    const topology::NodeId h = local[static_cast<std::size_t>(hr.host)];
    if (h == topology::kInvalidNode) continue;
    out.spec.host_requirements.push_back(
        HostIsolationRequirement{h, hr.min_isolation});
  }
  return out;
}

}  // namespace cs::model
