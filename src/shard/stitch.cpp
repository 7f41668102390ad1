#include "shard/stitch.h"

#include <algorithm>
#include <cstdint>
#include <variant>

#include "synth/metrics.h"
#include "util/error.h"

namespace cs::shard {
namespace {

using model::IsolationPattern;

constexpr std::uint8_t pattern_bit(IsolationPattern p) {
  return static_cast<std::uint8_t>(1u << model::pattern_index(p));
}

}  // namespace

StitchResult stitch_designs(
    const model::ProblemSpec& spec, const ShardPlan& plan,
    const std::vector<std::optional<synth::SecurityDesign>>& region_designs) {
  CS_REQUIRE(region_designs.size() == plan.regions.size(),
             "stitch_designs: one design slot per region");
  StitchResult out;
  out.design = synth::SecurityDesign(spec.flows.size(),
                                     spec.network.link_count());

  // 1. Lift each region's decisions into global ids.
  for (std::size_t r = 0; r < plan.regions.size(); ++r) {
    if (!region_designs[r].has_value()) continue;
    const synth::SecurityDesign& rd = *region_designs[r];
    const model::SpecProjection& proj = plan.regions[r].projection;
    for (std::size_t lf = 0; lf < proj.flows.size(); ++lf) {
      out.design.set_pattern(proj.flows[lf],
                             rd.pattern(static_cast<model::FlowId>(lf)));
    }
    for (std::size_t ll = 0; ll < proj.links.size(); ++ll) {
      for (const model::DeviceType d : model::kAllDevices) {
        if (rd.placed(static_cast<topology::LinkId>(ll), d))
          out.design.set_placed(proj.links[ll], d, true);
      }
    }
    for (std::size_t ln = 0; ln < proj.nodes.size(); ++ln) {
      const auto hp = rd.host_pattern(static_cast<topology::NodeId>(ln));
      if (hp.has_value()) out.design.set_host_pattern(proj.nodes[ln], hp);
    }
    for (const auto& [lhost, service, ap] : rd.app_patterns()) {
      out.design.set_app_pattern(proj.nodes[static_cast<std::size_t>(lhost)],
                                 service, ap);
    }
  }

  // Constraint lookups for the cross-flow decisions below. `forbid[f]`
  // is a bitmask of patterns some UIC forbids on flow f; `pinned[f]`
  // marks flows a RequirePatternForFlow owns — the stitcher never
  // overrides those.
  const std::size_t flow_count = spec.flows.size();
  std::vector<std::uint8_t> service_forbid(spec.services.size(), 0);
  std::vector<std::uint8_t> flow_forbid(flow_count, 0);
  std::vector<bool> pinned(flow_count, false);
  for (const model::UserConstraint& uc : spec.user_constraints) {
    if (const auto* fs = std::get_if<model::ForbidPatternForService>(&uc)) {
      service_forbid[static_cast<std::size_t>(fs->service)] |=
          pattern_bit(fs->pattern);
    } else if (const auto* ff = std::get_if<model::ForbidPatternForFlow>(&uc)) {
      if (const auto f = spec.flows.find(ff->flow); f.has_value())
        flow_forbid[static_cast<std::size_t>(*f)] |= pattern_bit(ff->pattern);
    } else if (const auto* rf =
                   std::get_if<model::RequirePatternForFlow>(&uc)) {
      if (const auto f = spec.flows.find(rf->flow); f.has_value()) {
        pinned[static_cast<std::size_t>(*f)] = true;
        out.design.set_pattern(*f, rf->pattern);
      }
    }
  }
  const auto forbidden = [&](model::FlowId f, IsolationPattern p) {
    const std::uint8_t bit = pattern_bit(p);
    return (flow_forbid[static_cast<std::size_t>(f)] & bit) != 0 ||
           (service_forbid[static_cast<std::size_t>(
                spec.flows.flow(f).service)] &
            bit) != 0;
  };
  const auto deniable = [&](model::FlowId f) {
    return spec.isolation.is_enabled(IsolationPattern::kAccessDeny) &&
           !spec.connectivity.required(f) &&
           !forbidden(f, IsolationPattern::kAccessDeny) &&
           !pinned[static_cast<std::size_t>(f)];
  };

  // 2. DenyOneOf constraints the region solves could not see (the ones
  // they could see were projected and already hold). Prefer denying the
  // guard flow — the paper's UIC2 reading, "close the inbound door".
  for (const model::UserConstraint& uc : spec.user_constraints) {
    const auto* dn = std::get_if<model::DenyOneOf>(&uc);
    if (dn == nullptr) continue;
    const auto open = spec.flows.find(dn->open_flow);
    const auto guard = spec.flows.find(dn->guard_flow);
    if (!open.has_value() || !guard.has_value()) continue;
    const auto denied = [&](model::FlowId f) {
      return out.design.pattern(f) == IsolationPattern::kAccessDeny;
    };
    if (denied(*open) || denied(*guard)) continue;
    if (deniable(*guard)) {
      out.design.set_pattern(*guard, IsolationPattern::kAccessDeny);
    } else if (deniable(*open)) {
      out.design.set_pattern(*open, IsolationPattern::kAccessDeny);
    }
    // Neither deniable: leave it; the final check fails and the sharded
    // pipeline falls back to the monolithic solve.
  }

  // 3. Isolation-threshold escalation over the cross flows. Cross flows
  // start open (score 0) and drag the global pair average below what the
  // regions achieved, so assign patterns in deterministic flow-id-order
  // batches until the global threshold holds. Non-deny patterns first:
  // with the paper's default usability impacts (b = 1 for everything but
  // deny) they raise isolation without usability cost. IPSec-family
  // patterns are skipped — their tunnel-margin rule must hold on every
  // global route, which arbitrary cross-cut routes rarely satisfy.
  const auto best_soft_pattern =
      [&](model::FlowId f) -> std::optional<IsolationPattern> {
    std::optional<IsolationPattern> best;
    for (const IsolationPattern p : spec.isolation.enabled()) {
      if (model::denies_flow(p) || p == IsolationPattern::kTrustedComm ||
          p == IsolationPattern::kProxyTrusted) {
        continue;
      }
      if (forbidden(f, p)) continue;
      if (!best.has_value() ||
          spec.isolation.score(p) > spec.isolation.score(*best)) {
        best = p;
      }
    }
    return best;
  };

  synth::DesignMetrics metrics = synth::compute_metrics(spec, out.design);
  std::vector<model::FlowId> soft;
  for (const model::FlowId f : plan.cross_flows) {
    if (!out.design.pattern(f).has_value() &&
        !pinned[static_cast<std::size_t>(f)]) {
      soft.push_back(f);
    }
  }
  std::size_t next = 0;
  while (metrics.isolation < spec.sliders.isolation && next < soft.size()) {
    const std::size_t batch =
        std::max<std::size_t>(1, (soft.size() - next) / 4);
    for (std::size_t i = 0; i < batch && next < soft.size(); ++i, ++next) {
      if (const auto p = best_soft_pattern(soft[next]); p.has_value()) {
        out.design.set_pattern(soft[next], *p);
        ++out.escalated_flows;
      }
    }
    metrics = synth::compute_metrics(spec, out.design);
  }
  // Still short: denies on whatever cross flows may be denied, batched,
  // backing the whole batch out if it sinks usability below threshold.
  std::vector<model::FlowId> deny_pool;
  for (const model::FlowId f : plan.cross_flows) {
    if (!out.design.pattern(f).has_value() && deniable(f))
      deny_pool.push_back(f);
  }
  next = 0;
  while (metrics.isolation < spec.sliders.isolation &&
         next < deny_pool.size()) {
    const std::size_t start = next;
    const std::size_t batch =
        std::max<std::size_t>(1, (deny_pool.size() - next) / 4);
    for (std::size_t i = 0; i < batch && next < deny_pool.size();
         ++i, ++next) {
      out.design.set_pattern(deny_pool[next], IsolationPattern::kAccessDeny);
    }
    metrics = synth::compute_metrics(spec, out.design);
    if (metrics.usability < spec.sliders.usability) {
      for (std::size_t i = start; i < next; ++i)
        out.design.set_pattern(deny_pool[i], std::nullopt);
      metrics = synth::compute_metrics(spec, out.design);
      break;
    }
    out.escalated_flows += static_cast<int>(next - start);
  }

  // 4. Global route-coverage repair (eq. 1/7). Region solves covered the
  // routes of their own route tables; the global table adds cross-cut
  // routes and inter-region detours of intra pairs. Prefer placing on a
  // cut link: every cross-region route crosses at least one, so a single
  // device there covers many flows.
  std::vector<bool> is_cut(spec.network.link_count(), false);
  for (const topology::LinkId l : plan.partition.cut_links)
    is_cut[static_cast<std::size_t>(l)] = true;
  const auto place = [&](topology::LinkId link, model::DeviceType d) {
    if (out.design.placed(link, d)) return;
    out.design.set_placed(link, d, true);
    ++out.repair_placements;
  };
  const auto pick_link = [&](const topology::Route& r, std::size_t from,
                             std::size_t count) {
    for (std::size_t t = from; t < from + count; ++t)
      if (is_cut[static_cast<std::size_t>(r.links[t])]) return r.links[t];
    return r.links[from + count / 2];
  };
  topology::RouteTable routes(spec.network, spec.route_options);
  const auto margin = static_cast<std::size_t>(spec.isolation.tunnel_margin());
  for (std::size_t fi = 0; fi < flow_count; ++fi) {
    const auto f = static_cast<model::FlowId>(fi);
    const auto chosen = out.design.pattern(f);
    if (!chosen.has_value()) continue;
    const model::Flow& flow = spec.flows.flow(f);
    for (const model::DeviceType d : model::devices_for(*chosen)) {
      for (const topology::Route& r : routes.routes(flow.src, flow.dst)) {
        if (d == model::DeviceType::kIpsec) {
          // A global route shorter than 2T+1 is unfixable here; the
          // final check reports it and the pipeline falls back.
          if (r.length() < 2 * margin + 1) continue;
          const auto any_in = [&](std::size_t from, std::size_t count) {
            for (std::size_t t = from; t < from + count; ++t)
              if (out.design.placed(r.links[t], d)) return true;
            return false;
          };
          if (!any_in(0, margin)) place(pick_link(r, 0, margin), d);
          if (!any_in(r.length() - margin, margin))
            place(pick_link(r, r.length() - margin, margin), d);
        } else {
          const bool covered = std::any_of(
              r.links.begin(), r.links.end(),
              [&](topology::LinkId e) { return out.design.placed(e, d); });
          if (!covered) place(pick_link(r, 0, r.length()), d);
        }
      }
    }
  }

  // 5. The authoritative global verdict.
  out.report = analysis::check_design(spec, out.design, routes, true);
  out.ok = out.report.ok();
  if (!out.ok) out.failure = out.report.issues.front();
  return out;
}

}  // namespace cs::shard
