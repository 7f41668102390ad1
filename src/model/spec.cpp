#include "model/spec.h"

#include <algorithm>
#include <string>

#include "util/error.h"
#include "util/strings.h"

namespace cs::model {

void ProblemSpec::finalize() {
  if (ranks.size() != flows.size()) ranks = FlowRanks::uniform(flows);
}

void ProblemSpec::validate() const {
  network.validate();
  sliders.validate();
  CS_REQUIRE(!flows.empty(), "spec has no flows to decide over");
  CS_REQUIRE(ranks.size() == flows.size(),
             "spec ranks not finalized (call finalize())");
  CS_REQUIRE(!isolation.enabled().empty(), "no isolation patterns enabled");
  CS_REQUIRE(alpha >= util::Fixed{} && alpha <= util::Fixed::from_int(1),
             "alpha must lie in [0, 1]");

  for (const Flow& f : flows.all()) {
    CS_REQUIRE(f.src >= 0 &&
                   f.src < static_cast<topology::NodeId>(network.node_count()),
               "flow source out of range");
    CS_REQUIRE(f.dst >= 0 &&
                   f.dst < static_cast<topology::NodeId>(network.node_count()),
               "flow destination out of range");
    CS_REQUIRE(network.is_host(f.src) && network.is_host(f.dst),
               "flow endpoints must be hosts");
    CS_REQUIRE(f.service >= 0 &&
                   f.service < static_cast<ServiceId>(services.size()),
               "flow references unknown service");
  }
  for (const FlowId id : connectivity.sorted()) {
    CS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < flows.size(),
               "connectivity requirement references unknown flow");
  }
  for (const HostIsolationRequirement& req : host_requirements) {
    CS_REQUIRE(req.host >= 0 &&
                   req.host <
                       static_cast<topology::NodeId>(network.node_count()) &&
                   network.is_host(req.host),
               "host isolation requirement targets a non-host node");
    CS_REQUIRE(req.min_isolation >= util::Fixed{} &&
                   req.min_isolation <= kSliderMax,
               "host isolation requirement out of [0, 10]");
  }
  for (const UserConstraint& uc : user_constraints) {
    if (const auto* req = std::get_if<RequirePatternForFlow>(&uc)) {
      CS_REQUIRE(flows.find(req->flow).has_value(),
                 "RequirePatternForFlow references unknown flow");
      CS_REQUIRE(isolation.is_enabled(req->pattern),
                 "RequirePatternForFlow uses a disabled pattern");
      // A pinned access-deny on a required flow is contradictory by IIC2;
      // catch it here with a message instead of an opaque UNSAT.
      if (denies_flow(req->pattern)) {
        const FlowId id = *flows.find(req->flow);
        CS_REQUIRE(!connectivity.required(id),
                   "user constraint denies a connectivity requirement");
      }
    } else if (const auto* deny = std::get_if<DenyOneOf>(&uc)) {
      CS_REQUIRE(flows.find(deny->open_flow).has_value(),
                 "DenyOneOf references unknown open flow");
      CS_REQUIRE(flows.find(deny->guard_flow).has_value(),
                 "DenyOneOf references unknown guard flow");
    } else if (const auto* fps = std::get_if<ForbidPatternForService>(&uc)) {
      CS_REQUIRE(fps->service >= 0 &&
                     fps->service < static_cast<ServiceId>(services.size()),
                 "ForbidPatternForService references unknown service");
    } else if (const auto* fpf = std::get_if<ForbidPatternForFlow>(&uc)) {
      CS_REQUIRE(flows.find(fpf->flow).has_value(),
                 "ForbidPatternForFlow references unknown flow");
    }
  }
}

void add_standard_services(ServiceCatalog& catalog) {
  catalog.add("WEB", 6, 80);
  catalog.add("SSH", 6, 22);
  catalog.add("DNS", 17, 53);
  catalog.add("SMTP", 6, 25);
  catalog.add("DB", 6, 3306);
  catalog.add("FTP", 6, 21);
}

void populate_random_workload(ProblemSpec& spec, const WorkloadConfig& config,
                              util::Rng& rng) {
  CS_REQUIRE(config.service_count >= 1, "workload: no services");
  CS_REQUIRE(config.min_services_per_pair >= 1 &&
                 config.min_services_per_pair <= config.max_services_per_pair,
             "workload: bad services-per-pair range");
  CS_REQUIRE(config.max_services_per_pair <= config.service_count,
             "workload: more flows per pair than services");
  CS_REQUIRE(config.pair_density > 0 && config.pair_density <= 1,
             "workload: pair density must lie in (0, 1]");
  CS_REQUIRE(config.cr_fraction >= 0 && config.cr_fraction <= 1,
             "workload: cr fraction must lie in [0, 1]");

  for (int s = 0; s < config.service_count; ++s)
    spec.services.add(util::concat({"g", std::to_string(s + 1)}), 6,
                      1024 + s);

  // Flows: for each ordered host pair, draw 1..max services (paper §V:
  // "randomly choose 1-3 services between a pair of hosts").
  std::vector<ServiceId> palette(
      static_cast<std::size_t>(config.service_count));
  for (int s = 0; s < config.service_count; ++s)
    palette[static_cast<std::size_t>(s)] = s;

  const auto& hosts = spec.network.hosts();
  for (const topology::NodeId i : hosts) {
    for (const topology::NodeId j : hosts) {
      if (i == j) continue;
      if (!rng.chance(config.pair_density)) continue;
      const auto n = static_cast<std::size_t>(
          rng.uniform(config.min_services_per_pair,
                      config.max_services_per_pair));
      rng.shuffle(palette);
      for (std::size_t s = 0; s < n; ++s)
        spec.flows.add(Flow{i, j, palette[s]});
    }
  }
  CS_REQUIRE(!spec.flows.empty(),
             "workload produced no flows (density too low?)");

  // Connectivity requirements: a uniform sample of cr_fraction of flows.
  const auto target = static_cast<std::size_t>(
      config.cr_fraction * static_cast<double>(spec.flows.size()) + 0.5);
  std::vector<FlowId> ids(spec.flows.size());
  for (std::size_t f = 0; f < ids.size(); ++f)
    ids[f] = static_cast<FlowId>(f);
  rng.shuffle(ids);
  for (std::size_t f = 0; f < target && f < ids.size(); ++f)
    spec.connectivity.add(ids[f]);

  spec.finalize();
}

}  // namespace cs::model
