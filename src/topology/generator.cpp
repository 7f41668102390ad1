#include "topology/generator.h"

#include <string>
#include <vector>

#include "util/strings.h"

namespace cs::topology {

Network generate_topology(const GeneratorConfig& config, util::Rng& rng) {
  CS_REQUIRE(config.hosts >= 2, "generator: need at least 2 hosts");
  CS_REQUIRE(config.routers >= 1, "generator: need at least 1 router");
  CS_REQUIRE(config.extra_core_link_ratio >= 0,
             "generator: negative link ratio");

  Network net;
  std::vector<NodeId> routers;
  routers.reserve(static_cast<std::size_t>(config.routers));
  for (int r = 0; r < config.routers; ++r)
    routers.push_back(
        net.add_router(util::concat({"r", std::to_string(r + 1)})));

  // Random spanning tree over routers: attach each new router to a random
  // earlier one (uniform random recursive tree).
  for (int r = 1; r < config.routers; ++r) {
    const auto parent = static_cast<std::size_t>(rng.uniform(0, r - 1));
    net.add_link(routers[static_cast<std::size_t>(r)], routers[parent]);
  }

  // Extra core links create alternative routing paths.
  const int extras = static_cast<int>(config.extra_core_link_ratio *
                                          config.routers +
                                      0.5);
  int added = 0;
  int attempts = 0;
  const int max_attempts = 50 * (extras + 1);
  while (added < extras && attempts++ < max_attempts &&
         config.routers >= 2) {
    const NodeId a = rng.pick(routers);
    const NodeId b = rng.pick(routers);
    if (a == b || net.has_link(a, b)) continue;
    net.add_link(a, b);
    ++added;
  }

  // Hosts attach to edge routers.
  for (int h = 0; h < config.hosts; ++h) {
    const NodeId host =
        net.add_host(util::concat({"h", std::to_string(h + 1)}));
    const NodeId uplink = rng.pick(routers);
    net.add_link(host, uplink);
    if (config.routers >= 2 && rng.chance(config.dual_homing_prob)) {
      NodeId second = uplink;
      for (int tries = 0; tries < 8 && second == uplink; ++tries)
        second = rng.pick(routers);
      if (second != uplink) net.add_link(host, second);
    }
  }

  if (config.include_internet) {
    const NodeId inet = net.add_internet();
    net.add_link(inet, routers.front());
  }

  net.validate();
  return net;
}

Network make_paper_example() {
  Network net;
  // Core: 8 routers. r1-r2-r3-r4 form a ring (redundant core paths);
  // r5..r8 are edge routers.
  std::vector<NodeId> r;
  r.push_back(kInvalidNode);  // 1-based indexing convenience
  for (int i = 1; i <= 8; ++i)
    r.push_back(net.add_router(util::concat({"r", std::to_string(i)})));
  net.add_link(r[1], r[2]);
  net.add_link(r[2], r[3]);
  net.add_link(r[3], r[4]);
  net.add_link(r[4], r[1]);
  net.add_link(r[1], r[5]);
  net.add_link(r[2], r[6]);
  net.add_link(r[3], r[7]);
  net.add_link(r[4], r[8]);
  // A cross link so some pairs have three distinct core routes.
  net.add_link(r[5], r[6]);

  // Hosts: h1..h4 on r5/r6 (user subnets), h5..h8 on r7 (server subnet),
  // h9..h10 on r8 (DMZ).
  std::vector<NodeId> h;
  h.push_back(kInvalidNode);
  for (int i = 1; i <= 10; ++i)
    h.push_back(net.add_host(util::concat({"h", std::to_string(i)})));
  net.add_link(h[1], r[5]);
  net.add_link(h[2], r[5]);
  net.add_link(h[3], r[6]);
  net.add_link(h[4], r[6]);
  net.add_link(h[5], r[7]);
  net.add_link(h[6], r[7]);
  net.add_link(h[7], r[7]);
  net.add_link(h[8], r[7]);
  net.add_link(h[9], r[8]);
  net.add_link(h[10], r[8]);

  net.validate();
  return net;
}

}  // namespace cs::topology
