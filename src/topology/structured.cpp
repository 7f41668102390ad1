#include "topology/structured.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace cs::topology {
namespace {

// Attaches `hosts` logical hosts named h1..hN under `switches` in
// contiguous blocks: host h (0-based) uplinks to switch h*S/H. Block
// assignment keeps adjacent host indices on the same (or a neighboring)
// switch, which is what gives the scale workloads their locality.
void attach_hosts_in_blocks(Network& net, const std::vector<NodeId>& switches,
                            int hosts) {
  CS_REQUIRE(!switches.empty(), "structured topology has no access switches");
  const auto count = static_cast<long long>(switches.size());
  for (int h = 0; h < hosts; ++h) {
    const auto sw = static_cast<std::size_t>(
        static_cast<long long>(h) * count / std::max(1, hosts));
    const NodeId id =
        net.add_host(util::concat({"h", std::to_string(h + 1)}));
    net.add_link(id, switches[std::min<std::size_t>(sw, switches.size() - 1)]);
  }
}

}  // namespace

std::string_view topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kMesh:
      return "mesh";
    case TopologyKind::kFatTree:
      return "fat-tree";
    case TopologyKind::kCampus:
      return "campus";
    case TopologyKind::kIsp:
      return "isp";
  }
  throw util::InternalError("unknown TopologyKind");
}

TopologyKind topology_kind_from_name(std::string_view name) {
  if (name == "mesh") return TopologyKind::kMesh;
  if (name == "fat-tree" || name == "fattree") return TopologyKind::kFatTree;
  if (name == "campus") return TopologyKind::kCampus;
  if (name == "isp") return TopologyKind::kIsp;
  throw util::SpecError("unknown topology kind: " + std::string(name) +
                        " (expected mesh, fat-tree, campus, or isp)");
}

Network make_fat_tree(const FatTreeConfig& config) {
  CS_REQUIRE(config.k >= 2 && config.k % 2 == 0,
             "fat-tree arity k must be even and >= 2");
  CS_REQUIRE(config.hosts >= 0, "fat-tree host count must be >= 0");
  const int k = config.k;
  const int half = k / 2;
  Network net;

  // (k/2)^2 core switches, grouped so group g serves aggregation slot g of
  // every pod.
  std::vector<NodeId> cores;
  cores.reserve(static_cast<std::size_t>(half) * half);
  for (int c = 0; c < half * half; ++c)
    cores.push_back(
        net.add_router(util::concat({"c", std::to_string(c + 1)})));

  std::vector<NodeId> edges;
  edges.reserve(static_cast<std::size_t>(k) * half);
  for (int p = 0; p < k; ++p) {
    const std::string pod = util::concat({"p", std::to_string(p + 1)});
    std::vector<NodeId> aggs;
    aggs.reserve(half);
    for (int a = 0; a < half; ++a) {
      const NodeId agg = net.add_router(
          util::concat({pod, "a", std::to_string(a + 1)}));
      aggs.push_back(agg);
      // Aggregation slot a uplinks to core group a.
      for (int c = 0; c < half; ++c)
        net.add_link(agg, cores[static_cast<std::size_t>(a) * half + c]);
    }
    for (int e = 0; e < half; ++e) {
      const NodeId edge = net.add_router(
          util::concat({pod, "e", std::to_string(e + 1)}));
      edges.push_back(edge);
      for (const NodeId agg : aggs) net.add_link(edge, agg);
    }
  }

  attach_hosts_in_blocks(net, edges, config.hosts);
  net.validate();
  return net;
}

Network make_campus(const CampusConfig& config) {
  CS_REQUIRE(config.cores >= 1, "campus needs at least one core router");
  CS_REQUIRE(config.buildings >= 1, "campus needs at least one building");
  CS_REQUIRE(config.access_per_building >= 1,
             "campus needs at least one access router per building");
  CS_REQUIRE(config.hosts >= 0, "campus host count must be >= 0");
  Network net;

  std::vector<NodeId> cores;
  cores.reserve(config.cores);
  for (int c = 0; c < config.cores; ++c)
    cores.push_back(
        net.add_router(util::concat({"core", std::to_string(c + 1)})));
  // Core ring (a single link when cores == 2, nothing when cores == 1).
  if (config.cores == 2) {
    net.add_link(cores[0], cores[1]);
  } else if (config.cores > 2) {
    for (int c = 0; c < config.cores; ++c)
      net.add_link(cores[c], cores[(c + 1) % config.cores]);
  }

  std::vector<NodeId> access;
  access.reserve(static_cast<std::size_t>(config.buildings) *
                 config.access_per_building);
  for (int b = 0; b < config.buildings; ++b) {
    const std::string bld = util::concat({"b", std::to_string(b + 1)});
    const NodeId dist = net.add_router(bld + "d");
    // Dual-home each distribution router to two (distinct, when possible)
    // cores.
    net.add_link(dist, cores[b % config.cores]);
    if (config.cores > 1) net.add_link(dist, cores[(b + 1) % config.cores]);
    for (int a = 0; a < config.access_per_building; ++a) {
      const NodeId acc = net.add_router(
          util::concat({bld, "a", std::to_string(a + 1)}));
      net.add_link(acc, dist);
      access.push_back(acc);
    }
  }

  attach_hosts_in_blocks(net, access, config.hosts);
  if (config.include_internet) {
    const NodeId inet = net.add_internet();
    net.add_link(inet, cores[0]);
  }
  net.validate();
  return net;
}

Network make_isp(const IspConfig& config) {
  CS_REQUIRE(config.core >= 1, "isp needs at least one backbone router");
  CS_REQUIRE(config.aggregation >= 1,
             "isp needs at least one aggregation router");
  CS_REQUIRE(config.edge >= 1, "isp needs at least one edge router");
  CS_REQUIRE(config.hosts >= 0, "isp host count must be >= 0");
  Network net;

  std::vector<NodeId> backbone;
  backbone.reserve(config.core);
  for (int c = 0; c < config.core; ++c)
    backbone.push_back(
        net.add_router(util::concat({"bb", std::to_string(c + 1)})));
  for (int a = 0; a < config.core; ++a)
    for (int b = a + 1; b < config.core; ++b)
      net.add_link(backbone[a], backbone[b]);

  std::vector<NodeId> aggs;
  aggs.reserve(config.aggregation);
  for (int a = 0; a < config.aggregation; ++a) {
    const NodeId agg =
        net.add_router(util::concat({"agg", std::to_string(a + 1)}));
    aggs.push_back(agg);
    net.add_link(agg, backbone[a % config.core]);
    if (config.core > 1) net.add_link(agg, backbone[(a + 1) % config.core]);
  }

  std::vector<NodeId> edges;
  edges.reserve(config.edge);
  for (int e = 0; e < config.edge; ++e) {
    const NodeId edge =
        net.add_router(util::concat({"e", std::to_string(e + 1)}));
    edges.push_back(edge);
    net.add_link(edge, aggs[e % config.aggregation]);
    if (config.aggregation > 1)
      net.add_link(edge, aggs[(e + 1) % config.aggregation]);
  }

  attach_hosts_in_blocks(net, edges, config.hosts);
  if (config.include_internet) {
    const NodeId inet = net.add_internet();
    net.add_link(inet, backbone[0]);
  }
  net.validate();
  return net;
}

Network make_structured(TopologyKind kind, int hosts, std::uint64_t seed) {
  CS_REQUIRE(hosts >= 1, "structured topology needs at least one host");
  switch (kind) {
    case TopologyKind::kMesh: {
      GeneratorConfig config;
      config.hosts = hosts;
      config.routers = std::clamp(8 + hosts / 5, 8, 64);
      util::Rng rng(seed);
      return generate_topology(config, rng);
    }
    case TopologyKind::kFatTree: {
      // Smallest even k whose edge layer (k^2/2 switches) keeps the
      // per-switch host block modest (<= k/2 hosts per edge switch, the
      // classic full fat-tree fill of k^3/4 hosts).
      int k = 4;
      while (k < 64 && k * k * k / 4 < hosts) k += 2;
      return make_fat_tree({.k = k, .hosts = hosts});
    }
    case TopologyKind::kCampus: {
      CampusConfig config;
      config.cores = hosts >= 200 ? 4 : 2;
      config.buildings = std::clamp(hosts / 24 + 1, 2, 40);
      config.access_per_building = 2;
      config.hosts = hosts;
      return make_campus(config);
    }
    case TopologyKind::kIsp: {
      IspConfig config;
      config.core = std::clamp(3 + hosts / 150, 3, 12);
      config.aggregation = 2 * config.core;
      config.edge = std::clamp(hosts / 8 + 2, 4, 256);
      config.hosts = hosts;
      return make_isp(config);
    }
  }
  throw util::InternalError("unknown TopologyKind");
}

}  // namespace cs::topology
