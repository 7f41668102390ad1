// Unit and property tests for the topology substrate.
#include <gtest/gtest.h>

#include <set>

#include "topology/generator.h"
#include "topology/graphviz.h"
#include "topology/network.h"
#include "topology/routes.h"
#include "util/error.h"
#include "util/rng.h"

namespace cs::topology {
namespace {

Network tiny_network() {
  // h1 - r1 - r2 - h2 with a parallel core path r1 - r3 - r2.
  Network net;
  const NodeId h1 = net.add_host("h1");
  const NodeId h2 = net.add_host("h2");
  const NodeId r1 = net.add_router("r1");
  const NodeId r2 = net.add_router("r2");
  const NodeId r3 = net.add_router("r3");
  net.add_link(h1, r1);
  net.add_link(r1, r2);
  net.add_link(r2, h2);
  net.add_link(r1, r3);
  net.add_link(r3, r2);
  return net;
}

TEST(Network, BasicConstruction) {
  const Network net = tiny_network();
  EXPECT_EQ(net.host_count(), 2u);
  EXPECT_EQ(net.router_count(), 3u);
  EXPECT_EQ(net.link_count(), 5u);
  EXPECT_TRUE(net.connected());
  EXPECT_NO_THROW(net.validate());
}

TEST(Network, RejectsSelfLoopAndParallel) {
  Network net;
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  net.add_link(a, b);
  EXPECT_THROW(net.add_link(a, a), util::SpecError);
  EXPECT_THROW(net.add_link(b, a), util::SpecError);
}

TEST(Network, LinkOther) {
  Network net;
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const LinkId l = net.add_link(a, b);
  EXPECT_EQ(net.link(l).other(a), b);
  EXPECT_EQ(net.link(l).other(b), a);
}

TEST(Network, FindLink) {
  const Network net = tiny_network();
  EXPECT_TRUE(net.find_link(0, 2).has_value());  // h1-r1
  EXPECT_FALSE(net.find_link(0, 1).has_value());
}

TEST(Network, DisconnectedFailsValidate) {
  Network net;
  net.add_host("a");
  net.add_host("b");
  EXPECT_FALSE(net.connected());
  EXPECT_THROW(net.validate(), util::SpecError);
}

TEST(Network, InternetFlag) {
  Network net;
  const NodeId i = net.add_internet();
  EXPECT_TRUE(net.node(i).is_internet);
  EXPECT_TRUE(net.is_host(i));
}

/// The one shortest route between hosts 0 and 1.
Route shortest(const Network& net) {
  RouteOptions opts;
  opts.max_routes = 1;
  const std::vector<Route> routes = k_shortest_routes(net, 0, 1, opts);
  CS_ENSURE(routes.size() == 1, "expected exactly one route");
  return routes.front();
}

TEST(Routes, ShortestRouteFound) {
  const Network net = tiny_network();
  const Route r = shortest(net);
  ASSERT_EQ(r.length(), 3u);  // h1-r1-r2-h2
  EXPECT_EQ(r.nodes.front(), 0);
  EXPECT_EQ(r.nodes.back(), 1);
}

TEST(Routes, KShortestFindsBothCorePaths) {
  const Network net = tiny_network();
  RouteOptions opts;
  opts.max_routes = 8;
  const auto routes = k_shortest_routes(net, 0, 1, opts);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].length(), 3u);
  EXPECT_EQ(routes[1].length(), 4u);  // via r3
}

TEST(Routes, AllSimpleMatchesKShortestOnSmallNets) {
  const Network net = tiny_network();
  RouteOptions opts;
  opts.max_routes = RouteOptions::kAllRoutes;
  const auto all = all_simple_routes(net, 0, 1, opts);
  const auto kshort = k_shortest_routes(net, 0, 1, opts);
  EXPECT_EQ(all.size(), kshort.size());
}

TEST(Routes, RoutesNeverTransitHosts) {
  util::Rng rng(11);
  GeneratorConfig cfg;
  cfg.hosts = 8;
  cfg.routers = 6;
  const Network net = generate_topology(cfg, rng);
  RouteOptions opts;
  opts.max_routes = 6;
  for (const NodeId a : net.hosts()) {
    for (const NodeId b : net.hosts()) {
      if (a == b) continue;
      for (const Route& r : k_shortest_routes(net, a, b, opts)) {
        for (std::size_t i = 1; i + 1 < r.nodes.size(); ++i)
          EXPECT_TRUE(net.is_router(r.nodes[i]));
      }
    }
  }
}

TEST(Routes, RoutesAreSimpleAndConsistent) {
  util::Rng rng(13);
  GeneratorConfig cfg;
  cfg.hosts = 6;
  cfg.routers = 8;
  cfg.extra_core_link_ratio = 1.0;
  const Network net = generate_topology(cfg, rng);
  RouteOptions opts;
  opts.max_routes = 10;
  for (const NodeId a : net.hosts()) {
    for (const NodeId b : net.hosts()) {
      if (a >= b) continue;
      for (const Route& r : k_shortest_routes(net, a, b, opts)) {
        // Links consistent with node sequence.
        ASSERT_EQ(r.links.size() + 1, r.nodes.size());
        for (std::size_t i = 0; i < r.links.size(); ++i) {
          const Link& l = net.link(r.links[i]);
          EXPECT_TRUE((l.a == r.nodes[i] && l.b == r.nodes[i + 1]) ||
                      (l.b == r.nodes[i] && l.a == r.nodes[i + 1]));
        }
        // No repeated nodes.
        std::set<NodeId> unique(r.nodes.begin(), r.nodes.end());
        EXPECT_EQ(unique.size(), r.nodes.size());
      }
    }
  }
}

TEST(Routes, KShortestSortedByLength) {
  util::Rng rng(17);
  GeneratorConfig cfg;
  cfg.hosts = 5;
  cfg.routers = 7;
  cfg.extra_core_link_ratio = 1.5;
  const Network net = generate_topology(cfg, rng);
  RouteOptions opts;
  opts.max_routes = 6;
  const auto& hosts = net.hosts();
  const auto routes = k_shortest_routes(net, hosts[0], hosts[1], opts);
  for (std::size_t i = 1; i < routes.size(); ++i)
    EXPECT_LE(routes[i - 1].length(), routes[i].length());
}

TEST(Routes, MaxHopsHonored) {
  const Network net = tiny_network();
  RouteOptions opts;
  opts.max_routes = 8;
  opts.max_hops = 3;
  const auto routes = k_shortest_routes(net, 0, 1, opts);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_LE(routes[0].length(), 3u);
}

TEST(Routes, ReversedRoute) {
  const Network net = tiny_network();
  const Route r = shortest(net);
  const Route rev = r.reversed();
  EXPECT_EQ(rev.nodes.front(), 1);
  EXPECT_EQ(rev.nodes.back(), 0);
  EXPECT_EQ(rev.links.size(), r.links.size());
}

TEST(RouteTable, CachesAndMirrors) {
  const Network net = tiny_network();
  RouteTable table(net, RouteOptions{});
  const auto& fwd = table.routes(0, 1);
  const auto& rev = table.routes(1, 0);
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t i = 0; i < fwd.size(); ++i)
    EXPECT_EQ(fwd[i].reversed(), rev[i]);
  EXPECT_EQ(table.pairs_computed(), 1u);
}

TEST(RouteTable, PairRoutesIndependentOfQueryDirection) {
  // Yen's search keeps a direction-dependent subset of the equal-length
  // routes, and the encoder, check_design and the shard stitcher fill
  // their own tables in different directions. Two fresh tables queried
  // in opposite orders must still agree on every pair's routes.
  const Network net = make_paper_example();
  const std::vector<NodeId>& hosts = net.hosts();
  RouteTable low_first(net, RouteOptions{});
  RouteTable high_first(net, RouteOptions{});
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      (void)low_first.routes(hosts[i], hosts[j]);
      (void)high_first.routes(hosts[j], hosts[i]);
    }
  }
  for (const NodeId a : hosts) {
    for (const NodeId b : hosts) {
      if (a == b) continue;
      const std::vector<Route>& ab = low_first.routes(a, b);
      EXPECT_EQ(ab, high_first.routes(a, b)) << a << "->" << b;
      const std::vector<Route>& ba = low_first.routes(b, a);
      ASSERT_EQ(ab.size(), ba.size());
      for (std::size_t r = 0; r < ab.size(); ++r)
        EXPECT_EQ(ab[r].reversed(), ba[r]);
    }
  }
}

/// h1 dual-homed to r1 and r2, h2 on r3, both r1 and r2 linked to r3;
/// `r2_first` lists h1's uplink to r2 first.
Network dual_homed(bool r2_first) {
  Network net;
  const NodeId h1 = net.add_host("h1");
  const NodeId h2 = net.add_host("h2");
  const NodeId r1 = net.add_router("r1");
  const NodeId r2 = net.add_router("r2");
  const NodeId r3 = net.add_router("r3");
  net.add_link(r1, r3);
  net.add_link(r2, r3);
  net.add_link(h2, r3);
  net.add_link(h1, r2_first ? r2 : r1);
  net.add_link(h1, r2_first ? r1 : r2);
  return net;
}

TEST(RouteTable, CarriesOnlyWhatASearchCannotTellApart) {
  // The predecessor constructor carries a pair only when a fresh search
  // could not tell the two networks apart (docs/DELTAS.md).
  const Network net = tiny_network();
  RouteTable prev(net, RouteOptions{});
  const std::vector<Route> routes = prev.routes(0, 1);

  RouteTable same(net, RouteOptions{}, prev);
  EXPECT_EQ(same.pairs_computed(), 1u);
  EXPECT_EQ(same.routes(0, 1), routes);

  // Other options: a fresh search keeps a different route set.
  RouteTable one_route(net, RouteOptions{.max_routes = 1}, prev);
  EXPECT_EQ(one_route.pairs_computed(), 0u);
  EXPECT_EQ(one_route.routes(0, 1).size(), 1u);

  // The same graph with r2 and r3 declared in the other order:
  // equal-length routes tie by router id, so nothing is carried.
  Network swapped;
  const NodeId h1 = swapped.add_host("h1");
  const NodeId h2 = swapped.add_host("h2");
  const NodeId r1 = swapped.add_router("r1");
  const NodeId r3 = swapped.add_router("r3");
  const NodeId r2 = swapped.add_router("r2");
  swapped.add_link(h1, r1);
  swapped.add_link(r1, r2);
  swapped.add_link(r2, h2);
  swapped.add_link(r1, r3);
  swapped.add_link(r3, r2);
  RouteTable reordered(swapped, RouteOptions{}, prev);
  EXPECT_EQ(reordered.pairs_computed(), 0u);
  RouteTable fresh(swapped, RouteOptions{});
  EXPECT_EQ(reordered.routes(h1, h2), fresh.routes(h1, h2));

  // Only h1's own uplink order differs: its search tries r2 first, so
  // its two equal-length routes come out in the other order.
  const Network r1_first = dual_homed(false);
  const Network r2_first = dual_homed(true);
  RouteTable before(r1_first, RouteOptions{});
  (void)before.routes(0, 1);
  RouteTable after(r2_first, RouteOptions{}, before);
  EXPECT_EQ(after.pairs_computed(), 0u);
  RouteTable fresh_after(r2_first, RouteOptions{});
  EXPECT_NE(before.routes(0, 1), fresh_after.routes(0, 1));
  EXPECT_EQ(after.routes(0, 1), fresh_after.routes(0, 1));
}

TEST(Generator, ProducesValidNetworks) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed);
    GeneratorConfig cfg;
    cfg.hosts = static_cast<int>(rng.uniform(2, 30));
    cfg.routers = static_cast<int>(rng.uniform(1, 15));
    const Network net = generate_topology(cfg, rng);
    EXPECT_EQ(net.host_count(), static_cast<std::size_t>(cfg.hosts));
    EXPECT_EQ(net.router_count(), static_cast<std::size_t>(cfg.routers));
    EXPECT_TRUE(net.connected());
  }
}

TEST(Generator, InternetIncluded) {
  util::Rng rng(5);
  GeneratorConfig cfg;
  cfg.include_internet = true;
  const Network net = generate_topology(cfg, rng);
  bool found = false;
  for (const NodeId h : net.hosts()) found |= net.node(h).is_internet;
  EXPECT_TRUE(found);
}

TEST(Generator, PaperExampleShape) {
  const Network net = make_paper_example();
  EXPECT_EQ(net.host_count(), 10u);
  EXPECT_EQ(net.router_count(), 8u);
  EXPECT_TRUE(net.connected());
  // The ring gives at least two routes between user and server subnets.
  RouteOptions opts;
  opts.max_routes = 4;
  const auto routes =
      k_shortest_routes(net, net.hosts()[0], net.hosts()[4], opts);
  EXPECT_GE(routes.size(), 2u);
}

TEST(Graphviz, EmitsNodesAndLabels) {
  const Network net = tiny_network();
  const std::string plain = to_dot(net);
  EXPECT_NE(plain.find("graph network"), std::string::npos);
  EXPECT_NE(plain.find("h1"), std::string::npos);
  const std::string labeled = to_dot(net, {{0, "FW"}});
  EXPECT_NE(labeled.find("FW"), std::string::npos);
}

}  // namespace
}  // namespace cs::topology
