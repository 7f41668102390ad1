// Flow-route enumeration (paper §III-C, "Modeling Flow Routes").
//
// A flow route F^z_{i,j} is a loop-free path of links from source host i to
// destination host j whose intermediate nodes are routers (traffic never
// transits another host). The device-placement constraints quantify over
// *all* routes of a pair, so the encoder needs the complete (or bounded)
// route set per ordered host pair.
//
// Enumerating all simple paths is exponential in dense cores, so the default
// policy enumerates the k shortest loop-free routes (Yen's algorithm over
// unit link weights); `kAllRoutes` removes the bound (subject to a safety
// cap). DESIGN.md §6.2 discusses the trade-off and bench A3 measures it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topology/network.h"

namespace cs::topology {

/// One loop-free path: nodes[0] = src, nodes.back() = dst,
/// links[t] joins nodes[t] and nodes[t+1].
struct Route {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;

  /// Path length |F^z_{i,j}| — the number of links (hops).
  std::size_t length() const { return links.size(); }

  /// Same path traversed dst→src.
  Route reversed() const;

  bool operator==(const Route&) const = default;
};

struct RouteOptions {
  /// Maximum number of routes kept per ordered pair.
  std::size_t max_routes = 4;
  /// Hard cap on path length in links; 0 = no limit.
  std::size_t max_hops = 0;

  /// Sentinel for "enumerate every simple route" (still bounded by an
  /// internal safety cap of 1024 to keep the encoder finite).
  static constexpr std::size_t kAllRoutes = 1024;

  bool operator==(const RouteOptions&) const = default;
};

/// Yen's k-shortest loop-free routes (unit weights), sorted by length then
/// discovery order. Honors opts.max_hops.
std::vector<Route> k_shortest_routes(const Network& net, NodeId src,
                                     NodeId dst, const RouteOptions& opts);

/// Exhaustive DFS over simple router-interior paths, capped at
/// opts.max_routes results (use RouteOptions::kAllRoutes for "all").
std::vector<Route> all_simple_routes(const Network& net, NodeId src,
                                     NodeId dst, const RouteOptions& opts);

/// Caches routes per ordered host pair. Each unordered pair is enumerated
/// once, from its lower node id; the other direction is served by
/// reversing those routes (valid for undirected links), so a pair's route
/// set never depends on which direction was queried first.
class RouteTable {
 public:
  RouteTable(const Network& net, RouteOptions opts);

  /// Starts from `prev`, a table over an earlier version of the network,
  /// carrying every pair `prev` enumerated whose two hosts survive, with
  /// node and link ids remapped by node name. It carries only when the
  /// options are equal and, with added and removed hosts and their links
  /// set aside, the two networks are the same graph under an
  /// order-preserving name map with the same neighbour order at every
  /// node; otherwise it carries nothing. A route search cannot tell such
  /// networks apart (docs/DELTAS.md), so the table always equals a fresh
  /// RouteTable(net, opts). `prev` is read only here.
  RouteTable(const Network& net, RouteOptions opts, const RouteTable& prev);

  /// Routes from src to dst (both must be hosts). Computed lazily.
  const std::vector<Route>& routes(NodeId src, NodeId dst);

  /// Number of distinct unordered pairs enumerated or carried so far.
  std::size_t pairs_computed() const { return cache_.size() / 2; }

 private:
  const Network& net_;
  RouteOptions opts_;
  std::unordered_map<std::uint64_t, std::vector<Route>> cache_;
};

}  // namespace cs::topology
