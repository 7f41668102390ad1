#include "topology/routes.h"

#include <algorithm>
#include <deque>
#include <set>

namespace cs::topology {

Route Route::reversed() const {
  Route r;
  r.nodes.assign(nodes.rbegin(), nodes.rend());
  r.links.assign(links.rbegin(), links.rend());
  return r;
}

namespace {

/// True if `n` may appear strictly inside a path: routers only.
bool interior_ok(const Network& net, NodeId n) { return net.is_router(n); }

/// BFS shortest path with per-call banned nodes/links (for Yen's spur
/// computation). Returns an empty route when dst is unreachable.
Route bfs_route(const Network& net, NodeId src, NodeId dst,
                const std::vector<char>& banned_node,
                const std::vector<char>& banned_link) {
  std::vector<NodeId> parent_node(net.node_count(), kInvalidNode);
  std::vector<LinkId> parent_link(net.node_count(), kInvalidLink);
  std::vector<char> seen(net.node_count(), 0);
  std::deque<NodeId> queue;
  queue.push_back(src);
  seen[static_cast<std::size_t>(src)] = 1;
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    if (n == dst) break;
    for (const Adjacency& adj : net.neighbors(n)) {
      if (banned_link[static_cast<std::size_t>(adj.link)]) continue;
      if (banned_node[static_cast<std::size_t>(adj.peer)]) continue;
      if (seen[static_cast<std::size_t>(adj.peer)]) continue;
      if (adj.peer != dst && !interior_ok(net, adj.peer)) continue;
      seen[static_cast<std::size_t>(adj.peer)] = 1;
      parent_node[static_cast<std::size_t>(adj.peer)] = n;
      parent_link[static_cast<std::size_t>(adj.peer)] = adj.link;
      queue.push_back(adj.peer);
    }
  }
  if (!seen[static_cast<std::size_t>(dst)]) return {};
  Route r;
  for (NodeId n = dst; n != kInvalidNode;
       n = parent_node[static_cast<std::size_t>(n)]) {
    r.nodes.push_back(n);
    const LinkId l = parent_link[static_cast<std::size_t>(n)];
    if (l != kInvalidLink) r.links.push_back(l);
  }
  std::reverse(r.nodes.begin(), r.nodes.end());
  std::reverse(r.links.begin(), r.links.end());
  return r;
}

}  // namespace

Route shortest_route(const Network& net, NodeId src, NodeId dst) {
  const std::vector<char> no_nodes(net.node_count(), 0);
  const std::vector<char> no_links(net.link_count(), 0);
  return bfs_route(net, src, dst, no_nodes, no_links);
}

std::vector<Route> k_shortest_routes(const Network& net, NodeId src,
                                     NodeId dst, const RouteOptions& opts) {
  CS_REQUIRE(net.is_host(src) && net.is_host(dst),
             "routes are defined between hosts");
  CS_REQUIRE(src != dst, "route endpoints must differ");
  const std::size_t k = std::max<std::size_t>(opts.max_routes, 1);

  std::vector<Route> result;
  const Route first = shortest_route(net, src, dst);
  if (first.nodes.empty()) return result;
  result.push_back(first);

  // Candidate pool ordered by (length, path) so ties are deterministic.
  const auto cmp = [](const Route& a, const Route& b) {
    if (a.length() != b.length()) return a.length() < b.length();
    return a.nodes < b.nodes;
  };
  std::set<Route, decltype(cmp)> candidates(cmp);

  while (result.size() < k) {
    const Route& prev = result.back();
    // Spur from every node of the previous route except the destination.
    for (std::size_t spur_idx = 0; spur_idx + 1 < prev.nodes.size();
         ++spur_idx) {
      const NodeId spur_node = prev.nodes[spur_idx];
      std::vector<char> banned_node(net.node_count(), 0);
      std::vector<char> banned_link(net.link_count(), 0);
      // Ban links that would recreate an already-accepted route sharing
      // this root.
      for (const Route& r : result) {
        if (r.nodes.size() > spur_idx &&
            std::equal(prev.nodes.begin(),
                       prev.nodes.begin() +
                           static_cast<std::ptrdiff_t>(spur_idx + 1),
                       r.nodes.begin())) {
          banned_link[static_cast<std::size_t>(r.links[spur_idx])] = 1;
        }
      }
      // Ban the root path's interior nodes so the spur stays loop-free.
      for (std::size_t t = 0; t < spur_idx; ++t)
        banned_node[static_cast<std::size_t>(prev.nodes[t])] = 1;

      const Route spur = bfs_route(net, spur_node, dst, banned_node,
                                   banned_link);
      if (spur.nodes.empty()) continue;

      Route total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() +
                             static_cast<std::ptrdiff_t>(spur_idx));
      total.links.assign(prev.links.begin(),
                         prev.links.begin() +
                             static_cast<std::ptrdiff_t>(spur_idx));
      total.nodes.insert(total.nodes.end(), spur.nodes.begin(),
                         spur.nodes.end());
      total.links.insert(total.links.end(), spur.links.begin(),
                         spur.links.end());
      if (opts.max_hops != 0 && total.length() > opts.max_hops) continue;
      if (std::find(result.begin(), result.end(), total) == result.end())
        candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }

  if (opts.max_hops != 0) {
    std::erase_if(result,
                  [&](const Route& r) { return r.length() > opts.max_hops; });
  }
  return result;
}

std::vector<Route> all_simple_routes(const Network& net, NodeId src,
                                     NodeId dst, const RouteOptions& opts) {
  CS_REQUIRE(net.is_host(src) && net.is_host(dst),
             "routes are defined between hosts");
  CS_REQUIRE(src != dst, "route endpoints must differ");
  const std::size_t cap =
      std::min<std::size_t>(opts.max_routes, RouteOptions::kAllRoutes);

  std::vector<Route> result;
  std::vector<char> on_path(net.node_count(), 0);
  Route current;
  current.nodes.push_back(src);
  on_path[static_cast<std::size_t>(src)] = 1;

  // Iterative DFS with explicit neighbor cursors.
  std::vector<std::size_t> cursor{0};
  while (!cursor.empty()) {
    if (result.size() >= cap) break;
    const NodeId n = current.nodes.back();
    const auto& adj = net.neighbors(n);
    if (cursor.back() >= adj.size()) {
      on_path[static_cast<std::size_t>(n)] = 0;
      current.nodes.pop_back();
      if (!current.links.empty()) current.links.pop_back();
      cursor.pop_back();
      continue;
    }
    const Adjacency edge = adj[cursor.back()++];
    if (on_path[static_cast<std::size_t>(edge.peer)]) continue;
    if (opts.max_hops != 0 && current.links.size() + 1 > opts.max_hops)
      continue;
    if (edge.peer == dst) {
      Route done = current;
      done.nodes.push_back(dst);
      done.links.push_back(edge.link);
      result.push_back(std::move(done));
      continue;
    }
    if (!interior_ok(net, edge.peer)) continue;
    current.nodes.push_back(edge.peer);
    current.links.push_back(edge.link);
    on_path[static_cast<std::size_t>(edge.peer)] = 1;
    cursor.push_back(0);
  }

  std::sort(result.begin(), result.end(),
            [](const Route& a, const Route& b) {
              if (a.length() != b.length()) return a.length() < b.length();
              return a.nodes < b.nodes;
            });
  return result;
}

RouteTable::RouteTable(const Network& net, RouteOptions opts)
    : net_(net), opts_(opts) {}

const std::vector<Route>& RouteTable::routes(NodeId src, NodeId dst) {
  const auto key_of = [](NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  };
  if (const auto it = cache_.find(key_of(src, dst)); it != cache_.end())
    return it->second;

  // Enumerate from the lower node id, whichever direction is asked first:
  // the k-shortest search keeps a direction-dependent subset of
  // equal-length routes, so the pair's route set must not depend on query
  // order — the encoder, check_design and the shard stitcher each fill
  // their own table in a different order.
  const NodeId lo = std::min(src, dst);
  const NodeId hi = std::max(src, dst);
  std::vector<Route> fwd = k_shortest_routes(net_, lo, hi, opts_);
  std::vector<Route> rev;
  rev.reserve(fwd.size());
  for (const Route& r : fwd) rev.push_back(r.reversed());
  cache_.emplace(key_of(hi, lo), std::move(rev));
  cache_.emplace(key_of(lo, hi), std::move(fwd));
  return cache_.at(key_of(src, dst));
}

void RouteTable::adopt_cache(const RouteTable& donor) {
  CS_REQUIRE(donor.opts_.max_routes == opts_.max_routes &&
                 donor.opts_.max_hops == opts_.max_hops,
             "RouteTable::adopt_cache: route options differ");
  for (const auto& [key, routes] : donor.cache_) cache_.emplace(key, routes);
}

}  // namespace cs::topology
