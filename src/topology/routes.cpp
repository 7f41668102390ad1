#include "topology/routes.h"

#include <algorithm>
#include <set>
#include <string_view>

namespace cs::topology {

Route Route::reversed() const {
  Route r;
  r.nodes.assign(nodes.rbegin(), nodes.rend());
  r.links.assign(links.rbegin(), links.rend());
  return r;
}

namespace {

/// Cache key of the ordered pair (a, b).
std::uint64_t pair_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

/// True if `n` may appear strictly inside a path: routers only.
bool interior_ok(const Network& net, NodeId n) { return net.is_router(n); }

/// BFS state for one pair's route search, sized once and reused by every
/// spur search of that pair. Between searches `seen` and the banned
/// arrays are all zero: each search clears exactly the entries it set.
/// Parents are only read along a found path, below its source, where
/// the same search wrote them, so they are never cleared.
struct BfsScratch {
  explicit BfsScratch(const Network& net)
      : parent_node(net.node_count(), kInvalidNode),
        parent_link(net.node_count(), kInvalidLink),
        seen(net.node_count(), 0),
        interior(net.node_count(), 0),
        banned_node(net.node_count(), 0),
        banned_link(net.link_count(), 0) {
    queue.reserve(net.node_count());
    for (std::size_t n = 0; n < interior.size(); ++n)
      interior[n] = interior_ok(net, static_cast<NodeId>(n)) ? 1 : 0;
  }

  std::vector<NodeId> parent_node;
  std::vector<LinkId> parent_link;
  std::vector<char> seen;
  /// interior[n]: n may appear strictly inside a path (routers only).
  std::vector<char> interior;
  /// FIFO by read cursor: a BFS enqueues each node at most once.
  std::vector<NodeId> queue;
  std::vector<char> banned_node;
  std::vector<char> banned_link;
};

/// BFS shortest path from src to dst avoiding the scratch's banned nodes
/// and links (Yen's spur computation). On success appends the path's
/// nodes (src .. dst) and links to `out` and returns true.
bool bfs_route(const Network& net, NodeId src, NodeId dst, BfsScratch& s,
               Route& out) {
  s.queue.clear();
  s.queue.push_back(src);
  s.seen[static_cast<std::size_t>(src)] = 1;
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const NodeId n = s.queue[head];
    if (n == dst) break;
    for (const Adjacency& adj : net.neighbors(n)) {
      const auto peer = static_cast<std::size_t>(adj.peer);
      if (s.banned_link[static_cast<std::size_t>(adj.link)]) continue;
      if (s.banned_node[peer]) continue;
      if (s.seen[peer]) continue;
      if (adj.peer != dst && !s.interior[peer]) continue;
      s.seen[peer] = 1;
      s.parent_node[peer] = n;
      s.parent_link[peer] = adj.link;
      s.queue.push_back(adj.peer);
    }
  }
  const bool found = s.seen[static_cast<std::size_t>(dst)] != 0;
  if (found) {
    const std::size_t first_node = out.nodes.size();
    const std::size_t first_link = out.links.size();
    for (NodeId n = dst; n != src;
         n = s.parent_node[static_cast<std::size_t>(n)]) {
      out.nodes.push_back(n);
      out.links.push_back(s.parent_link[static_cast<std::size_t>(n)]);
    }
    out.nodes.push_back(src);
    std::reverse(out.nodes.begin() + static_cast<std::ptrdiff_t>(first_node),
                 out.nodes.end());
    std::reverse(out.links.begin() + static_cast<std::ptrdiff_t>(first_link),
                 out.links.end());
  }
  for (const NodeId n : s.queue) s.seen[static_cast<std::size_t>(n)] = 0;
  return found;
}

}  // namespace

std::vector<Route> k_shortest_routes(const Network& net, NodeId src,
                                     NodeId dst, const RouteOptions& opts) {
  CS_REQUIRE(net.is_host(src) && net.is_host(dst),
             "routes are defined between hosts");
  CS_REQUIRE(src != dst, "route endpoints must differ");
  const std::size_t k = std::max<std::size_t>(opts.max_routes, 1);

  // One set of BFS buffers and banned arrays serves every spur search.
  BfsScratch scratch(net);
  std::vector<Route> result;
  Route first;
  if (!bfs_route(net, src, dst, scratch, first)) return result;
  result.push_back(std::move(first));

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
      // Ban links that would recreate an already-accepted route sharing
      // this root.
      for (const Route& r : result) {
        if (r.nodes.size() > spur_idx &&
            std::equal(prev.nodes.begin(),
                       prev.nodes.begin() +
                           static_cast<std::ptrdiff_t>(spur_idx + 1),
                       r.nodes.begin())) {
          scratch.banned_link[static_cast<std::size_t>(r.links[spur_idx])] =
              1;
        }
      }
      // Ban the root path's interior nodes so the spur stays loop-free.
      for (std::size_t t = 0; t < spur_idx; ++t)
        scratch.banned_node[static_cast<std::size_t>(prev.nodes[t])] = 1;

      Route total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() +
                             static_cast<std::ptrdiff_t>(spur_idx));
      total.links.assign(prev.links.begin(),
                         prev.links.begin() +
                             static_cast<std::ptrdiff_t>(spur_idx));
      const bool found = bfs_route(net, spur_node, dst, scratch, total);

      // Lift this spur's bans. Every entry was zero before them, so
      // clearing a superset of the banned links is exact.
      for (const Route& r : result)
        if (r.links.size() > spur_idx)
          scratch.banned_link[static_cast<std::size_t>(r.links[spur_idx])] =
              0;
      for (std::size_t t = 0; t < spur_idx; ++t)
        scratch.banned_node[static_cast<std::size_t>(prev.nodes[t])] = 0;

      if (!found) continue;
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

RouteTable::RouteTable(const Network& net, RouteOptions opts,
                       const RouteTable& prev)
    : RouteTable(net, opts) {
  const Network& old = prev.net_;
  if (opts != prev.opts_ || old.router_count() != net.router_count())
    return;
  const auto ix = [](auto id) { return static_cast<std::size_t>(id); };
  // Old id -> new id of the node with the same name and kind, strictly
  // increasing. A host without one was added or removed and is set
  // aside; a router without one, or a repeated name, carries nothing.
  std::unordered_map<std::string_view, NodeId> by_name;
  for (const Node& n : net.nodes())
    if (!by_name.emplace(n.name, n.id).second) return;
  std::vector<NodeId> to(old.node_count(), kInvalidNode);
  std::vector<char> kept(net.node_count(), 0);
  NodeId last = kInvalidNode;
  for (const Node& n : old.nodes()) {
    const auto it = by_name.find(n.name);
    if (it != by_name.end() && net.node(it->second).kind == n.kind) {
      if (it->second <= last) return;
      last = to[ix(n.id)] = it->second;
      kept[ix(last)] = 1;
    } else if (n.kind == NodeKind::kRouter) {
      return;
    }
  }
  // Every kept node has the same kept neighbours in the same order.
  for (const Node& n : old.nodes()) {
    if (to[ix(n.id)] == kInvalidNode) continue;
    std::vector<NodeId> was, now;
    for (const Adjacency& adj : old.neighbors(n.id))
      if (to[ix(adj.peer)] != kInvalidNode) was.push_back(to[ix(adj.peer)]);
    for (const Adjacency& adj : net.neighbors(to[ix(n.id)]))
      if (kept[ix(adj.peer)]) now.push_back(adj.peer);
    if (was != now) return;
  }

  for (const auto& [key, routes] : prev.cache_) {
    const NodeId a = to[ix(key >> 32)];
    const NodeId b = to[ix(key & 0xffffffffu)];
    if (a == kInvalidNode || b == kInvalidNode) continue;
    std::vector<Route>& carried = cache_[pair_key(a, b)];
    carried.resize(routes.size());
    for (std::size_t i = 0; i < routes.size(); ++i) {
      Route& r = carried[i];
      for (const NodeId n : routes[i].nodes) r.nodes.push_back(to[ix(n)]);
      for (std::size_t t = 0; t + 1 < r.nodes.size(); ++t)
        r.links.push_back(*net.find_link(r.nodes[t], r.nodes[t + 1]));
    }
  }
}

const std::vector<Route>& RouteTable::routes(NodeId src, NodeId dst) {
  if (const auto it = cache_.find(pair_key(src, dst)); it != cache_.end())
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
  cache_.emplace(pair_key(hi, lo), std::move(rev));
  cache_.emplace(pair_key(lo, hi), std::move(fwd));
  return cache_.at(pair_key(src, dst));
}

}  // namespace cs::topology
