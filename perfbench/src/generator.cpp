#include "generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  for (;;) {
    const std::uint64_t v = next();
    if (v < limit) return v % n;
  }
}

int Rng::range(int lo, int hi) {
  return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed * 0x100000001b3ull ^ (stream + 0x51ed2701ull));
  r.next();
  return r.next();
}

std::string_view family_name(Family family) {
  switch (family) {
    case Family::kMesh:
      return "mesh";
    case Family::kCampus:
      return "campus";
    case Family::kFatTree:
      return "fat-tree";
  }
  return "?";
}

namespace {

/// Attaches hosts 1..H to `access` routers in contiguous blocks, starting
/// at a rotated offset so equal-shape fabrics still differ per seed.
void attach_in_blocks(TableSpec& spec, const std::vector<int>& access,
                      Rng& rng) {
  const int n = static_cast<int>(access.size());
  const int offset = rng.range(0, n - 1);
  for (int h = 0; h < spec.hosts; ++h)
    spec.links.emplace_back(
        h + 1,
        access[static_cast<std::size_t>((h * n / spec.hosts + offset) % n)]);
}

void build_mesh(TableSpec& spec, Rng& rng) {
  const int h = spec.hosts;
  const int r = std::max(4, h / 2);
  spec.routers = r;
  const auto router = [&](int i) { return h + 1 + i; };
  std::set<std::pair<int, int>> have;
  const auto link = [&](int a, int b) {
    if (a == b || !have.emplace(std::min(a, b), std::max(a, b)).second)
      return;
    spec.links.emplace_back(a, b);
  };
  for (int i = 1; i < r; ++i)
    link(router(i), router(rng.range(0, i - 1)));
  for (int e = 0; e < r / 2; ++e) {
    // Two statements: the order of evaluating arguments is unspecified.
    const int a = rng.range(0, r - 1);
    const int b = rng.range(0, r - 1);
    link(router(a), router(b));
  }
  for (int host = 1; host <= h; ++host) {
    const int first = rng.range(0, r - 1);
    link(host, router(first));
    if (rng.below(100) < 15) {
      const int second = rng.range(0, r - 1);
      if (second != first) link(host, router(second));
    }
  }
}

void build_campus(TableSpec& spec, Rng& rng) {
  // Two cores, 2-3 buildings, each a distribution router dual-homed to
  // both cores with two access routers under it.
  const int h = spec.hosts;
  const int buildings = 2 + static_cast<int>(rng.below(2));
  spec.routers = 2 + buildings * 3;
  const int c1 = h + 1, c2 = h + 2;
  spec.links.emplace_back(c1, c2);
  std::vector<int> access;
  for (int b = 0; b < buildings; ++b) {
    const int dist = h + 3 + 3 * b;
    spec.links.emplace_back(dist, c1);
    spec.links.emplace_back(dist, c2);
    for (int a = 1; a <= 2; ++a) {
      spec.links.emplace_back(dist + a, dist);
      access.push_back(dist + a);
    }
  }
  attach_in_blocks(spec, access, rng);
}

/// Smallest even k whose full fill (k^3/4 hosts) holds `hosts`.
int fat_tree_k(int hosts) {
  int k = 4;
  while (k * k * k / 4 < hosts) k += 2;
  return k;
}

/// k-ary fat-tree switch layout, numbered from `first`: cores, then per
/// pod k/2 aggregation and k/2 edge switches. Returns the links and the
/// edge switches; `emit_link(a, b)` receives switch numbers.
template <typename Link>
std::vector<int> fat_tree_switches(int k, int first, Link&& emit_link) {
  const int half = k / 2;
  const int cores = half * half;
  std::vector<int> edges;
  for (int p = 0; p < k; ++p) {
    const int pod = first + cores + p * k;
    for (int a = 0; a < half; ++a) {
      for (int e = 0; e < half; ++e) emit_link(pod + a, pod + half + e);
      for (int c = 0; c < half; ++c) emit_link(pod + a, first + a * half + c);
    }
    for (int e = 0; e < half; ++e) edges.push_back(pod + half + e);
  }
  return edges;
}

void build_fat_tree(TableSpec& spec, Rng& rng) {
  const int k = fat_tree_k(spec.hosts);
  spec.routers = (k / 2) * (k / 2) + k * k;
  const std::vector<int> edges = fat_tree_switches(
      k, spec.hosts + 1,
      [&](int a, int b) { spec.links.emplace_back(a, b); });
  attach_in_blocks(spec, edges, rng);
}

}  // namespace

TableSpec make_table_spec(Family family, int hosts, Rng& rng) {
  TableSpec spec;
  spec.hosts = hosts;
  switch (family) {
    case Family::kMesh:
      build_mesh(spec, rng);
      break;
    case Family::kCampus:
      build_campus(spec, rng);
      break;
    case Family::kFatTree:
      build_fat_tree(spec, rng);
      break;
  }
  std::vector<std::pair<int, int>> pairs;
  for (int i = 1; i <= hosts; ++i)
    for (int j = 1; j <= hosts; ++j)
      if (i != j) pairs.emplace_back(i, j);
  shuffle(pairs, rng);
  pairs.resize(std::max<std::size_t>(1, pairs.size() / 10));
  std::sort(pairs.begin(), pairs.end());
  spec.crs = std::move(pairs);
  return spec;
}

std::string table_iv_text(const TableSpec& spec) {
  std::string out =
      "# Number of Security Devices (enabled isolation patterns)\n5\n"
      "# Pattern ids: 1 deny, 2 trusted, 3 inspection, 4 proxy, "
      "5 proxy+trusted\n1 2 3 4 5\n"
      "# Isolation Specifications (partial orders)\n4\n"
      "# Pattern, Pattern, Comparison (1 '=', 2 '>', 3 '>=')\n"
      "1 5 2\n5 2 2\n2 3 2\n3 4 1\n"
      "# Cost of each security device (Firewall IPSec IDS Proxy, $K)\n"
      "5 10 8 6\n";
  out += "# Number of Hosts and Routers\n" + std::to_string(spec.hosts) +
         " " + std::to_string(spec.routers) + "\n";
  out += "# Links\n" + std::to_string(spec.links.size()) + "\n";
  for (const auto& [a, b] : spec.links)
    out += std::to_string(a) + " " + std::to_string(b) + "\n";
  out += "# Connectivity Requirements (each row for a host, ends with 0)\n";
  std::size_t next = 0;
  for (int i = 1; i <= spec.hosts; ++i) {
    for (; next < spec.crs.size() && spec.crs[next].first == i; ++next)
      out += std::to_string(spec.crs[next].second) + " ";
    out += "0\n";
  }
  out += "# Sliders Values (Isolation 0-10, Usability 0-10, Cost in $K)\n" +
         fixed3(spec.iso) + " " + fixed3(spec.usab) + " " +
         fixed3(spec.budget) + "\n";
  return out;
}

std::string base64(std::string_view bytes) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 2 < bytes.size(); i += 3) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                       static_cast<unsigned char>(bytes[i + 2]);
    out += kAlphabet[(v >> 18) & 63];
    out += kAlphabet[(v >> 12) & 63];
    out += kAlphabet[(v >> 6) & 63];
    out += kAlphabet[v & 63];
  }
  if (i < bytes.size()) {
    unsigned v = static_cast<unsigned char>(bytes[i]) << 16;
    if (i + 1 < bytes.size())
      v |= static_cast<unsigned char>(bytes[i + 1]) << 8;
    out += kAlphabet[(v >> 18) & 63];
    out += kAlphabet[(v >> 12) & 63];
    out += i + 1 < bytes.size() ? kAlphabet[(v >> 6) & 63] : '=';
    out += '=';
  }
  return out;
}

std::string fixed3(std::int64_t milli) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(milli / 1000),
                static_cast<long long>(milli % 1000));
  return buf;
}

std::string fixed_canonical(std::int64_t milli) {
  std::string s = fixed3(milli);
  while (s.back() == '0') s.pop_back();
  if (s.back() == '.') s.pop_back();
  return s;
}

bool Point::operator<(const Point& o) const {
  return std::tie(max_isolation, iso, usab, budget) <
         std::tie(o.max_isolation, o.iso, o.usab, o.budget);
}

std::string request_line(std::string_view spec_ref, const Point& point) {
  std::string line(spec_ref);
  line += point.max_isolation ? " max-isolation " : " feasibility ";
  line += fixed3(point.iso) + " " + fixed3(point.usab) + " " +
          fixed3(point.budget);
  return line;
}

namespace {

/// 64-bit FNV-1a: a platform-independent digest for de-duplication.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Exact-share schedule: blocks of `block` slots holding `mix[i]` slots
/// of kind i each, shuffled within the block.
template <typename Kind, std::size_t N>
std::vector<Kind> block_schedule(int slots, int block,
                                 const std::array<int, N>& mix, Rng& rng) {
  std::vector<Kind> out;
  out.reserve(static_cast<std::size_t>(slots + block));
  while (static_cast<int>(out.size()) < slots) {
    std::vector<Kind> b;
    for (std::size_t kind = 0; kind < N; ++kind)
      b.insert(b.end(), static_cast<std::size_t>(mix[kind]),
               static_cast<Kind>(kind));
    shuffle(b, rng);
    out.insert(out.end(), b.begin(), b.end());
  }
  out.resize(static_cast<std::size_t>(slots));
  return out;
}

}  // namespace

// ---------------------------------------------------------------- serve_cold

std::string_view cold_kind_name(ColdKind kind) {
  switch (kind) {
    case ColdKind::kFeasible:
      return "feasible";
    case ColdKind::kKnee:
      return "knee";
    case ColdKind::kMaxIsolation:
      return "max-isolation";
  }
  return "?";
}

ColdStream make_serve_cold(std::uint64_t seed, int connections,
                           int per_connection) {
  ColdStream out;
  std::unordered_set<std::uint64_t> seen;  // every spec is new to the server
  for (int c = 0; c < connections; ++c) {
    // Separate schedule and content streams: a longer stream extends a
    // shorter one instead of changing it.
    Rng schedule_rng(stream_seed(seed, 150 + static_cast<std::uint64_t>(c)));
    Rng rng(stream_seed(seed, 100 + static_cast<std::uint64_t>(c)));
    const std::vector<ColdKind> kinds = block_schedule<ColdKind>(
        per_connection, kColdBlock, kColdMix, schedule_rng);
    std::vector<ColdRequest>& stream = out.connections.emplace_back();
    stream.reserve(kinds.size());
    // Sizes and families are stratified per block, so every block of the
    // stream carries the same size mix and only the networks differ.
    std::vector<int> feasible_hosts, feasible_family, knee_hosts, knee_family;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const int block = static_cast<int>(i) / kColdBlock;
      if (i % kColdBlock == 0) {
        feasible_hosts.clear();
        feasible_family.clear();
        for (int k = 0; k < kColdMix[0]; ++k) {
          feasible_hosts.push_back(8 + k);
          feasible_family.push_back(k % 3);
        }
        knee_hosts = {8, 10, 12};
        knee_family = {0, 1, 2};
        shuffle(feasible_hosts, rng);
        shuffle(feasible_family, rng);
        shuffle(knee_hosts, rng);
        shuffle(knee_family, rng);
      }
      const auto take = [](std::vector<int>& from) {
        const int v = from.back();
        from.pop_back();
        return v;
      };
      const ColdKind kind = kinds[i];
      ColdRequest req;
      req.kind = kind;
      Point& p = req.point;
      switch (kind) {
        case ColdKind::kFeasible:
          // Well inside the feasible region: decided by propagation.
          req.hosts = take(feasible_hosts);
          req.family = static_cast<Family>(take(feasible_family));
          p.iso = 1000 + 100 * rng.range(0, 30);
          p.usab = 1000 + 100 * rng.range(0, 15);
          p.budget = 100'000 * req.hosts;
          break;
        case ColdKind::kKnee:
          // Near the isolation ceiling under a tight usability floor and
          // budget: the solver works up to its conflict cap.
          req.hosts = take(knee_hosts);
          req.family = static_cast<Family>(take(knee_family));
          p.iso = 8000 + 100 * rng.range(0, 10);
          p.usab = 3000;
          p.budget = 40'000 * req.hosts;
          break;
        case ColdKind::kMaxIsolation:
          req.hosts = 8 + block % 3;
          req.family = static_cast<Family>(block / 3 % 3);
          p.max_isolation = true;
          p.usab = 3000;
          p.budget = 40'000 * req.hosts;
          break;
      }
      for (;;) {
        TableSpec spec = make_table_spec(req.family, req.hosts, rng);
        spec.iso = p.iso;
        spec.usab = p.usab;
        spec.budget = p.budget;
        const std::string text = table_iv_text(spec);
        if (!seen.insert(fnv1a(text)).second) continue;
        req.line = request_line("inline:" + base64(text), p);
        break;
      }
      stream.push_back(std::move(req));
    }
  }
  return out;
}

// ----------------------------------------------------------------- serve_hot

std::string_view hot_kind_name(HotKind kind) {
  switch (kind) {
    case HotKind::kRepeat:
      return "repeat";
    case HotKind::kRetune:
      return "retune";
    case HotKind::kHot:
      return "hot";
    case HotKind::kDelta:
      return "delta";
  }
  return "?";
}

namespace {

constexpr const char* kUicPatterns[] = {"trusted-comm", "payload-inspection",
                                        "proxy"};
constexpr int kUicCandidates = 4;

/// Policy constraint j of a base: a non-denying forbid-flow on a fixed
/// host pair, so connectivity requirements always stay satisfiable.
std::string uic_text(int j) {
  static constexpr std::pair<int, int> kPairs[kUicCandidates] = {
      {1, 2}, {2, 3}, {3, 1}, {4, 5}};
  return "forbid-flow,h" + std::to_string(kPairs[j].first) + ",h" +
         std::to_string(kPairs[j].second) + ",svc," + kUicPatterns[j % 3];
}

/// Zipf(1) sampler over ranks 0..n-1.
class Zipf {
 public:
  explicit Zipf(int n) {
    double total = 0;
    for (int k = 0; k < n; ++k) cdf_.push_back(total += 1.0 / (k + 1));
    for (double& v : cdf_) v /= total;
  }
  int sample(Rng& rng) const {
    const double u =
        static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
    return static_cast<int>(
        std::min<std::size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                                  cdf_.begin(),
                              cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

HotStream make_serve_hot(std::uint64_t seed, int connections,
                         int per_connection) {
  HotStream out;
  // Base sizes and families are fixed (8..16 hosts, families in turn);
  // the seed draws the networks.
  Rng base_rng(stream_seed(seed, 200));
  for (int b = 0; b < kHotBases; ++b) {
    TableSpec spec = make_table_spec(static_cast<Family>(b % 3),
                                     8 + b * 9 / kHotBases, base_rng);
    spec.iso = 2000;
    spec.usab = 1500;
    spec.budget = 80'000 * spec.hosts;
    out.base_texts.push_back(table_iv_text(spec));
    out.bases.push_back(std::move(spec));
  }

  std::map<std::string, std::uint32_t> line_ids;
  const auto intern_line = [&](std::string line) {
    const auto [it, fresh] = line_ids.emplace(
        std::move(line), static_cast<std::uint32_t>(out.lines.size()));
    if (fresh) out.lines.push_back(it->first);
    return it->second;
  };

  // The key universe: every base at every rung of a threshold ladder,
  // inline. Keys 0 .. kHotBases*kHotRungs-1 index it base-major.
  for (int b = 0; b < kHotBases; ++b) {
    const std::string ref =
        "inline:" + base64(out.base_texts[static_cast<std::size_t>(b)]);
    for (int r = 0; r < kHotRungs; ++r) {
      HotKey key;
      key.base = b;
      key.point.iso = 1000 + 50 * r;
      key.point.usab = 1000 + 250 * (r % 4);
      key.point.budget = out.bases[static_cast<std::size_t>(b)].budget;
      intern_line(request_line(ref, key.point));
      out.keys.push_back(std::move(key));
    }
  }
  const int universe = kHotBases * kHotRungs;

  Rng schedule_rng(stream_seed(seed, 201));
  out.schedule = block_schedule<HotKind>(per_connection, kHotBlock, kHotMix,
                                         schedule_rng);
  // The first request of a connection anchors its delta chain.
  if (!out.schedule.empty() && out.schedule[0] == HotKind::kDelta) {
    const auto it =
        std::find_if(out.schedule.begin(), out.schedule.end(),
                     [](HotKind k) { return k != HotKind::kDelta; });
    std::swap(out.schedule[0], *it);
  }

  // Popularity: Zipf over the universe, ranked so that every run of
  // kHotBases consecutive ranks covers each base once (the seed orders
  // the bases and each base's rungs). Hot slots share one uniformly
  // drawn key across every connection.
  Rng hot_rng(stream_seed(seed, 202));
  std::vector<int> base_order(kHotBases);
  std::vector<int>& by_rank = out.by_popularity;
  std::iota(base_order.begin(), base_order.end(), 0);
  shuffle(base_order, hot_rng);
  std::vector<std::vector<int>> rung_order(kHotBases,
                                           std::vector<int>(kHotRungs));
  for (auto& rungs : rung_order) {
    std::iota(rungs.begin(), rungs.end(), 0);
    shuffle(rungs, hot_rng);
  }
  for (int r = 0; r < universe; ++r) {
    const int b = base_order[static_cast<std::size_t>(r % kHotBases)];
    by_rank.push_back(b * kHotRungs +
                      rung_order[static_cast<std::size_t>(b)]
                                [static_cast<std::size_t>(r / kHotBases)]);
  }
  const Zipf zipf(universe);
  std::vector<int> hot_key(out.schedule.size(), -1);
  for (std::size_t s = 0; s < out.schedule.size(); ++s)
    if (out.schedule[s] == HotKind::kHot)
      hot_key[s] = hot_rng.range(0, universe - 1);

  std::map<std::string, std::uint32_t> state_keys;
  for (int c = 0; c < connections; ++c) {
    Rng rng(stream_seed(seed, 300 + static_cast<std::uint64_t>(c)));
    struct Anchor {
      int base = 0;
      std::vector<int> uics;  // active candidate ids, in chain order
      std::int64_t iso = 0, usab = 0;
    } anchor;
    std::vector<HotSlot>& slots = out.connections.emplace_back();
    slots.reserve(out.schedule.size());
    for (std::size_t s = 0; s < out.schedule.size(); ++s) {
      int key = -1;
      switch (out.schedule[s]) {
        case HotKind::kRepeat:
          key = by_rank[static_cast<std::size_t>(zipf.sample(rng))];
          break;
        case HotKind::kRetune:
          key = anchor.base * kHotRungs +
                static_cast<int>(rng.below(kHotRungs));
          break;
        case HotKind::kHot:
          key = hot_key[s];
          break;
        case HotKind::kDelta:
          break;
      }
      if (key >= 0) {
        const HotKey& k = out.keys[static_cast<std::size_t>(key)];
        const TableSpec& base = out.bases[static_cast<std::size_t>(k.base)];
        anchor = Anchor{k.base, {}, base.iso, base.usab};
        slots.push_back(HotSlot{static_cast<std::uint32_t>(key),
                                static_cast<std::uint32_t>(key)});
        continue;
      }

      // A delta on the connection's anchor: add or remove a policy
      // constraint, or retune the sliders.
      std::vector<int> free;
      for (int j = 0; j < kUicCandidates; ++j)
        if (std::find(anchor.uics.begin(), anchor.uics.end(), j) ==
            anchor.uics.end())
          free.push_back(j);
      enum { kAdd, kRemove, kRetuneOp } op;
      if (anchor.uics.empty())
        op = rng.below(2) == 0 ? kAdd : kRetuneOp;
      else if (anchor.uics.size() < 2)
        op = static_cast<decltype(op)>(rng.below(3));
      else
        op = rng.below(2) == 0 ? kRemove : kRetuneOp;
      std::string text;
      if (op == kAdd) {
        const int j = free[rng.below(free.size())];
        anchor.uics.push_back(j);
        text = "add-uic," + uic_text(j);
      } else if (op == kRemove) {
        const std::size_t at = rng.below(anchor.uics.size());
        text = "remove-uic," + uic_text(anchor.uics[at]);
        anchor.uics.erase(anchor.uics.begin() +
                          static_cast<std::ptrdiff_t>(at));
      } else {
        anchor.iso = 1500 + 500 * rng.range(0, 7);
        anchor.usab = 1500 + 500 * rng.range(0, 1);
        text = "retune,iso=" + fixed_canonical(anchor.iso) +
               ",usab=" + fixed_canonical(anchor.usab);
      }
      const TableSpec& base = out.bases[static_cast<std::size_t>(anchor.base)];
      HotKey k;
      k.base = anchor.base;
      k.point = Point{false, anchor.iso, anchor.usab, base.budget};
      if (anchor.iso != base.iso || anchor.usab != base.usab)
        k.ops.push_back("retune,iso=" + fixed_canonical(anchor.iso) +
                        ",usab=" + fixed_canonical(anchor.usab));
      std::vector<int> sorted = anchor.uics;
      std::sort(sorted.begin(), sorted.end());
      for (const int j : sorted) k.ops.push_back("add-uic," + uic_text(j));
      std::string state = std::to_string(k.base);
      for (const std::string& o : k.ops) state += ";" + o;
      const auto [it, fresh] = state_keys.emplace(
          state, static_cast<std::uint32_t>(out.keys.size()));
      if (fresh) out.keys.push_back(std::move(k));
      const HotKey& resolved = out.keys[it->second];
      slots.push_back(HotSlot{
          intern_line(request_line("delta:" + text, resolved.point)),
          it->second});
    }
  }
  return out;
}

// --------------------------------------------------------------------- churn

std::string_view churn_class_name(ChurnClass c) {
  switch (c) {
    case ChurnClass::kRetune:
      return "retune";
    case ChurnClass::kUic:
      return "uic";
    case ChurnClass::kFlow:
      return "flow";
    case ChurnClass::kLink:
      return "link";
    case ChurnClass::kHost:
      return "host";
  }
  return "?";
}

namespace {

/// The generator's own model of the evolving churn network: enough to
/// keep every link failure from disconnecting it.
class ChurnNet {
 public:
  explicit ChurnNet(const ChurnFabric& f) {
    for (const std::string& h : f.hosts) id(h);
    for (const std::string& r : f.routers) id(r);
    for (const auto& [a, b] : f.links) links_.insert(edge(a, b));
  }
  void add(const std::string& a, const std::string& b) {
    links_.insert(edge(a, b));
  }
  void remove(const std::string& a, const std::string& b) {
    links_.erase(edge(a, b));
  }
  void add_node(const std::string& n) { id(n); }
  void remove_node(const std::string& n) {
    const int v = id(n);
    std::erase_if(links_, [&](const auto& e) {
      return e.first == v || e.second == v;
    });
    gone_.insert(v);
  }
  /// True when removing link (a, b) keeps every live node reachable.
  bool survives_without(const std::string& a, const std::string& b) {
    const auto cut = edge(a, b);
    std::vector<std::vector<int>> adj(names_.size());
    for (const auto& e : links_) {
      if (e == cut) continue;
      adj[static_cast<std::size_t>(e.first)].push_back(e.second);
      adj[static_cast<std::size_t>(e.second)].push_back(e.first);
    }
    std::vector<char> seen(names_.size(), 0);
    std::vector<int> todo{0};
    seen[0] = 1;
    while (!todo.empty()) {
      const int v = todo.back();
      todo.pop_back();
      for (const int w : adj[static_cast<std::size_t>(v)])
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          todo.push_back(w);
        }
    }
    for (std::size_t v = 0; v < names_.size(); ++v)
      if (!seen[v] && !gone_.contains(static_cast<int>(v))) return false;
    return true;
  }

 private:
  int id(const std::string& n) {
    const auto [it, fresh] =
        ids_.emplace(n, static_cast<int>(names_.size()));
    if (fresh) names_.push_back(n);
    return it->second;
  }
  std::pair<int, int> edge(const std::string& a, const std::string& b) {
    const int x = id(a), y = id(b);
    return {std::min(x, y), std::max(x, y)};
  }
  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::set<std::pair<int, int>> links_;
  std::set<int> gone_;
};

ChurnFabric make_churn_fabric(int hosts) {
  ChurnFabric f;
  f.k = fat_tree_k(hosts);
  const int half = f.k / 2;
  const int cores = half * half;
  for (int c = 1; c <= cores; ++c)
    f.routers.push_back("core" + std::to_string(c));
  for (int p = 1; p <= f.k; ++p) {
    for (int a = 1; a <= half; ++a)
      f.routers.push_back("agg" + std::to_string((p - 1) * half + a));
    for (int e = 1; e <= half; ++e)
      f.routers.push_back("edge" + std::to_string((p - 1) * half + e));
  }
  // Router numbers from fat_tree_switches index f.routers directly.
  const std::vector<int> edges = fat_tree_switches(f.k, 0, [&](int a, int b) {
    f.links.emplace_back(f.routers[static_cast<std::size_t>(a)],
                         f.routers[static_cast<std::size_t>(b)]);
  });
  const int n = hosts;
  for (int i = 1; i <= n; ++i) f.hosts.push_back("h" + std::to_string(i));
  const int edge_count = static_cast<int>(edges.size());
  for (int i = 0; i < n; ++i) {
    const int edge = edges[static_cast<std::size_t>(i * edge_count / n)];
    f.links.emplace_back(f.hosts[static_cast<std::size_t>(i)],
                         f.routers[static_cast<std::size_t>(edge)]);
  }
  // Locality-weighted flows: WEB to the next host, DB two ahead, and
  // every fourth host reaches across the fabric over SSH; every tenth
  // flow is a connectivity requirement.
  const auto at = [&](int i) {
    return f.hosts[static_cast<std::size_t>(i % n)];
  };
  for (int i = 0; i < n; ++i) {
    f.flows.push_back({at(i), at(i + 1), "WEB", false});
    f.flows.push_back({at(i), at(i + 2), "DB", false});
    if (i % 4 == 0) f.flows.push_back({at(i), at(i + n / 2), "SSH", false});
  }
  for (std::size_t i = 0; i < f.flows.size(); i += 10) f.flows[i].cr = true;
  f.iso = 6000;
  f.usab = 4000;
  f.budget = 20'000 * hosts;
  return f;
}

}  // namespace

ChurnStream make_churn(std::uint64_t seed, int hosts, int steps) {
  ChurnStream out;
  out.fabric = make_churn_fabric(hosts);
  const ChurnFabric& f = out.fabric;
  Rng schedule_rng(stream_seed(seed, 401));
  out.classes = block_schedule<ChurnClass>(steps, kChurnBlock, kChurnMix,
                                           schedule_rng);
  Rng rng(stream_seed(seed, 400));
  ChurnNet net(f);
  const int n = hosts;
  const auto host = [&](int i) {
    return f.hosts[static_cast<std::size_t>(((i % n) + n) % n)];
  };

  std::vector<std::string> uics;  // active stream-added policy constraints
  std::vector<std::pair<std::string, std::string>> flows;  // stream-added
  std::vector<std::pair<std::string, std::string>> failed;
  // (host, edge switch) of stream-added hosts
  std::vector<std::pair<std::string, std::string>> added_hosts;
  int next_host = 0;
  std::vector<std::pair<std::string, std::string>> router_links;
  for (const auto& l : f.links)
    if (l.first[0] != 'h' && l.second[0] != 'h') router_links.push_back(l);

  out.deltas.reserve(out.classes.size());
  for (const ChurnClass cls : out.classes) {
    std::string op;
    switch (cls) {
      case ChurnClass::kRetune: {
        // Thresholds stay inside the feasible region, so capped probes
        // stay rare.
        std::string knobs;
        const int which = rng.range(1, 7);  // non-empty subset of 3 knobs
        if (which & 1)
          knobs += ",iso=" + fixed_canonical(5000 + 100 * rng.range(0, 15));
        if (which & 2)
          knobs += ",usab=" + fixed_canonical(3000 + 100 * rng.range(0, 12));
        if (which & 4)
          knobs += ",budget=" + std::to_string(hosts * rng.range(16, 24));
        op = "retune" + knobs;
        break;
      }
      case ChurnClass::kUic: {
        if (uics.size() >= 6 || (!uics.empty() && rng.below(5) < 2)) {
          const std::size_t at = rng.below(uics.size());
          op = "remove-uic," + uics[at];
          uics.erase(uics.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          std::string u;
          do {
            const int i = rng.range(0, n - 1);
            u = "forbid-flow," + host(i) + "," + host(i + 1) + ",WEB," +
                kUicPatterns[rng.below(3)];
          } while (std::find(uics.begin(), uics.end(), u) != uics.end());
          op = "add-uic," + u;
          uics.push_back(u);
        }
        break;
      }
      case ChurnClass::kFlow: {
        if (flows.size() >= 8 || (!flows.empty() && rng.below(2) == 0)) {
          const std::size_t at = rng.below(flows.size());
          op = "remove-flow," + flows[at].first + "," + flows[at].second +
               ",WEB";
          flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          // (i, i+3, WEB) is never a base flow, so only the stream's own
          // additions can collide.
          std::pair<std::string, std::string> p;
          do {
            const int i = rng.range(0, n - 1);
            p = {host(i), host(i + 3)};
          } while (std::find(flows.begin(), flows.end(), p) != flows.end());
          op = "add-flow," + p.first + "," + p.second + ",WEB" +
               (rng.below(10) < 3 ? ",cr" : "");
          flows.push_back(std::move(p));
        }
        break;
      }
      case ChurnClass::kLink: {
        if (failed.size() >= 2 || (!failed.empty() && rng.below(2) == 0)) {
          const auto l = failed.back();
          failed.pop_back();
          op = "restore-link," + l.first + "," + l.second;
          net.add(l.first, l.second);
        } else {
          const std::size_t start = rng.below(router_links.size());
          for (std::size_t k = 0; k < router_links.size(); ++k) {
            const auto& l = router_links[(start + k) % router_links.size()];
            if (std::find(failed.begin(), failed.end(), l) != failed.end() ||
                !net.survives_without(l.first, l.second))
              continue;
            op = "fail-link," + l.first + "," + l.second;
            net.remove(l.first, l.second);
            failed.push_back(l);
            break;
          }
          if (op.empty()) throw std::logic_error("no redundant link left");
        }
        break;
      }
      case ChurnClass::kHost: {
        if (!added_hosts.empty() &&
            (added_hosts.size() >= 3 || rng.below(2) == 0)) {
          const auto h = added_hosts.back();
          added_hosts.pop_back();
          op = "remove-host," + h.first;
          net.remove_node(h.first);
        } else {
          const std::string name = "churn" + std::to_string(++next_host);
          const std::string edge =
              "edge" + std::to_string(rng.range(1, f.k * f.k / 2));
          op = "add-host," + name + "," + edge;
          net.add_node(name);
          net.add(name, edge);
          added_hosts.emplace_back(name, edge);
        }
        break;
      }
    }
    out.deltas.push_back(std::move(op));
  }
  return out;
}

}  // namespace perfbench
