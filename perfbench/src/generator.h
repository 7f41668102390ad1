// Seeded workload generator of the repository benchmark.
//
// Everything the benchmark sends to the program is produced here, from
// the workload seed alone: Table IV input files (shipped as `inline:`
// request lines), cs-req-v1 request lines, and cs-delta-v1 delta lines.
// The generator shares no code with the program — its own RNG, its own
// topology builders, its own line rendering — so a change to the
// program never changes the benchmark's inputs. The same seed always
// yields byte-identical streams (tests/generator_test.cpp).
//
// Threshold values are carried as integers in thousandths (the
// program's util::Fixed scale), so rendering never depends on floating
// point formatting.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [lo, hi] (inclusive).
  int range(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Independent sub-stream seed for (seed, stream).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Deterministic Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

enum class Family { kMesh, kCampus, kFatTree };
std::string_view family_name(Family family);

/// A single-service network in Table IV numbering: hosts are 1..H,
/// routers H+1..H+R. Every ordered host pair carries one flow (that is
/// what the format means); `crs` marks the connectivity-required ones.
struct TableSpec {
  int hosts = 0;
  int routers = 0;
  std::vector<std::pair<int, int>> links;  // node numbers
  std::vector<std::pair<int, int>> crs;    // (src host, dst host)
  std::int64_t iso = 0, usab = 0, budget = 0;  // own sliders, thousandths
};

/// Builds a connected network of `family` with `hosts` hosts and marks
/// 10% of the ordered host pairs as connectivity requirements.
TableSpec make_table_spec(Family family, int hosts, Rng& rng);

/// The Table IV input-file text of `spec`.
std::string table_iv_text(const TableSpec& spec);

/// Standard base64 (RFC 4648, '=' padding).
std::string base64(std::string_view bytes);

/// "3.250" — three fractional digits, as request lines carry them.
std::string fixed3(std::int64_t milli);
/// "3.25" — the canonical cs-delta-v1 spelling (no trailing zeros).
std::string fixed_canonical(std::int64_t milli);

/// One request-line objective point, thresholds in thousandths.
struct Point {
  bool max_isolation = false;  // else feasibility
  std::int64_t iso = 0, usab = 0, budget = 0;
  bool operator<(const Point& o) const;
  bool operator==(const Point&) const = default;
};

/// `<spec-ref> <objective> <iso> <usab> <budget>` (no id: the server
/// numbers requests per connection).
std::string request_line(std::string_view spec_ref, const Point& point);

// ---------------------------------------------------------------- serve_cold

enum class ColdKind { kFeasible, kKnee, kMaxIsolation };
inline constexpr int kColdKinds = 3;
std::string_view cold_kind_name(ColdKind kind);

struct ColdRequest {
  ColdKind kind = ColdKind::kFeasible;
  Family family = Family::kMesh;
  int hosts = 0;
  Point point;
  std::string line;  // complete cs-req-v1 request line
};

/// Declared serve_cold mix: per block of kColdBlock requests, exactly
/// these many of each kind (feasible, knee, max-isolation).
inline constexpr int kColdBlock = 20;
inline constexpr std::array<int, kColdKinds> kColdMix = {16, 3, 1};

/// Per-connection request streams; every request carries a spec no
/// other request of the stream carries.
struct ColdStream {
  std::vector<std::vector<ColdRequest>> connections;
};

ColdStream make_serve_cold(std::uint64_t seed, int connections,
                           int per_connection);

// ----------------------------------------------------------------- serve_hot

enum class HotKind { kRepeat, kRetune, kHot, kDelta };
inline constexpr int kHotKinds = 4;
std::string_view hot_kind_name(HotKind kind);

inline constexpr int kHotBlock = 20;
inline constexpr std::array<int, kHotKinds> kHotMix = {12, 4, 2, 2};
inline constexpr int kHotBases = 16;
inline constexpr int kHotRungs = 64;

/// A distinct request key: the spec a request resolves to plus its
/// objective point. `ops` rebuilds the spec from base `base` with
/// cs-delta-v1 ops (empty for inline requests).
struct HotKey {
  int base = 0;
  std::vector<std::string> ops;
  Point point;
};

struct HotSlot {
  std::uint32_t line = 0;  // index into HotStream::lines
  std::uint32_t key = 0;   // index into HotStream::keys
};

struct HotStream {
  std::vector<TableSpec> bases;
  std::vector<std::string> base_texts;  // Table IV text per base
  std::vector<std::string> lines;       // interned request lines
  std::vector<HotKey> keys;
  /// Request kind per slot index — one schedule shared by every
  /// connection, so `kHot` slots line up across connections.
  std::vector<HotKind> schedule;
  std::vector<std::vector<HotSlot>> connections;
  /// Universe keys from most to least popular.
  std::vector<int> by_popularity;
};

HotStream make_serve_hot(std::uint64_t seed, int connections,
                         int per_connection);

// --------------------------------------------------------------------- churn

enum class ChurnClass { kRetune, kUic, kFlow, kLink, kHost };
inline constexpr int kChurnClasses = 5;
std::string_view churn_class_name(ChurnClass c);

inline constexpr int kChurnBlock = 20;
inline constexpr std::array<int, kChurnClasses> kChurnMix = {7, 5, 4, 2, 2};

/// The churn fabric: a k-ary fat-tree with locality-weighted flows over
/// the WEB/DB/SSH services (names as the program's standard catalog
/// spells them).
struct ChurnFabric {
  int k = 0;
  std::vector<std::string> hosts;
  std::vector<std::string> routers;
  std::vector<std::pair<std::string, std::string>> links;
  struct Flow {
    std::string src, dst, service;
    bool cr = false;
  };
  std::vector<Flow> flows;
  std::int64_t iso = 0, usab = 0, budget = 0;
};

struct ChurnStream {
  ChurnFabric fabric;
  std::vector<std::string> deltas;   // one cs-delta-v1 line per step
  std::vector<ChurnClass> classes;   // op class per step
};

/// `hosts` hosts on a fat-tree, `steps` single-op deltas. Every delta is
/// valid against the spec the previous ones produce.
ChurnStream make_churn(std::uint64_t seed, int hosts, int steps);

}  // namespace perfbench
