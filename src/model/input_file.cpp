#include "model/input_file.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace cs::model {

namespace {

/// Comment-skipping number tokenizer over the whole stream.
class TokenReader {
 public:
  explicit TokenReader(std::istream& in) {
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::string trimmed = util::trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      for (const std::string& tok : util::split_ws(trimmed)) {
        tokens_.push_back(tok);
        lines_.push_back(line_no);
      }
    }
  }

  long long next_int(std::string_view what) {
    CS_REQUIRE(pos_ < tokens_.size(),
               "unexpected end of input while reading " + std::string(what));
    const std::string& tok = tokens_[pos_];
    const int line = lines_[pos_];
    ++pos_;
    return util::parse_int(tok,
                           std::string(what) + " (line " +
                               std::to_string(line) + ")");
  }

  util::Fixed next_fixed(std::string_view what) {
    CS_REQUIRE(pos_ < tokens_.size(),
               "unexpected end of input while reading " + std::string(what));
    const std::string& tok = tokens_[pos_];
    const int line = lines_[pos_];
    ++pos_;
    return util::parse_fixed(tok, std::string(what) + " (line " +
                                      std::to_string(line) + ")");
  }

  bool exhausted() const { return pos_ >= tokens_.size(); }

 private:
  std::vector<std::string> tokens_;
  std::vector<int> lines_;
  std::size_t pos_ = 0;
};

IsolationPattern pattern_from_paper_id(long long id) {
  CS_REQUIRE(id >= 1 && id <= kPatternCount,
             "isolation pattern id out of range: " + std::to_string(id));
  return static_cast<IsolationPattern>(id - 1);
}

OrderRelation relation_from_code(long long code) {
  switch (code) {
    case 1:
      return OrderRelation::kEqual;
    case 2:
      return OrderRelation::kGreater;
    case 3:
      return OrderRelation::kGreaterEqual;
    default:
      throw util::SpecError("comparison code must be 1 (=), 2 (>) or 3 (>=)");
  }
}

}  // namespace

ProblemSpec parse_input(std::istream& in) {
  TokenReader r(in);
  ProblemSpec spec;

  // 1-2. Enabled isolation patterns.
  const long long pattern_count = r.next_int("number of isolation patterns");
  CS_REQUIRE(pattern_count >= 1 && pattern_count <= kPatternCount,
             "number of isolation patterns out of range");
  std::vector<IsolationPattern> enabled;
  std::vector<std::size_t> paper_to_enabled(kPatternCount + 1, SIZE_MAX);
  for (long long p = 0; p < pattern_count; ++p) {
    const long long id = r.next_int("isolation pattern id");
    const IsolationPattern pattern = pattern_from_paper_id(id);
    CS_REQUIRE(paper_to_enabled[static_cast<std::size_t>(id)] == SIZE_MAX,
               "pattern listed twice");
    paper_to_enabled[static_cast<std::size_t>(id)] = enabled.size();
    enabled.push_back(pattern);
  }

  // 3. Partial order over the enabled patterns.
  const long long order_rows = r.next_int("number of partial-order rows");
  CS_REQUIRE(order_rows >= 0, "negative partial-order count");
  std::vector<OrderConstraint> order;
  for (long long row = 0; row < order_rows; ++row) {
    const long long a = r.next_int("partial-order pattern a");
    const long long b = r.next_int("partial-order pattern b");
    const long long cmp = r.next_int("partial-order comparison");
    (void)pattern_from_paper_id(a);
    (void)pattern_from_paper_id(b);
    const std::size_t ia = paper_to_enabled[static_cast<std::size_t>(a)];
    const std::size_t ib = paper_to_enabled[static_cast<std::size_t>(b)];
    CS_REQUIRE(ia != SIZE_MAX && ib != SIZE_MAX,
               "partial order references a disabled pattern");
    order.push_back(OrderConstraint{ia, ib, relation_from_code(cmp)});
  }
  spec.isolation = IsolationConfig::from_partial_order(enabled, order);

  // 4. Device costs.
  for (const DeviceType d : kAllDevices) {
    const util::Fixed cost = r.next_fixed("device cost");
    CS_REQUIRE(cost >= util::Fixed{}, "device cost must be non-negative");
    spec.device_costs.set(d, cost);
  }

  // 5. Hosts and routers.
  const long long hosts = r.next_int("number of hosts");
  const long long routers = r.next_int("number of routers");
  CS_REQUIRE(hosts >= 2, "need at least two hosts");
  CS_REQUIRE(routers >= 0, "negative router count");
  std::vector<topology::NodeId> node_of(
      static_cast<std::size_t>(hosts + routers) + 1, topology::kInvalidNode);
  for (long long h = 1; h <= hosts; ++h)
    node_of[static_cast<std::size_t>(h)] =
        spec.network.add_host(util::concat({"h", std::to_string(h)}));
  for (long long rt = 1; rt <= routers; ++rt)
    node_of[static_cast<std::size_t>(hosts + rt)] =
        spec.network.add_router(util::concat({"r", std::to_string(rt)}));

  // 6. Links.
  const long long links = r.next_int("number of links");
  CS_REQUIRE(links >= 1, "need at least one link");
  for (long long l = 0; l < links; ++l) {
    const long long a = r.next_int("link endpoint a");
    const long long b = r.next_int("link endpoint b");
    CS_REQUIRE(a >= 1 && a <= hosts + routers, "link endpoint a out of range");
    CS_REQUIRE(b >= 1 && b <= hosts + routers, "link endpoint b out of range");
    spec.network.add_link(node_of[static_cast<std::size_t>(a)],
                          node_of[static_cast<std::size_t>(b)]);
  }

  // The Table IV example assumes one service between each host pair.
  const ServiceId svc = spec.services.add("svc");
  for (long long i = 1; i <= hosts; ++i)
    for (long long j = 1; j <= hosts; ++j)
      if (i != j)
        spec.flows.add(Flow{node_of[static_cast<std::size_t>(i)],
                            node_of[static_cast<std::size_t>(j)], svc});

  // 7. Connectivity requirements: one row per source host, 0-terminated.
  for (long long i = 1; i <= hosts; ++i) {
    while (true) {
      const long long j = r.next_int("connectivity destination");
      if (j == 0) break;
      CS_REQUIRE(j >= 1 && j <= hosts,
                 "connectivity destination out of range");
      CS_REQUIRE(j != i, "connectivity requirement to self");
      const auto id = spec.flows.find(
          Flow{node_of[static_cast<std::size_t>(i)],
               node_of[static_cast<std::size_t>(j)], svc});
      CS_ENSURE(id.has_value(), "flow table incomplete");
      spec.connectivity.add(*id);
    }
  }

  // 8. Sliders.
  spec.sliders.isolation = r.next_fixed("isolation slider");
  spec.sliders.usability = r.next_fixed("usability slider");
  spec.sliders.budget = r.next_fixed("budget slider");

  CS_REQUIRE(r.exhausted(), "trailing tokens after the sliders section");

  spec.finalize();
  spec.validate();
  return spec;
}

ProblemSpec parse_input_file(const std::string& path) {
  std::ifstream in(path);
  CS_REQUIRE(static_cast<bool>(in), "cannot open input file '" + path + "'");
  return parse_input(in);
}

std::string serialize_input(const ProblemSpec& spec) {
  CS_REQUIRE(spec.services.size() == 1,
             "serialize_input supports single-service specs only");
  std::ostringstream out;

  out << "# Number of Security Devices (enabled isolation patterns)\n";
  out << spec.isolation.enabled().size() << "\n";
  out << "# Pattern ids: 1 deny, 2 trusted, 3 inspection, 4 proxy, "
         "5 proxy+trusted\n";
  for (std::size_t i = 0; i < spec.isolation.enabled().size(); ++i)
    out << (i ? " " : "") << paper_id(spec.isolation.enabled()[i]);
  out << "\n";

  // Scores are already completed; emit them as an explicit total order via
  // pairwise '>'/'=' rows over adjacent patterns sorted by score.
  std::vector<IsolationPattern> sorted = spec.isolation.enabled();
  std::sort(sorted.begin(), sorted.end(),
            [&](IsolationPattern a, IsolationPattern b) {
              return spec.isolation.score(a) > spec.isolation.score(b);
            });
  out << "# Isolation Specifications (partial orders)\n";
  out << (sorted.size() - 1) << "\n";
  out << "# Pattern, Pattern, Comparison (1 '=', 2 '>', 3 '>=')\n";
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    const bool equal = spec.isolation.score(sorted[i]) ==
                       spec.isolation.score(sorted[i + 1]);
    out << paper_id(sorted[i]) << " " << paper_id(sorted[i + 1]) << " "
        << (equal ? 1 : 2) << "\n";
  }

  out << "# Cost of each security device (Firewall IPSec IDS Proxy, $K)\n";
  for (const DeviceType d : kAllDevices) {
    out << spec.device_costs.cost(d).to_string()
        << (d == kAllDevices.back() ? "\n" : " ");
  }

  const auto& net = spec.network;
  out << "# Number of Hosts and Routers\n";
  out << net.host_count() << " " << net.router_count() << "\n";

  // Node numbering: hosts 1..H in insertion order, routers H+1..H+R.
  std::vector<long long> number_of(net.node_count(), 0);
  long long next = 1;
  for (const topology::NodeId h : net.hosts())
    number_of[static_cast<std::size_t>(h)] = next++;
  for (const topology::NodeId rt : net.routers())
    number_of[static_cast<std::size_t>(rt)] = next++;

  out << "# Links\n" << net.link_count() << "\n";
  for (const topology::Link& l : net.links())
    out << number_of[static_cast<std::size_t>(l.a)] << " "
        << number_of[static_cast<std::size_t>(l.b)] << "\n";

  out << "# Connectivity Requirements (each row for a host, ends with 0)\n";
  for (const topology::NodeId i : net.hosts()) {
    for (const topology::NodeId j : net.hosts()) {
      if (i == j) continue;
      const auto id = spec.flows.find(Flow{i, j, 0});
      if (id.has_value() && spec.connectivity.required(*id))
        out << number_of[static_cast<std::size_t>(j)] << " ";
    }
    out << "0\n";
  }

  out << "# Sliders Values (Isolation 0-10, Usability 0-10, Cost in $K)\n";
  out << spec.sliders.isolation.to_string() << " "
      << spec.sliders.usability.to_string() << " "
      << spec.sliders.budget.to_string() << "\n";
  return out.str();
}

}  // namespace cs::model
