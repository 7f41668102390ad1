// Unit tests for the security domain model.
#include <gtest/gtest.h>

#include <sstream>

#include "model/device.h"
#include "model/flow.h"
#include "model/input_file.h"
#include "model/isolation.h"
#include "model/order.h"
#include "model/policy.h"
#include "model/requirements.h"
#include "model/service.h"
#include "model/spec.h"
#include "topology/generator.h"
#include "util/error.h"

namespace cs::model {
namespace {

using util::Fixed;

TEST(Order, PaperTableOneScores) {
  // The paper's partial order must complete to deny=4, trusted=2,
  // inspect=1, proxy=1, proxy+trusted=3 (Table I).
  const std::vector<int> scores =
      complete_order(kPatternCount, paper_pattern_order());
  EXPECT_EQ(scores[0], 4);  // access deny
  EXPECT_EQ(scores[1], 2);  // trusted communication
  EXPECT_EQ(scores[2], 1);  // payload inspection
  EXPECT_EQ(scores[3], 1);  // proxy
  EXPECT_EQ(scores[4], 3);  // proxy + trusted
}

TEST(Order, EqualityMergesItems) {
  const std::vector<int> scores = complete_order(
      3, {{0, 1, OrderRelation::kEqual}, {0, 2, OrderRelation::kGreater}});
  EXPECT_EQ(scores[0], scores[1]);
  EXPECT_GT(scores[0], scores[2]);
}

TEST(Order, WeakCycleBecomesEquality) {
  const std::vector<int> scores =
      complete_order(2, {{0, 1, OrderRelation::kGreaterEqual},
                         {1, 0, OrderRelation::kGreaterEqual}});
  EXPECT_EQ(scores[0], scores[1]);
}

TEST(Order, StrictCycleThrows) {
  EXPECT_THROW(complete_order(2, {{0, 1, OrderRelation::kGreater},
                                  {1, 0, OrderRelation::kGreater}}),
               util::SpecError);
  EXPECT_THROW(complete_order(2, {{0, 1, OrderRelation::kGreater},
                                  {1, 0, OrderRelation::kGreaterEqual}}),
               util::SpecError);
  EXPECT_THROW(complete_order(1, {{0, 0, OrderRelation::kGreater}}),
               util::SpecError);
}

TEST(Order, UnknownItemThrows) {
  EXPECT_THROW(complete_order(2, {{0, 5, OrderRelation::kGreater}}),
               util::SpecError);
}

TEST(Order, NoConstraintsAllEqual) {
  const std::vector<int> scores = complete_order(4, {});
  for (const int s : scores) EXPECT_EQ(s, 1);
}

TEST(Order, NormalizeSpansRange) {
  const std::vector<util::Fixed> out = normalize_scores(
      {1, 2, 3, 4}, Fixed::from_int(0), Fixed::from_int(10));
  EXPECT_EQ(out[0], Fixed::from_int(0));
  EXPECT_EQ(out[3], Fixed::from_int(10));
  EXPECT_LT(out[1], out[2]);
}

TEST(Order, NormalizeUniformMapsToTop) {
  const std::vector<util::Fixed> out =
      normalize_scores({2, 2}, Fixed::from_int(0), Fixed::from_int(10));
  EXPECT_EQ(out[0], Fixed::from_int(10));
  EXPECT_EQ(out[1], Fixed::from_int(10));
}

TEST(Isolation, DefaultsMatchPaperRatios) {
  const IsolationConfig cfg = IsolationConfig::defaults();
  // Table I ratios 4:2:1:1:3 normalized to (0, 10].
  EXPECT_EQ(cfg.score(IsolationPattern::kAccessDeny), Fixed::from_int(10));
  EXPECT_EQ(cfg.score(IsolationPattern::kTrustedComm), Fixed::from_int(5));
  EXPECT_EQ(cfg.score(IsolationPattern::kPayloadInspection),
            Fixed::from_double(2.5));
  EXPECT_EQ(cfg.score(IsolationPattern::kProxy), Fixed::from_double(2.5));
  EXPECT_EQ(cfg.score(IsolationPattern::kProxyTrusted),
            Fixed::from_double(7.5));
  EXPECT_EQ(cfg.max_enabled_score(), Fixed::from_int(10));
}

TEST(Isolation, AccessDenyKillsUsability) {
  const IsolationConfig cfg = IsolationConfig::defaults();
  EXPECT_EQ(cfg.usability(IsolationPattern::kAccessDeny, 0), Fixed{});
  EXPECT_EQ(cfg.usability(IsolationPattern::kTrustedComm, 0),
            Fixed::from_int(1));
}

TEST(Isolation, PerServiceUsabilityOverride) {
  IsolationConfig cfg = IsolationConfig::defaults();
  cfg.set_usability_override(IsolationPattern::kTrustedComm, 2,
                             Fixed::from_double(0.6));
  EXPECT_EQ(cfg.usability(IsolationPattern::kTrustedComm, 2),
            Fixed::from_double(0.6));
  EXPECT_EQ(cfg.usability(IsolationPattern::kTrustedComm, 1),
            Fixed::from_int(1));
}

TEST(Isolation, DeviceMapping) {
  EXPECT_EQ(devices_for(IsolationPattern::kAccessDeny),
            std::vector<DeviceType>{DeviceType::kFirewall});
  const auto& composite = devices_for(IsolationPattern::kProxyTrusted);
  EXPECT_EQ(composite.size(), 2u);
  EXPECT_TRUE(denies_flow(IsolationPattern::kAccessDeny));
  EXPECT_FALSE(denies_flow(IsolationPattern::kProxy));
}

TEST(Isolation, PaperIds) {
  EXPECT_EQ(paper_id(IsolationPattern::kAccessDeny), 1);
  EXPECT_EQ(paper_id(IsolationPattern::kProxyTrusted), 5);
  EXPECT_EQ(paper_id(DeviceType::kFirewall), 1);
  EXPECT_EQ(paper_id(DeviceType::kProxy), 4);
}

TEST(Isolation, TunnelMarginValidation) {
  IsolationConfig cfg = IsolationConfig::defaults();
  cfg.set_tunnel_margin(3);
  EXPECT_EQ(cfg.tunnel_margin(), 3);
  EXPECT_THROW(cfg.set_tunnel_margin(0), util::SpecError);
}

TEST(Device, CostDefaults) {
  const DeviceCosts costs = DeviceCosts::defaults();
  EXPECT_EQ(costs.cost(DeviceType::kFirewall), Fixed::from_int(5));
  EXPECT_EQ(costs.cost(DeviceType::kIpsec), Fixed::from_int(10));
  DeviceCosts c2;
  EXPECT_THROW(c2.set(DeviceType::kIds, Fixed::from_int(-1)),
               util::SpecError);
}

TEST(Service, CatalogLookup) {
  ServiceCatalog cat;
  const ServiceId web = cat.add("WEB", 6, 80);
  EXPECT_EQ(cat.find("WEB"), std::optional(web));
  EXPECT_FALSE(cat.find("SSH").has_value());
  EXPECT_THROW(cat.add("WEB"), util::SpecError);
  EXPECT_EQ(cat.service(web).port, 80);
}

TEST(FlowSet, AddFindDirected) {
  FlowSet flows;
  const FlowId f = flows.add(Flow{0, 1, 0});
  flows.add(Flow{0, 1, 1});
  flows.add(Flow{1, 0, 0});
  EXPECT_EQ(flows.find(Flow{0, 1, 0}), std::optional(f));
  EXPECT_EQ(flows.directed(0, 1).size(), 2u);
  EXPECT_EQ(flows.directed(1, 0).size(), 1u);
  EXPECT_TRUE(flows.directed(1, 2).empty());
  EXPECT_EQ(flows.directed_pairs().size(), 2u);
  EXPECT_THROW(flows.add(Flow{0, 1, 0}), util::SpecError);  // duplicate
  EXPECT_THROW(flows.add(Flow{2, 2, 0}), util::SpecError);  // self
}

TEST(Requirements, UniformRanks) {
  FlowSet flows;
  flows.add(Flow{0, 1, 0});
  flows.add(Flow{1, 0, 0});
  const FlowRanks ranks = FlowRanks::uniform(flows);
  EXPECT_EQ(ranks.total(), Fixed::from_int(2));
}

TEST(Requirements, ServiceOrderRanks) {
  FlowSet flows;
  flows.add(Flow{0, 1, 0});
  flows.add(Flow{0, 1, 1});
  // service 0 > service 1.
  const FlowRanks ranks = FlowRanks::from_service_order(
      flows, 2, {{0, 1, OrderRelation::kGreater}});
  EXPECT_GT(ranks.rank(0), ranks.rank(1));
  EXPECT_EQ(ranks.rank(0), Fixed::from_int(1));
}

TEST(Requirements, SetValidation) {
  FlowSet flows;
  flows.add(Flow{0, 1, 0});
  FlowRanks ranks = FlowRanks::uniform(flows);
  ranks.set(0, Fixed::from_double(0.5));
  EXPECT_EQ(ranks.rank(0), Fixed::from_double(0.5));
  EXPECT_THROW(ranks.set(0, Fixed{}), util::SpecError);
  EXPECT_THROW(ranks.set(0, Fixed::from_int(2)), util::SpecError);
}

TEST(Requirements, ConnectivitySet) {
  ConnectivityRequirements cr;
  cr.add(3);
  cr.add(1);
  cr.add(3);
  EXPECT_TRUE(cr.required(3));
  EXPECT_FALSE(cr.required(2));
  EXPECT_EQ(cr.sorted(), (std::vector<FlowId>{1, 3}));
}

TEST(Policy, Describe) {
  topology::Network net;
  net.add_host("a");
  net.add_host("b");
  ServiceCatalog cat;
  cat.add("WEB");
  const UserConstraint uc = ForbidPatternForService{
      0, IsolationPattern::kTrustedComm};
  EXPECT_NE(describe(uc, cat, net).find("WEB"), std::string::npos);
  const UserConstraint dn = DenyOneOf{Flow{0, 1, 0}, Flow{1, 0, 0}};
  EXPECT_NE(describe(dn, cat, net).find("a->b"), std::string::npos);
}

TEST(Spec, WorkloadPopulatesWithinBounds) {
  util::Rng rng(31);
  ProblemSpec spec;
  topology::GeneratorConfig cfg;
  cfg.hosts = 6;
  cfg.routers = 4;
  spec.network = topology::generate_topology(cfg, rng);
  WorkloadConfig wl;
  wl.service_count = 3;
  wl.cr_fraction = 0.2;
  populate_random_workload(spec, wl, rng);
  EXPECT_GE(spec.flows.size(), 30u);   // 6*5 pairs, >=1 each
  EXPECT_LE(spec.flows.size(), 90u);   // <=3 each
  const auto expected_cr = static_cast<std::size_t>(
      0.2 * static_cast<double>(spec.flows.size()) + 0.5);
  EXPECT_EQ(spec.connectivity.size(), expected_cr);
  EXPECT_NO_THROW(spec.validate());
}

TEST(Spec, ValidateCatchesDeniedRequirement) {
  util::Rng rng(33);
  ProblemSpec spec;
  topology::GeneratorConfig cfg;
  cfg.hosts = 3;
  cfg.routers = 2;
  spec.network = topology::generate_topology(cfg, rng);
  WorkloadConfig wl;
  wl.service_count = 1;
  wl.max_services_per_pair = 1;
  wl.cr_fraction = 0.5;
  populate_random_workload(spec, wl, rng);
  const FlowId required = spec.connectivity.sorted().front();
  spec.user_constraints.push_back(RequirePatternForFlow{
      spec.flows.flow(required), IsolationPattern::kAccessDeny});
  EXPECT_THROW(spec.validate(), util::SpecError);
}

TEST(Spec, StandardServices) {
  ServiceCatalog cat;
  add_standard_services(cat);
  EXPECT_EQ(cat.size(), 6u);
  EXPECT_TRUE(cat.find("WEB").has_value());
  EXPECT_TRUE(cat.find("DB").has_value());
}

TEST(InputFile, RoundTrip) {
  // Build a small single-service spec, serialize, parse back, compare.
  ProblemSpec spec;
  spec.network = topology::make_paper_example();
  const ServiceId svc = spec.services.add("svc");
  for (const topology::NodeId i : spec.network.hosts())
    for (const topology::NodeId j : spec.network.hosts())
      if (i != j) spec.flows.add(Flow{i, j, svc});
  spec.connectivity.add(*spec.flows.find(
      Flow{spec.network.hosts()[0], spec.network.hosts()[2], svc}));
  spec.sliders = Sliders{Fixed::from_int(5), Fixed::from_int(5),
                         Fixed::from_int(20)};
  spec.finalize();

  const std::string text = serialize_input(spec);
  std::istringstream in(text);
  const ProblemSpec parsed = parse_input(in);

  EXPECT_EQ(parsed.network.host_count(), spec.network.host_count());
  EXPECT_EQ(parsed.network.router_count(), spec.network.router_count());
  EXPECT_EQ(parsed.network.link_count(), spec.network.link_count());
  EXPECT_EQ(parsed.flows.size(), spec.flows.size());
  EXPECT_EQ(parsed.connectivity.size(), spec.connectivity.size());
  EXPECT_EQ(parsed.sliders.isolation, spec.sliders.isolation);
  EXPECT_EQ(parsed.sliders.budget, spec.sliders.budget);
  // Isolation scores survive the order round-trip.
  for (const IsolationPattern p : kAllPatterns)
    EXPECT_EQ(parsed.isolation.score(p), spec.isolation.score(p))
        << pattern_name(p);
}

TEST(InputFile, PaperTableIvExample) {
  // A hand-written file in the paper's Table IV format.
  const std::string text = R"(# Number of Security Devices
3
# pattern ids
1 2 3
# Isolation Specifications (partial orders)
2
# Device, Device, Comparison (1 for =, 2 for >, and 3 for >=)
1 2 2
2 3 2
# Cost of each isolation device
5 10 8 6
# Number of Hosts and Routers
4 2
# Links
5
1 5
2 5
3 6
4 6
5 6
# Connectivity Requirements (each row for a host, which ends with 0)
3 0
0
1 0
0
# Sliders Values
3 4 25
)";
  std::istringstream in(text);
  const ProblemSpec spec = parse_input(in);
  EXPECT_EQ(spec.network.host_count(), 4u);
  EXPECT_EQ(spec.network.router_count(), 2u);
  EXPECT_EQ(spec.flows.size(), 12u);
  EXPECT_EQ(spec.connectivity.size(), 2u);
  EXPECT_EQ(spec.isolation.enabled().size(), 3u);
  EXPECT_GT(spec.isolation.score(IsolationPattern::kAccessDeny),
            spec.isolation.score(IsolationPattern::kTrustedComm));
  EXPECT_EQ(spec.sliders.budget, Fixed::from_int(25));
}

TEST(InputFile, NumbersMustBeFiniteAndInRange) {
  // Device costs and sliders become fixed-point values: inf, nan and
  // values whose thousandths overflow int64 are errors naming the field
  // (a plain `cost >= 0` check would let inf through).
  const std::string head = "3\n1 2 3\n2\n1 2 2\n2 3 2\n";
  const std::string net = "4 2\n5\n1 5\n2 5\n3 6\n4 6\n5 6\n3 0\n0\n0\n0\n";
  const auto parse = [&](const std::string& costs, const std::string& sliders) {
    std::istringstream in(head + costs + "\n" + net + sliders + "\n");
    return parse_input(in);
  };
  EXPECT_NO_THROW(parse("5 10 8 6", "3 4 25"));
  for (const std::string costs :
       {"inf 10 8 6", "5 nan 8 6", "5 10 1e300 6", "5 10 8 -inf"}) {
    try {
      (void)parse(costs, "3 4 25");
      ADD_FAILURE() << costs << " parsed";
    } catch (const util::SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("device cost"), std::string::npos)
          << e.what();
    }
  }
  for (const std::string sliders : {"inf 4 25", "3 nan 25", "3 4 1e17"}) {
    try {
      (void)parse("5 10 8 6", sliders);
      ADD_FAILURE() << sliders << " parsed";
    } catch (const util::SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("slider"), std::string::npos)
          << e.what();
    }
  }
}

TEST(InputFile, MalformedInputsThrow) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return parse_input(in);
  };
  EXPECT_THROW(parse(""), util::SpecError);
  EXPECT_THROW(parse("9"), util::SpecError);            // bad pattern count
  EXPECT_THROW(parse("1\n1\n0\n5 5 5 5\n1 0\n"), util::SpecError);
}

}  // namespace
}  // namespace cs::model
