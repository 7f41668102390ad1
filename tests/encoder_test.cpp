// White-box tests of the SMT encoding: variable layout, placement
// implications, IPSec margin rules, threshold guard arithmetic.
#include <gtest/gtest.h>

#include "analysis/checker.h"
#include "smt/ir.h"
#include "synth/encoder.h"
#include "synth/metrics.h"
#include "synth/synthesizer.h"
#include "topology/generator.h"
#include "util/strings.h"

namespace cs::synth {
namespace {

using smt::BackendKind;
using smt::CheckResult;
using util::Fixed;

/// h1 - r1 - h2: the shortest possible routed pair (2 links).
model::ProblemSpec tiny_spec() {
  model::ProblemSpec spec;
  const topology::NodeId h1 = spec.network.add_host("h1");
  const topology::NodeId h2 = spec.network.add_host("h2");
  const topology::NodeId r1 = spec.network.add_router("r1");
  spec.network.add_link(h1, r1);
  spec.network.add_link(r1, h2);
  const model::ServiceId svc = spec.services.add("svc");
  spec.flows.add(model::Flow{h1, h2, svc});
  spec.flows.add(model::Flow{h2, h1, svc});
  spec.finalize();
  return spec;
}

/// h1 - r1 - r2 - r3 - r4 - h2: long chain (5 links, IPSec-feasible at T=2).
model::ProblemSpec chain_spec() {
  model::ProblemSpec spec;
  const topology::NodeId h1 = spec.network.add_host("h1");
  const topology::NodeId h2 = spec.network.add_host("h2");
  topology::NodeId prev = spec.network.add_router("r1");
  spec.network.add_link(h1, prev);
  for (int i = 2; i <= 4; ++i) {
    const topology::NodeId r =
        spec.network.add_router(util::concat({"r", std::to_string(i)}));
    spec.network.add_link(prev, r);
    prev = r;
  }
  spec.network.add_link(prev, h2);
  const model::ServiceId svc = spec.services.add("svc");
  spec.flows.add(model::Flow{h1, h2, svc});
  spec.flows.add(model::Flow{h2, h1, svc});
  spec.finalize();
  return spec;
}

TEST(Encoding, VariableLayoutCounts) {
  model::ProblemSpec spec = tiny_spec();
  auto backend = smt::make_backend(BackendKind::kMiniPb);
  topology::RouteTable routes(spec.network, spec.route_options);
  const Encoding enc(spec, routes, *backend);
  // 2 flows x 5 enabled patterns.
  EXPECT_EQ(enc.stats().flow_vars, 10u);
  // 1 unordered pair x 4 device types.
  EXPECT_EQ(enc.stats().pair_device_vars, 4u);
  // 2 links x 4 device types.
  EXPECT_EQ(enc.stats().placement_vars, 8u);
  // 2 ordered directions with flows.
  EXPECT_EQ(enc.stats().directed_pairs, 2u);
  EXPECT_NE(enc.y_var(0, model::IsolationPattern::kAccessDeny), smt::kNoVar);
  EXPECT_NE(enc.l_var(0, model::DeviceType::kFirewall), smt::kNoVar);
}

TEST(Encoding, DisabledPatternHasNoVariable) {
  model::ProblemSpec spec = tiny_spec();
  spec.isolation = model::IsolationConfig::from_partial_order(
      {model::IsolationPattern::kAccessDeny,
       model::IsolationPattern::kPayloadInspection},
      {{0, 1, model::OrderRelation::kGreater}});
  auto backend = smt::make_backend(BackendKind::kMiniPb);
  topology::RouteTable routes(spec.network, spec.route_options);
  const Encoding enc(spec, routes, *backend);
  EXPECT_EQ(enc.y_var(0, model::IsolationPattern::kTrustedComm),
            smt::kNoVar);
  EXPECT_NE(enc.y_var(0, model::IsolationPattern::kPayloadInspection),
            smt::kNoVar);
  // IPSec is unused by the enabled patterns: no placement variables.
  EXPECT_EQ(enc.l_var(0, model::DeviceType::kIpsec), smt::kNoVar);
}

TEST(Encoding, DenyForcesFirewallOnTheOnlyRoute) {
  model::ProblemSpec spec = tiny_spec();
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      spec.flows.flow(0), model::IsolationPattern::kAccessDeny});
  spec.sliders.budget = Fixed::from_int(100);
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  const SynthesisResult r = synth.synthesize();
  ASSERT_EQ(r.status, CheckResult::kSat);
  // Firewall on h1-r1 or r1-h2.
  EXPECT_TRUE(r.design->placed(0, model::DeviceType::kFirewall) ||
              r.design->placed(1, model::DeviceType::kFirewall));
  EXPECT_TRUE(analysis::check_design(spec, *r.design).ok());
}

TEST(Encoding, TrustedCommImpossibleOnShortRoute) {
  // Route length 2 < 2T+1 = 5: forcing trusted communication is UNSAT.
  model::ProblemSpec spec = tiny_spec();
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      spec.flows.flow(0), model::IsolationPattern::kTrustedComm});
  spec.sliders.budget = Fixed::from_int(1000);
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  EXPECT_EQ(synth.synthesize().status, CheckResult::kUnsat);
}

TEST(Encoding, TrustedCommPlacesGatewaysNearEndpoints) {
  model::ProblemSpec spec = chain_spec();
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      spec.flows.flow(0), model::IsolationPattern::kTrustedComm});
  spec.sliders.budget = Fixed::from_int(1000);
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  const SynthesisResult r = synth.synthesize();
  ASSERT_EQ(r.status, CheckResult::kSat);
  // Links 0..4 along the chain; T=2 => a gateway among links {0,1} and one
  // among links {3,4}.
  const bool head = r.design->placed(0, model::DeviceType::kIpsec) ||
                    r.design->placed(1, model::DeviceType::kIpsec);
  const bool tail = r.design->placed(3, model::DeviceType::kIpsec) ||
                    r.design->placed(4, model::DeviceType::kIpsec);
  EXPECT_TRUE(head);
  EXPECT_TRUE(tail);
  EXPECT_TRUE(analysis::check_design(spec, *r.design).ok());
}

TEST(Encoding, TunnelMarginThreeNeedsSevenLinks) {
  model::ProblemSpec spec = chain_spec();  // 5 links
  spec.isolation.set_tunnel_margin(3);     // needs >= 7 links
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      spec.flows.flow(0), model::IsolationPattern::kTrustedComm});
  spec.sliders.budget = Fixed::from_int(1000);
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  EXPECT_EQ(synth.synthesize().status, CheckResult::kUnsat);
}

TEST(Encoding, CompositePatternNeedsBothDevices) {
  model::ProblemSpec spec = chain_spec();
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      spec.flows.flow(0), model::IsolationPattern::kProxyTrusted});
  spec.sliders.budget = Fixed::from_int(1000);
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  const SynthesisResult r = synth.synthesize();
  ASSERT_EQ(r.status, CheckResult::kSat);
  bool proxy = false;
  bool ipsec = false;
  for (topology::LinkId e = 0; e < 5; ++e) {
    proxy |= r.design->placed(e, model::DeviceType::kProxy);
    ipsec |= r.design->placed(e, model::DeviceType::kIpsec);
  }
  EXPECT_TRUE(proxy);
  EXPECT_TRUE(ipsec);
}

TEST(Encoding, CostGuardIsTight) {
  // Denying the single flow pair requires one firewall = $5K; a $4.9K
  // budget with isolation 10 must be UNSAT, $5K SAT.
  model::ProblemSpec spec = tiny_spec();
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  const SynthesisResult ok = synth.synthesize_partial(
      Fixed::from_int(10), Fixed{}, Fixed::from_int(5));
  EXPECT_EQ(ok.status, CheckResult::kSat);
  const SynthesisResult broke = synth.synthesize_partial(
      Fixed::from_int(10), Fixed{}, Fixed::from_double(4.9));
  EXPECT_EQ(broke.status, CheckResult::kUnsat);
}

TEST(Encoding, AsymmetricFlowsScoreHalfIsolationWhenOpen) {
  // Only one direction carries a flow: the empty reverse direction counts
  // as fully isolated, so an all-open design scores I = 5.
  model::ProblemSpec spec;
  const topology::NodeId h1 = spec.network.add_host("h1");
  const topology::NodeId h2 = spec.network.add_host("h2");
  const topology::NodeId r1 = spec.network.add_router("r1");
  spec.network.add_link(h1, r1);
  spec.network.add_link(r1, h2);
  const model::ServiceId svc = spec.services.add("svc");
  spec.flows.add(model::Flow{h1, h2, svc});
  spec.finalize();
  const SecurityDesign open(1, 2);
  const DesignMetrics m = compute_metrics(spec, open);
  EXPECT_EQ(m.isolation, Fixed::from_int(5));
  // And the encoder agrees: isolation >= 5 is satisfiable with no devices,
  // isolation > 5 requires protecting the only flow.
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  const SynthesisResult at5 = synth.synthesize_partial(
      Fixed::from_int(5), std::nullopt, Fixed{});
  EXPECT_EQ(at5.status, CheckResult::kSat);
  const SynthesisResult above = synth.synthesize_partial(
      Fixed::from_double(5.1), std::nullopt, Fixed{});
  EXPECT_EQ(above.status, CheckResult::kUnsat);  // budget 0 forbids devices
}

TEST(Encoding, UsabilityGuardMatchesMetrics) {
  // Force deny on one of the two flows; usability = 5 exactly. The guard
  // at 5 must accept, at 5.001 must reject.
  model::ProblemSpec spec = tiny_spec();
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      spec.flows.flow(0), model::IsolationPattern::kAccessDeny});
  Synthesizer synth(spec, SynthesisOptions{BackendKind::kMiniPb});
  const SynthesisResult at5 = synth.synthesize_partial(
      std::nullopt, Fixed::from_int(5), Fixed::from_int(100));
  ASSERT_EQ(at5.status, CheckResult::kSat);
  EXPECT_EQ(compute_metrics(spec, *at5.design).usability,
            Fixed::from_int(5));
  const SynthesisResult above = synth.synthesize_partial(
      std::nullopt, Fixed::from_raw(5001), Fixed::from_int(100));
  EXPECT_EQ(above.status, CheckResult::kUnsat);
}

TEST(Encoding, SatisfiedModelsAlwaysPassChecker) {
  // Property: for a grid of slider triples on the paper topology, every
  // SAT model passes the independent checker.
  model::ProblemSpec spec;
  spec.network = topology::make_paper_example();
  const model::ServiceId svc = spec.services.add("svc");
  const auto& hosts = spec.network.hosts();
  for (const topology::NodeId i : hosts)
    for (const topology::NodeId j : hosts)
      if (i != j) spec.flows.add(model::Flow{i, j, svc});
  for (std::size_t f = 0; f < spec.flows.size(); f += 7)
    spec.connectivity.add(static_cast<model::FlowId>(f));
  spec.finalize();

  SynthesisOptions opts;
  opts.backend = BackendKind::kZ3;
  opts.check_time_limit_ms = 5000;
  Synthesizer synth(spec, opts);
  for (const int iso : {0, 2, 4}) {
    for (const int usab : {0, 3, 6}) {
      for (const int budget : {20, 80}) {
        spec.sliders = model::Sliders{Fixed::from_int(iso),
                                      Fixed::from_int(usab),
                                      Fixed::from_int(budget)};
        const SynthesisResult r = synth.synthesize(spec.sliders);
        if (r.status == CheckResult::kSat) {
          const analysis::CheckReport report =
              analysis::check_design(spec, *r.design);
          EXPECT_TRUE(report.ok())
              << "iso=" << iso << " usab=" << usab << " budget=" << budget
              << "\n"
              << report.to_string();
        }
      }
    }
  }
}

}  // namespace
}  // namespace cs::synth
