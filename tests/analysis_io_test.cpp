// Tests for design persistence (design_io), exposure reporting and the
// frontier API.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/checker.h"
#include "analysis/design_io.h"
#include "analysis/exposure.h"
#include "spec_helpers.h"
#include "synth/frontier.h"
#include "synth/synthesizer.h"

namespace cs::analysis {
namespace {

using cs::testing::make_example_spec;
using synth::SecurityDesign;
using util::Fixed;

SecurityDesign make_sample_design(const model::ProblemSpec& spec) {
  SecurityDesign d(spec.flows.size(), spec.network.link_count(),
                   spec.network.node_count());
  d.set_pattern(0, model::IsolationPattern::kAccessDeny);
  d.set_pattern(3, model::IsolationPattern::kPayloadInspection);
  d.set_placed(2, model::DeviceType::kFirewall, true);
  d.set_placed(2, model::DeviceType::kIds, true);
  d.set_placed(5, model::DeviceType::kIpsec, true);
  d.set_host_pattern(spec.network.hosts()[1],
                     model::HostPattern::kAntivirus);
  d.set_app_pattern(spec.network.hosts()[2], 0,
                    model::AppPattern::kAppHardening);
  return d;
}

TEST(DesignIo, RoundTrip) {
  const model::ProblemSpec spec = make_example_spec();
  const SecurityDesign original = make_sample_design(spec);
  const std::string text = design_to_text(original);
  const SecurityDesign loaded = design_from_text(text);

  EXPECT_EQ(loaded.flow_count(), original.flow_count());
  EXPECT_EQ(loaded.link_count(), original.link_count());
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded, original);
}

TEST(DesignIo, RoundTripOfSynthesizedDesign) {
  const model::ProblemSpec spec = make_example_spec();
  synth::Synthesizer synth(spec, synth::SynthesisOptions{});
  const synth::SynthesisResult r = synth.synthesize();
  ASSERT_EQ(r.status, smt::CheckResult::kSat);
  const SecurityDesign loaded =
      design_from_text(design_to_text(*r.design));
  EXPECT_EQ(loaded, *r.design);
  // A loaded design still passes the checker against the same spec.
  EXPECT_TRUE(check_design(spec, loaded).ok());
}

TEST(DesignIo, RejectsMalformedInput) {
  EXPECT_THROW(design_from_text(""), util::SpecError);
  EXPECT_THROW(design_from_text("wrong-magic 1\n"), util::SpecError);
  EXPECT_THROW(design_from_text("configsynth-design 2\n"),
               util::SpecError);
  // Truncated body.
  EXPECT_THROW(design_from_text("configsynth-design 1\nflows 3\n0 0\n"),
               util::SpecError);
  // Pattern id out of range.
  EXPECT_THROW(design_from_text("configsynth-design 1\nflows 1\n0 9\n"
                                "links 0 placed 0\nhost-patterns 0 placed "
                                "0\napp-patterns 0\nend\n"),
               util::SpecError);
}

TEST(DesignIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "configsynth-design 1\n\nflows 1\n\n0 1\nlinks 2 placed 1\n"
      "1 1 3\nhost-patterns 0 placed 0\napp-patterns 0\nend\n";
  const SecurityDesign d = design_from_text(text);
  EXPECT_EQ(d.pattern(0), model::IsolationPattern::kAccessDeny);
  EXPECT_TRUE(d.placed(1, model::DeviceType::kFirewall));
  EXPECT_TRUE(d.placed(1, model::DeviceType::kIds));
  EXPECT_FALSE(d.placed(0, model::DeviceType::kFirewall));
}

TEST(Exposure, ClassifiesProtections) {
  model::ProblemSpec spec = make_example_spec();
  spec.host_patterns = model::HostPatternConfig::defaults();
  SecurityDesign d(spec.flows.size(), spec.network.link_count(),
                   spec.network.node_count());
  const topology::NodeId h1 = spec.network.hosts()[0];
  const topology::NodeId h2 = spec.network.hosts()[1];
  // Deny everything into h1; host-protect h2.
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    if (spec.flows.flow(static_cast<model::FlowId>(f)).dst == h1)
      d.set_pattern(static_cast<model::FlowId>(f),
                    model::IsolationPattern::kAccessDeny);
  }
  d.set_host_pattern(h2, model::HostPattern::kHostFirewall);

  const std::vector<HostExposure> exp = compute_exposure(spec, d);
  ASSERT_EQ(exp.size(), spec.network.host_count());
  EXPECT_EQ(exp[0].denied, exp[0].incoming_flows);
  EXPECT_EQ(exp[0].open, 0u);
  EXPECT_EQ(exp[1].host_protected, exp[1].incoming_flows);
  EXPECT_GT(exp[2].open, 0u);  // untouched host stays open
  EXPECT_DOUBLE_EQ(exp[2].open_fraction(), 1.0);

  const std::string table = render_exposure(exp);
  EXPECT_NE(table.find("h1"), std::string::npos);
  EXPECT_NE(table.find("internet-exposed"), std::string::npos);
}

TEST(Exposure, FlagsInternetReachability) {
  model::ProblemSpec spec;
  const topology::NodeId inet = spec.network.add_internet();
  const topology::NodeId srv = spec.network.add_host("srv");
  const topology::NodeId r = spec.network.add_router("r1");
  spec.network.add_link(inet, r);
  spec.network.add_link(srv, r);
  const model::ServiceId web = spec.services.add("WEB");
  spec.flows.add(model::Flow{inet, srv, web});
  spec.finalize();

  SecurityDesign open(spec.flows.size(), spec.network.link_count());
  auto exp = compute_exposure(spec, open);
  // srv is the second host added.
  EXPECT_TRUE(exp[1].internet_exposed);

  SecurityDesign inspected = open;
  inspected.set_pattern(0, model::IsolationPattern::kPayloadInspection);
  exp = compute_exposure(spec, inspected);
  EXPECT_FALSE(exp[1].internet_exposed);
  EXPECT_EQ(exp[1].inspected, 1u);
}

TEST(Frontier, SweepsAndRenders) {
  const model::ProblemSpec spec = make_example_spec();
  synth::SynthesisOptions opts;
  opts.check_time_limit_ms = 8000;

  synth::FrontierOptions fopts;
  fopts.usability_floors = {Fixed::from_int(0), Fixed::from_int(6)};
  fopts.budgets = {Fixed::from_int(20), Fixed::from_int(80)};
  const auto points = synth::explore_frontier(spec, opts, fopts);
  ASSERT_EQ(points.size(), 4u);
  // Bigger budget dominates at the same floor (when both exact).
  if (points[0].exact && points[1].exact) {
    EXPECT_LE(points[0].max_isolation, points[1].max_isolation);
  }
  // Rendering mentions both budgets and all floors.
  const std::string table = synth::render_frontier(points);
  EXPECT_NE(table.find("$20"), std::string::npos);
  EXPECT_NE(table.find("$80"), std::string::npos);
  EXPECT_NE(table.find("6"), std::string::npos);
}

TEST(Frontier, DefaultsAreFig3Shaped) {
  const auto opts = synth::FrontierOptions::fig3_defaults(
      Fixed::from_int(10), Fixed::from_int(20));
  EXPECT_EQ(opts.usability_floors.size(), 6u);
  EXPECT_EQ(opts.budgets.size(), 2u);
}

}  // namespace
}  // namespace cs::analysis
