// Tests for the sharded synthesis subsystem (src/shard):
//   * partition_topology — assignment totality, cut-link bookkeeping,
//     determinism, host balance, and non-collapse on symmetric fabrics
//     (a fat-tree defeats nearest-seed assignment; the host-weighted BFS
//     growth must keep every region populated);
//   * plan_shards / project_spec — flows survive iff both endpoints do,
//     user constraints iff the flows they name do, host requirements iff
//     the host does; id maps lift back to the parent spec, budget shares
//     never exceed the global budget;
//   * ShardedSynthesizer — the verdict contract (sharded == monolithic
//     on SAT and UNSAT inputs), stitched designs passing the global
//     checker, byte-identical results at any --jobs value, trivial
//     regions, and the fallback path.
//
// Everything runs MiniPB with deterministic conflict caps so the suite
// is reproducible on any machine. Labelled `parallel` in CMake: the
// jobs>1 cases exercise the region thread pool under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/checker.h"
#include "shard/sharded.h"
#include "spec_helpers.h"
#include "topology/structured.h"

namespace cs::shard {
namespace {

using cs::testing::make_example_spec;
using cs::testing::make_random_spec;
using smt::BackendKind;
using smt::CheckResult;

synth::SynthesisOptions minipb_options() {
  synth::SynthesisOptions options;
  options.backend = BackendKind::kMiniPb;
  options.check_conflict_limit = 50'000;
  return options;
}

/// Small structured spec with a locality workload (the shape sharding is
/// for): neighbor WEB flows along the host index, every 10th flow a
/// connectivity requirement.
model::ProblemSpec make_campus_spec(int hosts) {
  model::ProblemSpec spec;
  spec.network = topology::make_structured(topology::TopologyKind::kCampus,
                                           hosts, 11);
  const model::ServiceId svc = spec.services.add("WEB");
  const auto& hs = spec.network.hosts();
  for (std::size_t i = 0; i + 1 < hs.size(); ++i) {
    spec.flows.add(model::Flow{hs[i], hs[i + 1], svc});
    if (i + 2 < hs.size()) spec.flows.add(model::Flow{hs[i], hs[i + 2], svc});
  }
  for (std::size_t f = 0; f < spec.flows.size(); f += 10)
    spec.connectivity.add(static_cast<model::FlowId>(f));
  spec.sliders = model::Sliders{util::Fixed::from_int(3),
                                util::Fixed::from_int(3),
                                util::Fixed::from_int(10 * hosts)};
  spec.finalize();
  return spec;
}

// ---- partition_topology ----------------------------------------------------

void expect_partition_invariants(const topology::Network& net,
                                 const Partition& p) {
  ASSERT_GE(p.regions, 1);
  ASSERT_EQ(p.region_of.size(), net.node_count());
  for (const int r : p.region_of) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, p.regions);
  }
  // members is the exact inverse of region_of, ascending.
  ASSERT_EQ(p.members.size(), static_cast<std::size_t>(p.regions));
  std::size_t member_total = 0;
  for (int r = 0; r < p.regions; ++r) {
    member_total += p.members[static_cast<std::size_t>(r)].size();
    EXPECT_TRUE(std::is_sorted(p.members[static_cast<std::size_t>(r)].begin(),
                               p.members[static_cast<std::size_t>(r)].end()));
    for (const topology::NodeId n : p.members[static_cast<std::size_t>(r)])
      EXPECT_EQ(p.region_of[static_cast<std::size_t>(n)], r);
  }
  EXPECT_EQ(member_total, net.node_count());
  // Every region owns at least one router, and cut_links is exactly the
  // set of region-crossing links.
  for (int r = 0; r < p.regions; ++r) {
    const auto& members = p.members[static_cast<std::size_t>(r)];
    EXPECT_TRUE(std::any_of(members.begin(), members.end(),
                            [&](topology::NodeId n) {
                              return net.is_router(n);
                            }))
        << "region " << r << " has no router";
  }
  std::set<topology::LinkId> expected_cut;
  for (const topology::Link& l : net.links()) {
    if (p.region_of[static_cast<std::size_t>(l.a)] !=
        p.region_of[static_cast<std::size_t>(l.b)])
      expected_cut.insert(l.id);
  }
  EXPECT_EQ(std::set<topology::LinkId>(p.cut_links.begin(),
                                       p.cut_links.end()),
            expected_cut);
  EXPECT_TRUE(std::is_sorted(p.cut_links.begin(), p.cut_links.end()));
}

TEST(PartitionTest, InvariantsAcrossFamiliesAndCounts) {
  for (const topology::TopologyKind kind :
       {topology::TopologyKind::kFatTree, topology::TopologyKind::kCampus,
        topology::TopologyKind::kIsp}) {
    const topology::Network net = topology::make_structured(kind, 60, 5);
    for (const int regions : {0, 2, 3, 5}) {
      const Partition p = partition_topology(net, regions);
      expect_partition_invariants(net, p);
      if (regions >= 2) {
        EXPECT_EQ(p.regions, std::min<int>(
                                 regions,
                                 static_cast<int>(net.router_count())));
      }
    }
  }
}

TEST(PartitionTest, Deterministic) {
  const topology::Network net =
      topology::make_structured(topology::TopologyKind::kFatTree, 128, 9);
  const Partition a = partition_topology(net, 4);
  const Partition b = partition_topology(net, 4);
  EXPECT_EQ(a.region_of, b.region_of);
  EXPECT_EQ(a.cut_links, b.cut_links);
}

TEST(PartitionTest, FatTreeDoesNotCollapseAndBalancesHosts) {
  // Symmetric fabric: every edge switch is equidistant from every core,
  // the case where nearest-seed assignment degenerates to one region.
  const topology::Network net =
      topology::make_structured(topology::TopologyKind::kFatTree, 200, 9);
  const Partition p = partition_topology(net, 4);
  ASSERT_EQ(p.regions, 4);
  std::vector<int> hosts_in(4, 0);
  for (const topology::NodeId h : net.hosts())
    ++hosts_in[static_cast<std::size_t>(p.region_of[static_cast<std::size_t>(
        h)])];
  const int avg = 200 / 4;
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(hosts_in[static_cast<std::size_t>(r)], avg / 4)
        << "region " << r << " starved of hosts";
    EXPECT_LE(hosts_in[static_cast<std::size_t>(r)], avg * 3)
        << "region " << r << " swallowed the fabric";
  }
}

// ---- plan_shards / project_spec --------------------------------------------

TEST(PlannerTest, ProjectionKeepsExactlyTheIntraRegionFlows) {
  const model::ProblemSpec spec = make_campus_spec(24);
  const ShardPlan plan = plan_shards(spec, ShardPlannerOptions{3});

  std::size_t projected_flows = 0;
  util::Fixed budget_total;
  for (const RegionPlan& region : plan.regions) {
    const model::SpecProjection& proj = region.projection;
    projected_flows += proj.flows.size();
    budget_total += proj.spec.sliders.budget;
    ASSERT_EQ(proj.flows.size(), proj.spec.flows.size());
    for (std::size_t lf = 0; lf < proj.flows.size(); ++lf) {
      // The local flow lifts to a global flow between the lifted
      // endpoints, both inside this region.
      const model::Flow& local =
          proj.spec.flows.flow(static_cast<model::FlowId>(lf));
      const model::Flow& global = spec.flows.flow(proj.flows[lf]);
      EXPECT_EQ(proj.nodes[static_cast<std::size_t>(local.src)], global.src);
      EXPECT_EQ(proj.nodes[static_cast<std::size_t>(local.dst)], global.dst);
      EXPECT_EQ(local.service, global.service);
      EXPECT_EQ(
          plan.partition.region_of[static_cast<std::size_t>(global.src)],
          region.index);
      EXPECT_EQ(
          plan.partition.region_of[static_cast<std::size_t>(global.dst)],
          region.index);
    }
  }
  // Intra flows + cross flows tile the global flow set, and the floored
  // budget shares never overshoot the global budget.
  EXPECT_EQ(projected_flows + plan.cross_flows.size(), spec.flows.size());
  EXPECT_LE(budget_total, spec.sliders.budget);
  for (const model::FlowId f : plan.cross_flows) {
    const model::Flow& flow = spec.flows.flow(f);
    EXPECT_NE(plan.partition.region_of[static_cast<std::size_t>(flow.src)],
              plan.partition.region_of[static_cast<std::size_t>(flow.dst)]);
  }
}

TEST(PlannerTest, ProjectionKeepsThePolicyOverWhatSurvives) {
  model::ProblemSpec spec = make_campus_spec(24);
  const Partition part = partition_topology(spec.network, 3);
  const auto region_of = [&](topology::NodeId n) {
    return part.region_of[static_cast<std::size_t>(n)];
  };
  // Two flows inside region 0, one inside another region, one crossing.
  std::vector<model::Flow> in0;
  std::vector<model::Flow> elsewhere;
  std::vector<model::Flow> crossing;
  for (const model::Flow& f : spec.flows.all()) {
    if (region_of(f.src) != region_of(f.dst)) {
      crossing.push_back(f);
    } else {
      (region_of(f.src) == 0 ? in0 : elsewhere).push_back(f);
    }
  }
  ASSERT_GE(in0.size(), 2u);
  ASSERT_FALSE(elsewhere.empty());
  ASSERT_FALSE(crossing.empty());

  using model::IsolationPattern;
  const model::ServiceId web = *spec.services.find("WEB");
  spec.user_constraints = {
      model::ForbidPatternForService{web, IsolationPattern::kProxy},
      model::ForbidPatternForFlow{in0[0], IsolationPattern::kTrustedComm},
      model::RequirePatternForFlow{crossing[0],
                                   IsolationPattern::kPayloadInspection},
      model::DenyOneOf{in0[0], in0[1]},
      model::DenyOneOf{in0[1], elsewhere[0]},  // straddles two regions
  };
  spec.host_requirements = {
      {in0[0].src, util::Fixed::from_int(2)},
      {elsewhere[0].src, util::Fixed::from_int(3)},
  };
  spec.validate();

  const ShardPlan plan = plan_shards(spec, ShardPlannerOptions{3});
  ASSERT_EQ(plan.partition.region_of, part.region_of);
  const int other = region_of(elsewhere[0].src);
  for (const RegionPlan& region : plan.regions) {
    const model::SpecProjection& proj = region.projection;
    // Global -> local node id; the kept node must be in the region.
    const auto local = [&](topology::NodeId global) {
      const auto it =
          std::lower_bound(proj.nodes.begin(), proj.nodes.end(), global);
      EXPECT_TRUE(it != proj.nodes.end() && *it == global);
      return static_cast<topology::NodeId>(it - proj.nodes.begin());
    };
    const auto local_flow = [&](const model::Flow& f) {
      return model::Flow{local(f.src), local(f.dst), f.service};
    };
    // forbid-service survives everywhere; the crossing require-flow and
    // the straddling deny-one-of survive nowhere.
    std::vector<model::UserConstraint> want{model::ForbidPatternForService{
        web, IsolationPattern::kProxy}};
    if (region.index == 0) {
      want.push_back(model::ForbidPatternForFlow{
          local_flow(in0[0]), IsolationPattern::kTrustedComm});
      want.push_back(
          model::DenyOneOf{local_flow(in0[0]), local_flow(in0[1])});
    }
    EXPECT_EQ(proj.spec.user_constraints, want) << "region " << region.index;

    if (region.index == 0 || region.index == other) {
      const model::HostIsolationRequirement& global =
          spec.host_requirements[region.index == 0 ? 0 : 1];
      ASSERT_EQ(proj.spec.host_requirements.size(), 1u);
      EXPECT_EQ(proj.spec.host_requirements[0].host, local(global.host));
      EXPECT_EQ(proj.spec.host_requirements[0].min_isolation,
                global.min_isolation);
    } else {
      EXPECT_TRUE(proj.spec.host_requirements.empty());
    }
  }
}

TEST(PlannerTest, PlanDigestIsStable) {
  const model::ProblemSpec spec = make_campus_spec(24);
  const ShardPlan a = plan_shards(spec, ShardPlannerOptions{3});
  const ShardPlan b = plan_shards(spec, ShardPlannerOptions{3});
  EXPECT_EQ(a.plan_digest, b.plan_digest);
  const ShardPlan c = plan_shards(spec, ShardPlannerOptions{2});
  EXPECT_NE(a.plan_digest, c.plan_digest);
}

// ---- ShardedSynthesizer ----------------------------------------------------

TEST(ShardedTest, MatchesMonolithicVerdictOnExampleSpec) {
  const model::ProblemSpec spec = make_example_spec();
  synth::Synthesizer mono(spec, minipb_options());
  const synth::SynthesisResult expected = mono.synthesize();

  ShardOptions options;
  options.synthesis = minipb_options();
  options.regions = 2;
  const ShardedOutcome outcome = ShardedSynthesizer(spec, options).synthesize();
  EXPECT_EQ(outcome.status, expected.status);
  if (outcome.status == CheckResult::kSat) {
    ASSERT_TRUE(outcome.design.has_value());
    EXPECT_TRUE(analysis::check_design(spec, *outcome.design).ok());
  }
}

TEST(ShardedTest, MatchesMonolithicVerdictOnRandomSpecs) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    model::ProblemSpec spec = make_random_spec(seed, 16, 8);
    spec.sliders = model::Sliders{util::Fixed::from_int(3),
                                  util::Fixed::from_int(3),
                                  util::Fixed::from_int(160)};
    spec.finalize();
    synth::Synthesizer mono(spec, minipb_options());
    const synth::SynthesisResult expected = mono.synthesize();

    ShardOptions options;
    options.synthesis = minipb_options();
    options.regions = 2;
    const ShardedOutcome outcome =
        ShardedSynthesizer(spec, options).synthesize();
    EXPECT_EQ(outcome.status, expected.status) << "seed " << seed;
    if (outcome.status == CheckResult::kSat) {
      ASSERT_TRUE(outcome.design.has_value());
      EXPECT_TRUE(analysis::check_design(spec, *outcome.design).ok())
          << "seed " << seed;
    }
  }
}

TEST(ShardedTest, StitchedCampusSolveAvoidsFallback) {
  // The locality workload on a campus fabric is the case sharding is
  // built for: every region solves and the stitched design passes the
  // global check with no monolithic fallback.
  const model::ProblemSpec spec = make_campus_spec(40);
  ShardOptions options;
  options.synthesis = minipb_options();
  options.regions = 3;
  const ShardedOutcome outcome = ShardedSynthesizer(spec, options).synthesize();
  EXPECT_EQ(outcome.status, CheckResult::kSat);
  EXPECT_TRUE(outcome.sharded);
  EXPECT_FALSE(outcome.used_fallback);
  ASSERT_TRUE(outcome.design.has_value());
  EXPECT_TRUE(analysis::check_design(spec, *outcome.design).ok());
  EXPECT_EQ(outcome.region_outcomes.size(), 3u);
  for (const RegionOutcome& r : outcome.region_outcomes)
    EXPECT_EQ(r.status, CheckResult::kSat);
}

TEST(ShardedTest, ByteIdenticalAtAnyJobsValue) {
  const model::ProblemSpec spec = make_campus_spec(40);
  ShardOptions options;
  options.synthesis = minipb_options();
  options.regions = 3;
  options.jobs = 1;
  const ShardedOutcome serial = ShardedSynthesizer(spec, options).synthesize();
  options.jobs = 4;
  const ShardedOutcome parallel =
      ShardedSynthesizer(spec, options).synthesize();
  EXPECT_EQ(serial.status, parallel.status);
  EXPECT_EQ(serial.used_fallback, parallel.used_fallback);
  EXPECT_EQ(serial.escalated_flows, parallel.escalated_flows);
  EXPECT_EQ(serial.repair_placements, parallel.repair_placements);
  ASSERT_EQ(serial.design.has_value(), parallel.design.has_value());
  if (serial.design.has_value()) {
    EXPECT_TRUE(*serial.design == *parallel.design);
  }
  ASSERT_EQ(serial.region_outcomes.size(), parallel.region_outcomes.size());
  for (std::size_t r = 0; r < serial.region_outcomes.size(); ++r) {
    EXPECT_EQ(serial.region_outcomes[r].status,
              parallel.region_outcomes[r].status);
    EXPECT_EQ(serial.region_outcomes[r].sub_digest,
              parallel.region_outcomes[r].sub_digest);
  }
}

TEST(ShardedTest, UnsatVerdictMatchesThroughFallback) {
  // Impossible thresholds: maximum isolation and usability on a zero
  // budget. Regions report UNSAT, the pipeline falls back, and the
  // verdict matches the monolithic solve.
  model::ProblemSpec spec = make_campus_spec(24);
  spec.sliders = model::Sliders{util::Fixed::from_int(10),
                                util::Fixed::from_int(10), util::Fixed{}};
  spec.finalize();
  synth::Synthesizer mono(spec, minipb_options());
  const synth::SynthesisResult expected = mono.synthesize();
  ASSERT_EQ(expected.status, CheckResult::kUnsat);

  ShardOptions options;
  options.synthesis = minipb_options();
  options.regions = 2;
  const ShardedOutcome outcome = ShardedSynthesizer(spec, options).synthesize();
  EXPECT_EQ(outcome.status, CheckResult::kUnsat);
  EXPECT_TRUE(outcome.used_fallback);
  EXPECT_FALSE(outcome.sharded);
}

TEST(ShardedTest, RegionsWithoutFlowsAreTrivial) {
  // All flows among the first few hosts: at least one region has no
  // flows and must be solved vacuously (empty design), not rejected.
  model::ProblemSpec spec;
  spec.network = topology::make_structured(topology::TopologyKind::kCampus,
                                           24, 11);
  const model::ServiceId svc = spec.services.add("WEB");
  const auto& hs = spec.network.hosts();
  for (std::size_t i = 0; i + 1 < 4; ++i)
    spec.flows.add(model::Flow{hs[i], hs[i + 1], svc});
  spec.sliders = model::Sliders{util::Fixed::from_int(3),
                                util::Fixed::from_int(3),
                                util::Fixed::from_int(60)};
  spec.finalize();

  ShardOptions options;
  options.synthesis = minipb_options();
  options.regions = 3;
  const ShardedOutcome outcome = ShardedSynthesizer(spec, options).synthesize();
  EXPECT_EQ(outcome.status, CheckResult::kSat);
  EXPECT_TRUE(std::any_of(outcome.region_outcomes.begin(),
                          outcome.region_outcomes.end(),
                          [](const RegionOutcome& r) { return r.trivial; }));
  ASSERT_TRUE(outcome.design.has_value());
  EXPECT_TRUE(analysis::check_design(spec, *outcome.design).ok());
}

}  // namespace
}  // namespace cs::shard
