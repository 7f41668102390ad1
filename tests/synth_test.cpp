// Integration and property tests for the ConfigSynth core: encoder,
// synthesizer, optimizer, unsat analysis, assistance, baseline.
#include <gtest/gtest.h>

#include "analysis/checker.h"
#include "analysis/report.h"
#include "smt/ir.h"
#include "spec_helpers.h"
#include "synth/assistance.h"
#include "synth/baseline.h"
#include "synth/metrics.h"
#include "synth/optimizer.h"
#include "synth/synthesizer.h"
#include "synth/unsat_analysis.h"
#include "util/error.h"

namespace cs::synth {
namespace {

using cs::testing::make_example_spec;
using cs::testing::make_random_spec;
using smt::BackendKind;
using smt::CheckResult;

/// Options with a per-check cap for tests that probe threshold boundaries,
/// where instances are genuinely exponential (paper Fig. 5a).
SynthesisOptions capped_options(
    BackendKind kind = BackendKind::kZ3,
    std::int64_t limit_ms = 8000) {
  SynthesisOptions opts;
  opts.backend = kind;
  opts.check_time_limit_ms = limit_ms;
  return opts;
}

class BackendSynthTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  SynthesisOptions options() const { return SynthesisOptions{GetParam()}; }
};

TEST_P(BackendSynthTest, ExampleIsSatAndChecks) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, options());
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  ASSERT_TRUE(result.design.has_value());

  const analysis::CheckReport report =
      analysis::check_design(spec, *result.design);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.metrics.isolation, spec.sliders.isolation);
  EXPECT_GE(report.metrics.usability, spec.sliders.usability);
  EXPECT_LE(report.metrics.cost, spec.sliders.budget);
}

TEST_P(BackendSynthTest, ImpossibleSlidersAreUnsatWithCore) {
  model::ProblemSpec spec = make_example_spec();
  // Full isolation and full usability cannot hold at once.
  spec.sliders.isolation = util::Fixed::from_int(10);
  spec.sliders.usability = util::Fixed::from_int(10);
  Synthesizer synth(spec, options());
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kUnsat);
  EXPECT_FALSE(result.conflicting.empty());
  for (const ThresholdKind k : result.conflicting) {
    EXPECT_TRUE(k == ThresholdKind::kIsolation ||
                k == ThresholdKind::kUsability || k == ThresholdKind::kCost);
  }
}

TEST_P(BackendSynthTest, ResolveSwapsThresholdsWithoutReencoding) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, options());
  ASSERT_EQ(synth.synthesize().status, CheckResult::kSat);
  model::Sliders relaxed = spec.sliders;
  relaxed.isolation = util::Fixed::from_int(0);
  const SynthesisResult warm = synth.resolve(relaxed);
  EXPECT_EQ(warm.status, CheckResult::kSat);
  EXPECT_EQ(warm.encode_seconds, 0.0);
  EXPECT_EQ(synth.resolves(), 1);
  // The verdict matches a cold solve of the same triple.
  Synthesizer cold(spec, options());
  EXPECT_EQ(cold.synthesize(relaxed).status, warm.status);
}

TEST_P(BackendSynthTest, SolverStatisticsGrowMonotonically) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, options());
  const smt::SolverStats before = synth.solver_statistics();
  ASSERT_EQ(synth.synthesize().status, CheckResult::kSat);
  const smt::SolverStats after = synth.solver_statistics();
  // Counters are cumulative: a real check can only move them forward.
  EXPECT_GE(after.conflicts, before.conflicts);
  EXPECT_GE(after.propagations, before.propagations);
  EXPECT_GE(after.decisions, before.decisions);
  EXPECT_GT(after.propagations + after.decisions + after.conflicts, 0);
}

TEST_P(BackendSynthTest, ZeroBudgetForcesNoDevices) {
  model::ProblemSpec spec = make_example_spec();
  spec.sliders.isolation = util::Fixed{};
  spec.sliders.usability = util::Fixed{};
  spec.sliders.budget = util::Fixed{};
  Synthesizer synth(spec, options());
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  const DesignMetrics m = compute_metrics(spec, *result.design);
  EXPECT_EQ(m.cost, util::Fixed{});
}

TEST_P(BackendSynthTest, HighIsolationNeedsDevices) {
  model::ProblemSpec spec = make_example_spec();
  spec.sliders.isolation = util::Fixed::from_int(6);
  spec.sliders.usability = util::Fixed{};
  spec.sliders.budget = util::Fixed::from_int(200);
  Synthesizer synth(spec, options());
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  EXPECT_GT(result.design->device_count(), 0u);
  EXPECT_TRUE(analysis::check_design(spec, *result.design).ok());
}

TEST_P(BackendSynthTest, ConnectivityRequirementsNeverDenied) {
  model::ProblemSpec spec = make_example_spec();
  spec.sliders.isolation = util::Fixed::from_int(8);  // pressure to deny
  spec.sliders.usability = util::Fixed{};
  spec.sliders.budget = util::Fixed::from_int(300);
  Synthesizer synth(spec, options());
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  for (const model::FlowId f : spec.connectivity.sorted()) {
    EXPECT_NE(result.design->pattern(f),
              std::optional(model::IsolationPattern::kAccessDeny));
  }
}

TEST_P(BackendSynthTest, UserConstraintsRespected) {
  model::ProblemSpec spec = make_example_spec();
  const model::ServiceId svc = 0;
  const auto& hosts = spec.network.hosts();
  const model::Flow pinned{hosts[0], hosts[4], svc};
  spec.user_constraints.push_back(model::ForbidPatternForService{
      svc, model::IsolationPattern::kTrustedComm});
  spec.user_constraints.push_back(model::RequirePatternForFlow{
      pinned, model::IsolationPattern::kPayloadInspection});
  spec.sliders.isolation = util::Fixed::from_int(1);
  spec.sliders.budget = util::Fixed::from_int(150);
  Synthesizer synth(spec, SynthesisOptions{GetParam()});
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  const analysis::CheckReport report =
      analysis::check_design(spec, *result.design);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(result.design->pattern(*spec.flows.find(pinned)),
            model::IsolationPattern::kPayloadInspection);
}

TEST_P(BackendSynthTest, DenyOneOfEnforced) {
  model::ProblemSpec spec = make_example_spec();
  const auto& hosts = spec.network.hosts();
  const model::Flow open{hosts[0], hosts[6], 0};
  const model::Flow guard{hosts[9], hosts[0], 0};
  spec.user_constraints.push_back(model::DenyOneOf{open, guard});
  Synthesizer synth(spec, options());
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  const bool open_denied = result.design->pattern(*spec.flows.find(open)) ==
                           model::IsolationPattern::kAccessDeny;
  const bool guard_denied =
      result.design->pattern(*spec.flows.find(guard)) ==
      model::IsolationPattern::kAccessDeny;
  EXPECT_TRUE(open_denied || guard_denied);
}

TEST_P(BackendSynthTest, RandomSpecsSatisfyCheckerWhenSat) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const model::ProblemSpec spec = make_random_spec(seed, 8, 6);
    Synthesizer synth(spec, options());
    const SynthesisResult result = synth.synthesize();
    if (result.status == CheckResult::kSat) {
      const analysis::CheckReport report =
          analysis::check_design(spec, *result.design);
      EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                               << report.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSynthTest,
                         ::testing::Values(BackendKind::kZ3,
                                           BackendKind::kMiniPb),
                         [](const auto& info) {
                           return info.param == BackendKind::kZ3 ? "z3"
                                                                 : "minipb";
                         });

TEST(CrossBackend, VerdictsAgreeOnRandomSpecs) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const model::ProblemSpec spec = make_random_spec(seed, 7, 5);
    Synthesizer z3(spec, SynthesisOptions{BackendKind::kZ3});
    Synthesizer mini(spec, SynthesisOptions{BackendKind::kMiniPb});
    const auto rz = z3.synthesize().status;
    const auto rm = mini.synthesize().status;
    EXPECT_EQ(rz, rm) << "seed " << seed;
  }
}

TEST(Optimizer, FindsMaximumOnExample) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const BoundSearchResult best = maximize_isolation(
      synth, spec, util::Fixed::from_int(5), util::Fixed::from_int(60));
  ASSERT_TRUE(best.feasible);
  EXPECT_GE(best.metrics.isolation, best.bound);
  EXPECT_GE(best.metrics.usability, util::Fixed::from_int(5));
  EXPECT_LE(best.metrics.cost, util::Fixed::from_int(60));
  if (best.exact) {
    // One step above the proven maximum must not be satisfiable.
    const SynthesisResult above = synth.synthesize_partial(
        best.bound + util::Fixed::from_raw(50),
        util::Fixed::from_int(5), util::Fixed::from_int(60));
    EXPECT_NE(above.status, CheckResult::kSat);
  }
}

TEST(Optimizer, MonotoneInUsability) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const auto budget = util::Fixed::from_int(100);
  const BoundSearchResult loose =
      maximize_isolation(synth, spec, util::Fixed::from_int(2), budget);
  const BoundSearchResult tight =
      maximize_isolation(synth, spec, util::Fixed::from_int(8), budget);
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  if (loose.exact && tight.exact) {
    EXPECT_GE(loose.bound, tight.bound);
  }
}

TEST(Optimizer, MonotoneInBudget) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const auto usability = util::Fixed::from_int(5);
  const BoundSearchResult poor = maximize_isolation(
      synth, spec, usability, util::Fixed::from_int(20));
  const BoundSearchResult rich = maximize_isolation(
      synth, spec, usability, util::Fixed::from_int(200));
  ASSERT_TRUE(poor.feasible);
  ASSERT_TRUE(rich.feasible);
  if (poor.exact && rich.exact) {
    EXPECT_LE(poor.bound, rich.bound);
  }
}

TEST(MinCost, FindsCheapestDeployment) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const BoundSearchResult r = minimize_cost(synth, spec,
                                        util::Fixed::from_int(3),
                                        util::Fixed::from_int(4));
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.metrics.isolation, util::Fixed::from_int(3));
  EXPECT_GE(r.metrics.usability, util::Fixed::from_int(4));
  EXPECT_LE(r.metrics.cost, r.bound);
  if (r.exact) {
    // One grid step below the minimum must not be satisfiable.
    const SynthesisResult below = synth.synthesize_partial(
        util::Fixed::from_int(3), util::Fixed::from_int(4),
        r.bound - util::Fixed::from_int(1));
    EXPECT_NE(below.status, CheckResult::kSat);
  }
}

TEST(MinCost, ZeroFloorsCostNothing) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const BoundSearchResult r =
      minimize_cost(synth, spec, util::Fixed{}, util::Fixed{});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.bound, util::Fixed{});
}

TEST(MinCost, InfeasibleFloorsReported) {
  // Full isolation conflicts with connectivity requirements at any budget.
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const BoundSearchResult r = minimize_cost(
      synth, spec, util::Fixed::from_int(10), util::Fixed{});
  EXPECT_FALSE(r.feasible);
}

TEST(MinCost, MonotoneInIsolationFloor) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec, capped_options());
  const BoundSearchResult low = minimize_cost(
      synth, spec, util::Fixed::from_int(2), util::Fixed::from_int(4));
  const BoundSearchResult high = minimize_cost(
      synth, spec, util::Fixed::from_int(5), util::Fixed::from_int(4));
  ASSERT_TRUE(low.feasible);
  ASSERT_TRUE(high.feasible);
  if (low.exact && high.exact) {
    EXPECT_LE(low.bound, high.bound);
  }
}

TEST(UnsatAnalysis, SuggestsRelaxations) {
  model::ProblemSpec spec = make_example_spec();
  spec.sliders.isolation = util::Fixed::from_int(9);
  spec.sliders.usability = util::Fixed::from_int(9);
  spec.sliders.budget = util::Fixed::from_int(5);
  Synthesizer synth(spec, capped_options());
  const UnsatReport report = analyze_unsat(synth, spec);
  ASSERT_TRUE(report.was_unsat);
  EXPECT_FALSE(report.core.empty());
  EXPECT_FALSE(report.relaxations.empty());
  // Dropping everything in the core must be satisfiable (hard constraints
  // alone admit the all-open design).
  bool full_drop_found = false;
  for (const Relaxation& r : report.relaxations)
    full_drop_found |= r.dropped.size() == report.core.size();
  EXPECT_TRUE(full_drop_found);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(UnsatAnalysis, SatInputShortCircuits) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec);
  const UnsatReport report = analyze_unsat(synth, spec);
  EXPECT_FALSE(report.was_unsat);
  EXPECT_TRUE(report.core.empty());
}

TEST(Assistance, EndpointsMatchPaperScale) {
  const model::ProblemSpec spec = make_example_spec();
  const std::vector<SliderChoice> rows = slider_assistance(spec);
  ASSERT_GE(rows.size(), 4u);
  // Row 0: everything denied -> isolation 10, usability 0.
  EXPECT_EQ(rows[0].isolation, util::Fixed::from_int(10));
  EXPECT_EQ(rows[0].usability, util::Fixed::from_int(0));
  // Row 1: nothing isolated -> isolation 0, usability 10.
  EXPECT_EQ(rows[1].isolation, util::Fixed::from_int(0));
  EXPECT_EQ(rows[1].usability, util::Fixed::from_int(10));
  // Deny-except-CR sits between, high isolation.
  EXPECT_GT(rows[2].isolation, util::Fixed::from_int(7));
  EXPECT_LT(rows[2].isolation, util::Fixed::from_int(10));
  EXPECT_FALSE(render_assistance(rows).empty());
}

TEST(Baseline, ProducesStructurallyValidDesign) {
  model::ProblemSpec spec = make_example_spec();
  spec.sliders.isolation = util::Fixed::from_int(2);
  spec.sliders.usability = util::Fixed::from_int(3);
  spec.sliders.budget = util::Fixed::from_int(80);
  const BaselineResult result = greedy_baseline(spec);
  const analysis::CheckReport report =
      analysis::check_design(spec, result.design,
                             /*check_thresholds=*/false);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Budget and usability honored by construction.
  EXPECT_LE(result.metrics.cost, spec.sliders.budget);
  EXPECT_GE(result.metrics.usability, spec.sliders.usability);
}

TEST(Baseline, NeverBeatsOptimalIsolation) {
  for (std::uint64_t seed = 21; seed < 24; ++seed) {
    model::ProblemSpec spec = make_random_spec(seed, 6, 5);
    spec.sliders.usability = util::Fixed::from_int(4);
    spec.sliders.budget = util::Fixed::from_int(60);
    const BaselineResult greedy = greedy_baseline(spec);
    Synthesizer synth(spec, capped_options());
    const BoundSearchResult best = maximize_isolation(
        synth, spec, spec.sliders.usability, spec.sliders.budget);
    ASSERT_TRUE(best.feasible);
    if (best.exact) {
      EXPECT_LE(greedy.metrics.isolation.raw(),
                best.metrics.isolation.raw() + 50)  // grid slack
          << "seed " << seed;
    }
  }
}

TEST(Metrics, AllDenyScoresFullIsolationZeroUsability) {
  model::ProblemSpec spec = make_example_spec();
  SecurityDesign design(spec.flows.size(), spec.network.link_count());
  for (std::size_t f = 0; f < spec.flows.size(); ++f)
    design.set_pattern(static_cast<model::FlowId>(f),
                       model::IsolationPattern::kAccessDeny);
  const DesignMetrics m = compute_metrics(spec, design);
  EXPECT_EQ(m.isolation, util::Fixed::from_int(10));
  EXPECT_EQ(m.usability, util::Fixed::from_int(0));
  EXPECT_EQ(m.cost, util::Fixed::from_int(0));  // no devices placed
}

TEST(Metrics, EmptyDesignScoresZeroIsolationFullUsability) {
  const model::ProblemSpec spec = make_example_spec();
  const SecurityDesign design(spec.flows.size(), spec.network.link_count());
  const DesignMetrics m = compute_metrics(spec, design);
  EXPECT_EQ(m.isolation, util::Fixed::from_int(0));
  EXPECT_EQ(m.usability, util::Fixed::from_int(10));
}

TEST(Metrics, HostIsolationTracksProtection) {
  model::ProblemSpec spec = make_example_spec();
  SecurityDesign design(spec.flows.size(), spec.network.link_count());
  // Deny all traffic towards host[4] (h5) only.
  const topology::NodeId h5 = spec.network.hosts()[4];
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    if (spec.flows.flow(static_cast<model::FlowId>(f)).dst == h5)
      design.set_pattern(static_cast<model::FlowId>(f),
                         model::IsolationPattern::kAccessDeny);
  }
  const DesignMetrics m = compute_metrics(spec, design);
  // h5's isolation must exceed h1's.
  EXPECT_GT(m.host_isolation[4], m.host_isolation[0]);
}

TEST(MinimizePlacements, RemovesSlackKeepsValidity) {
  model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec);
  SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  SecurityDesign design = *result.design;
  const util::Fixed cost_before = compute_metrics(spec, design).cost;
  analysis::minimize_placements(spec, design);
  const analysis::CheckReport report = analysis::check_design(spec, design,
                                                              false);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(compute_metrics(spec, design).cost, cost_before);
}

TEST(Report, RendersForSatAndUnsat) {
  model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec);
  const SynthesisResult sat = synth.synthesize();
  EXPECT_NE(analysis::render_report(spec, sat).find("SAT"),
            std::string::npos);
  const SynthesisResult unsat = synth.synthesize_partial(
      util::Fixed::from_int(10), util::Fixed::from_int(10),
      util::Fixed::from_int(1));
  EXPECT_NE(analysis::render_report(spec, unsat).find("UNSAT"),
            std::string::npos);
}

TEST(Design, TableAndLabels) {
  const model::ProblemSpec spec = make_example_spec();
  Synthesizer synth(spec);
  const SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  EXPECT_FALSE(result.design->isolation_table(spec).empty());
  EXPECT_FALSE(result.design->to_string(spec).empty());
}

}  // namespace
}  // namespace cs::synth
