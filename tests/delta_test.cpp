// cs-delta-v1 changefeed tests (model/delta.h, docs/DELTAS.md) and the
// incremental re-synthesis contract (Synthesizer::apply_delta).
//
// Covered here:
//   - canonical round-trip: parse_delta(render_delta(d)) == d for every
//     op kind, every uic form and every retune knob combination
//   - grammar rejection of non-canonical text (the wire format is
//     exactly one spelling per delta)
//   - transactional apply: a failing op leaves the input spec — and a
//     live Synthesizer — byte-identical (same cs-spec-v1 digest)
//   - cascade semantics of remove-host / remove-flow
//   - sub-digest sensitivity: each op class moves exactly the
//     fingerprint sections docs/DELTAS.md says it moves
//   - the incremental-verdict contract: every apply_delta tier returns
//     the cold verdict on the post-delta spec, with byte-identical
//     designs on the replay/full tiers
//   - two independent churn streams on concurrent threads (the
//     `parallel` label puts this under the TSan job)
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/checker.h"
#include "common/workloads.h"
#include "model/delta.h"
#include "model/fingerprint.h"
#include "spec_helpers.h"
#include "synth/synthesizer.h"

namespace cs {
namespace {

using cs::testing::make_example_spec;
using model::DeltaOp;
using model::DeltaOpKind;
using model::SpecDelta;
using model::apply_delta;
using model::parse_delta;
using model::render_delta;
using smt::BackendKind;
using smt::CheckResult;

SpecDelta delta_of(std::string_view text) { return parse_delta(text); }

// ---------------------------------------------------------------------
// Canonical round-trip
// ---------------------------------------------------------------------

TEST(DeltaGrammar, RoundTripsEveryOpForm) {
  // One canonical spelling per op form; parse must invert render and
  // re-render must reproduce the input byte for byte.
  const char* kCanonical[] = {
      "add-host,web-9,r1",
      "add-host,lab,r2,4",
      "remove-host,h3",
      "fail-link,r1,r2",
      "restore-link,r1,r2",
      "add-flow,h1,h2,svc",
      "add-flow,h1,h2,svc,cr",
      "remove-flow,h1,h2,svc",
      "add-uic,forbid-service,svc,access-deny",
      "add-uic,forbid-flow,h1,h2,svc,proxy",
      "add-uic,require-flow,h1,h2,svc,payload-inspection",
      "add-uic,deny-one-of,h1,h2,svc,h2,h1,svc",
      "remove-uic,forbid-service,svc,trusted-comm",
      "remove-uic,forbid-flow,h1,h2,svc,proxy-trusted",
      "retune,iso=4",
      "retune,usab=3.5",
      "retune,budget=70",
      "retune,iso=4,usab=3.5",
      "retune,usab=3.5,budget=70",
      "retune,iso=4,usab=3.5,budget=70",
      // Multi-op batch: ops keep their order through the round-trip.
      "add-host,n1,r1;add-flow,n1,h1,svc,cr;retune,iso=5",
  };
  for (const char* text : kCanonical) {
    const SpecDelta delta = parse_delta(text);
    EXPECT_EQ(render_delta(delta), text);
    EXPECT_EQ(parse_delta(render_delta(delta)), delta) << text;
  }
}

TEST(DeltaGrammar, PatternTokensRoundTrip) {
  for (int i = 0; i < model::kPatternCount; ++i) {
    const auto p = static_cast<model::IsolationPattern>(i);
    EXPECT_EQ(model::pattern_from_token(model::pattern_token(p)), p);
  }
  EXPECT_THROW(model::pattern_from_token("firewall"), util::SpecError);
}

TEST(DeltaGrammar, RejectsNonCanonicalText) {
  const char* kBad[] = {
      "",                           // empty delta
      "teleport-host,h1,r1",        // unknown op
      "remove-host",                // missing argument
      "remove-host,h1,h2",          // too many arguments
      "add-host,h,r1,1",            // explicit group of 1 is non-canonical
      "add-host,h,r1,x",            // group must be an integer
      "fail-link,r1",               // links take two endpoints
      "add-flow,h1,h2",             // flows take a service
      "add-flow,h1,h2,svc,maybe",   // trailing token must be "cr"
      "remove-flow,h1,h2,svc,cr",   // remove-flow takes no cr marker
      "add-uic",                    // uic op with no production
      "retune",                     // retune with no knobs
      "retune,iso",                 // knob without '='
      "retune,alpha=0.5",           // unknown knob
      "retune,usab=3,iso=4",        // knobs out of canonical order
      "retune,iso=4,iso=5",         // duplicate knob
      "retune,iso=inf",             // knobs must be finite ...
      "retune,usab=nan",
      "retune,budget=1e300",        // ... and fit the fixed-point range
      ";add-host,h,r1",             // empty op in the batch
  };
  for (const char* text : kBad)
    EXPECT_THROW(parse_delta(text), util::SpecError) << "'" << text << "'";

  // Names containing grammar delimiters cannot be rendered.
  DeltaOp op;
  op.kind = DeltaOpKind::kRemoveHost;
  op.a = "h 1";
  EXPECT_THROW(render_delta(SpecDelta{{op}}), util::SpecError);
  op.a = "h;1";
  EXPECT_THROW(render_delta(SpecDelta{{op}}), util::SpecError);
}

// ---------------------------------------------------------------------
// Transactional apply + cascades
// ---------------------------------------------------------------------

TEST(DeltaApply, FailingOpLeavesSpecUntouched) {
  const model::ProblemSpec spec = make_example_spec();
  const model::Fingerprint before = model::fingerprint_spec(spec);

  // First op is valid, second fails: nothing may stick.
  const SpecDelta bad =
      delta_of("add-host,nh,r1;add-flow,nh,missing-host,svc");
  EXPECT_THROW(apply_delta(spec, bad), util::SpecError);
  EXPECT_EQ(model::fingerprint_spec(spec), before);
  EXPECT_EQ(spec.network.host_count(), 10u);
}

TEST(DeltaApply, ResolutionErrorsAreSpecErrors) {
  const model::ProblemSpec spec = make_example_spec();
  const char* kBad[] = {
      "add-host,h1,r1",             // name already in use
      "add-host,nh,h1",             // attach target is not a router
      "remove-host,r1",             // not a host
      "remove-host,ghost",          // unknown node
      "fail-link,h1,h2",            // no such link
      "fail-link,h1,r5",            // would disconnect h1
      "restore-link,r1,r2",         // link already present
      "add-flow,h1,h2,svc",         // flow already present (full mesh)
      "remove-flow,h1,h1,svc",      // no such flow
      "add-flow,h1,h2,smtp",        // unknown service
      "remove-uic,forbid-service,svc,proxy",  // no such constraint
      "add-uic,forbid-flow,h1,h2,svc,firewall",  // unknown pattern
      "retune,iso=-1",              // spec validation rejects it
  };
  const model::Fingerprint before = model::fingerprint_spec(spec);
  for (const char* text : kBad) {
    EXPECT_THROW(apply_delta(spec, delta_of(text)), util::SpecError)
        << "'" << text << "'";
    EXPECT_EQ(model::fingerprint_spec(spec), before) << "'" << text << "'";
  }

  // Duplicate UIC adds are rejected (set semantics).
  const model::ProblemSpec with_uic =
      apply_delta(spec, delta_of("add-uic,forbid-service,svc,proxy"));
  EXPECT_THROW(
      apply_delta(with_uic, delta_of("add-uic,forbid-service,svc,proxy")),
      util::SpecError);
}

TEST(DeltaApply, RemoveHostCascades) {
  // Decorate the example with policy that references h1, then remove it:
  // the host's flows, their CRs, the referencing UICs and its isolation
  // requirement must all go; everything else survives.
  model::ProblemSpec spec = apply_delta(
      make_example_spec(),
      delta_of("add-uic,forbid-flow,h1,h5,svc,proxy;"
               "add-uic,deny-one-of,h1,h2,svc,h2,h1,svc;"
               "add-uic,forbid-service,svc,trusted-comm"));
  spec.host_requirements.push_back(model::HostIsolationRequirement{
      spec.network.hosts()[0], util::Fixed::from_int(2)});
  spec.host_requirements.push_back(model::HostIsolationRequirement{
      spec.network.hosts()[1], util::Fixed::from_int(3)});
  spec.finalize();

  const model::ProblemSpec post =
      apply_delta(spec, delta_of("remove-host,h1"));
  EXPECT_EQ(post.network.host_count(), 9u);
  // 10 hosts fully meshed = 90 flows; h1 carried 2 * 9 of them.
  EXPECT_EQ(post.flows.size(), 72u);
  // CRs (1,5) and (1,6) cascade away; the other five survive.
  EXPECT_EQ(post.connectivity.sorted().size(), 5u);
  // Both flow-scoped UICs referenced h1; the service-scoped one stays.
  ASSERT_EQ(post.user_constraints.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<model::ForbidPatternForService>(
      post.user_constraints[0]));
  // h1's requirement cascades; h2's survives with a remapped node id.
  ASSERT_EQ(post.host_requirements.size(), 1u);
  EXPECT_EQ(post.network.node(post.host_requirements[0].host).name, "h2");
}

TEST(DeltaApply, RemoveFlowCascades) {
  const model::ProblemSpec spec = apply_delta(
      make_example_spec(),
      delta_of("add-uic,require-flow,h2,h5,svc,payload-inspection"));
  // h2 -> h5 is one of the example's seven CRs.
  const model::ProblemSpec post =
      apply_delta(spec, delta_of("remove-flow,h2,h5,svc"));
  EXPECT_EQ(post.flows.size(), 89u);
  EXPECT_EQ(post.connectivity.sorted().size(), 6u);
  EXPECT_TRUE(post.user_constraints.empty());
}

TEST(DeltaApply, RoutePreservationClassification) {
  EXPECT_TRUE(model::route_preserving(
      delta_of("add-host,nh,r1;add-flow,nh,h1,svc;retune,iso=5;"
               "add-uic,forbid-service,svc,proxy;remove-flow,h1,h2,svc")));
  EXPECT_FALSE(model::route_preserving(delta_of("fail-link,r1,r2")));
  EXPECT_FALSE(model::route_preserving(delta_of("restore-link,r1,r2")));
  EXPECT_FALSE(model::route_preserving(
      delta_of("retune,iso=5;remove-host,h1")));
}

// ---------------------------------------------------------------------
// Sub-digest sensitivity (the tier-classification oracle)
// ---------------------------------------------------------------------

/// Which cs-spec-v1 sections a delta is expected to move.
struct Moved {
  bool topology = false;
  bool flows = false;
  bool uics = false;
  bool thresholds = false;
  bool budget = false;
};

void expect_sections_moved(const model::ProblemSpec& base,
                           std::string_view delta_text, const Moved& want) {
  const model::SpecDigests a = model::fingerprint_sections(base);
  const model::SpecDigests b =
      model::fingerprint_sections(apply_delta(base, delta_of(delta_text)));
  EXPECT_EQ(a.topology != b.topology, want.topology) << delta_text;
  EXPECT_EQ(a.flows != b.flows, want.flows) << delta_text;
  EXPECT_EQ(a.uics != b.uics, want.uics) << delta_text;
  EXPECT_EQ(a.thresholds != b.thresholds, want.thresholds) << delta_text;
  EXPECT_EQ(a.budget != b.budget, want.budget) << delta_text;
  // The shape digest moves iff a shape section moved, and any move at
  // all moves the combined digest.
  EXPECT_EQ(a.shape() != b.shape(),
            want.topology || want.flows || want.uics)
      << delta_text;
  EXPECT_NE(a.combined, b.combined) << delta_text;
}

TEST(DeltaDigests, EachOpClassMovesExactlyItsSections) {
  const model::ProblemSpec spec = make_example_spec();
  expect_sections_moved(spec, "retune,iso=4", {.thresholds = true});
  expect_sections_moved(spec, "retune,usab=3.5", {.thresholds = true});
  expect_sections_moved(spec, "retune,budget=70", {.budget = true});
  expect_sections_moved(spec, "retune,iso=4,budget=70",
                        {.thresholds = true, .budget = true});
  expect_sections_moved(spec, "add-uic,forbid-flow,h1,h2,svc,proxy",
                        {.uics = true});
  expect_sections_moved(spec, "remove-flow,h1,h2,svc", {.flows = true});
  expect_sections_moved(spec, "add-host,nh,r1", {.topology = true});
  expect_sections_moved(spec, "fail-link,r1,r2", {.topology = true});
  expect_sections_moved(spec, "restore-link,r5,r7", {.topology = true});
  expect_sections_moved(spec, "remove-host,h1",
                        {.topology = true, .flows = true});

  // add-flow needs a hole in the example's full mesh to land in.
  const model::ProblemSpec holed =
      apply_delta(spec, delta_of("remove-flow,h1,h2,svc"));
  expect_sections_moved(holed, "add-flow,h1,h2,svc", {.flows = true});
  expect_sections_moved(holed, "add-flow,h1,h2,svc,cr", {.flows = true});
}

// ---------------------------------------------------------------------
// Incremental vs cold re-synthesis
// ---------------------------------------------------------------------

/// One churn step: the delta text and the tier apply_delta must pick for
/// it (uncapped checks, retractable sections, assumption thresholds).
struct Step {
  const char* delta;
  const char* path;
};

/// Applies each step to a shared Synthesizer chain and asserts the
/// incremental verdict (and on replay/full, the design) is byte-identical
/// to a cold Synthesizer on the post-delta spec with the same options.
void run_churn_chain(const model::ProblemSpec& start,
                     const std::vector<Step>& steps,
                     const synth::SynthesisOptions& options,
                     bool check_designs = true) {
  synth::Synthesizer inc(
      std::make_shared<const model::ProblemSpec>(start), options);
  ASSERT_NE(inc.synthesize().status, CheckResult::kUnknown);

  for (const Step& step : steps) {
    const SpecDelta delta = delta_of(step.delta);
    const synth::DeltaApplyReport report = inc.apply_delta(delta);
    EXPECT_EQ(report.path, step.path) << step.delta;

    synth::Synthesizer cold(inc.spec(), options);
    const synth::SynthesisResult cold_result = cold.synthesize();
    EXPECT_EQ(report.result.status, cold_result.status) << step.delta;
    if (report.result.design.has_value()) {
      EXPECT_TRUE(analysis::check_design(inc.spec(), *report.result.design,
                                         /*check_thresholds=*/false)
                      .ok())
          << step.delta;
    }
    if (check_designs &&
        (report.path == "replay" || report.path == "full") &&
        report.result.design.has_value() &&
        cold_result.design.has_value()) {
      // Replay/full rebuild deterministically: the witness, not just the
      // verdict, matches the cold one.
      EXPECT_TRUE(*report.result.design == *cold_result.design)
          << step.delta;
    }
  }
}

class BackendDeltaTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  synth::SynthesisOptions options() const {
    synth::SynthesisOptions opts;
    opts.backend = GetParam();
    opts.retractable_sections = true;
    return opts;
  }
};

TEST_P(BackendDeltaTest, EveryTierMatchesColdOnTheExample) {
  run_churn_chain(
      make_example_spec(),
      {
          {"retune,iso=4,usab=3.5", "warm"},
          {"add-uic,forbid-flow,h1,h5,svc,proxy", "retract"},
          {"remove-flow,h9,h10,svc", "replay"},
          {"add-host,churn-a,r5;add-flow,churn-a,h5,svc,cr", "replay"},
          {"fail-link,r1,r2", "full"},
          {"retune,budget=40", "warm"},
          {"remove-uic,forbid-flow,h1,h5,svc,proxy", "retract"},
          {"restore-link,r1,r2", "full"},
          {"remove-host,churn-a", "full"},
      },
      options());
}

TEST_P(BackendDeltaTest, WithoutRetractableSectionsPolicyDeltasReplay) {
  synth::SynthesisOptions opts = options();
  opts.retractable_sections = false;
  run_churn_chain(make_example_spec(),
                  {{"add-uic,forbid-service,svc,trusted-comm", "replay"}},
                  opts);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendDeltaTest,
                         ::testing::Values(BackendKind::kZ3,
                                           BackendKind::kMiniPb),
                         [](const auto& info) {
                           return info.param == BackendKind::kZ3 ? "z3"
                                                                 : "minipb";
                         });

TEST(DeltaSynthesis, FailedDeltaLeavesSynthesizerUsable) {
  synth::SynthesisOptions opts;
  opts.backend = BackendKind::kMiniPb;
  opts.retractable_sections = true;
  synth::Synthesizer inc(
      std::make_shared<const model::ProblemSpec>(make_example_spec()), opts);
  const synth::SynthesisResult before = inc.synthesize();
  const model::Fingerprint spec_before =
      model::fingerprint_spec(inc.spec());

  EXPECT_THROW(inc.apply_delta(delta_of("remove-host,ghost")),
               util::SpecError);
  EXPECT_EQ(model::fingerprint_spec(inc.spec()), spec_before);
  EXPECT_EQ(inc.synthesize().status, before.status);

  // And a valid delta still works after the failure.
  const synth::DeltaApplyReport report =
      inc.apply_delta(delta_of("retune,iso=4"));
  EXPECT_EQ(report.path, "warm");
  EXPECT_NE(report.result.status, CheckResult::kUnknown);
}

TEST(DeltaSynthesis, FatTreeChurnMatchesCold) {
  // A structured fabric with the locality workload (the bench_fig7
  // shape), small enough for uncapped MiniPB solves in a unit test.
  const model::ProblemSpec start = bench::make_locality_spec(
      topology::TopologyKind::kFatTree, 16, /*seed=*/9016);
  synth::SynthesisOptions opts;
  opts.backend = BackendKind::kMiniPb;
  opts.retractable_sections = true;
  const std::string grow = "add-host,churn-a," +
                           start.network.node(start.network.routers()[0]).name +
                           ";add-flow,churn-a,h1,WEB";
  run_churn_chain(start,
                  {
                      {"retune,iso=6", "warm"},
                      {"add-uic,forbid-service,WEB,proxy", "retract"},
                      {grow.c_str(), "replay"},
                      {"remove-host,churn-a", "full"},
                  },
                  opts);
}

TEST(DeltaSynthesis, LinkRestoreDesignPassesAFreshChecker) {
  // Restoring a failed link appends it to the network, which changes how
  // the fat-tree's equal-length routes tie from each endpoint. The
  // encoder fills its route table low id -> high id, while check_design
  // fills a fresh one in flow direction; both must constrain the same
  // routes, so the SAT design passes the independent checker.
  const model::ProblemSpec start = bench::make_locality_spec(
      topology::TopologyKind::kFatTree, 100, /*seed=*/1);
  const model::ProblemSpec restored =
      apply_delta(apply_delta(start, delta_of("fail-link,p8e1,p8a1")),
                  delta_of("restore-link,p8e1,p8a1"));
  synth::SynthesisOptions opts;
  opts.backend = BackendKind::kMiniPb;
  opts.check_conflict_limit = 20000;
  synth::Synthesizer synth(restored, opts);
  const synth::SynthesisResult result = synth.synthesize();
  ASSERT_EQ(result.status, CheckResult::kSat);
  const analysis::CheckReport report =
      analysis::check_design(restored, *result.design);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------
// Concurrency (TSan target)
// ---------------------------------------------------------------------

TEST(DeltaSynthesisParallel, IndependentChurnStreamsOnThreads) {
  // Two synthesizer chains churning concurrently — the bench_fig7
  // threading model. The chains share no state; TSan verifies the
  // solver/encoder layers underneath really are instance-confined.
  synth::SynthesisOptions opts;
  opts.backend = BackendKind::kMiniPb;
  opts.retractable_sections = true;

  const std::vector<Step> plan_a = {
      {"retune,iso=4", "warm"},
      {"add-uic,forbid-flow,h1,h5,svc,proxy", "retract"},
      {"fail-link,r1,r2", "full"},
  };
  const std::vector<Step> plan_b = {
      {"add-host,churn-b,r8;add-flow,churn-b,h9,svc,cr", "replay"},
      {"retune,usab=3,budget=45", "warm"},
      {"remove-host,churn-b", "full"},
  };
  std::thread a([&] {
    run_churn_chain(make_example_spec(), plan_a, opts);
  });
  std::thread b([&] {
    run_churn_chain(make_example_spec(), plan_b, opts);
  });
  a.join();
  b.join();
}

}  // namespace
}  // namespace cs
