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
//   - cascade semantics of remove-host / remove-flow (a removed flow
//     takes exactly the policy that names it)
//   - sub-digest sensitivity: each op class moves exactly the
//     fingerprint sections docs/DELTAS.md says it moves
//   - the incremental-verdict contract: every apply_delta tier returns
//     the cold verdict on the post-delta spec, with byte-identical
//     designs on the full tier
//   - route carrying: a RouteTable carried across any delta equals a
//     fresh one route for route, and carries exactly the pairs the rule
//     in docs/DELTAS.md promises
//   - bounded memory: a long warm-tier stream keeps no superseded spec
//   - the digests apply_delta keeps between calls match a fresh hash of
//     the current spec after every step of a seeded chain
//   - two independent churn streams on concurrent threads (the
//     `parallel` label puts this under the TSan job)
#include <gtest/gtest.h>
#include <malloc.h>

#include <memory>
#include <optional>
#include <set>
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
#include "topology/routes.h"
#include "topology/structured.h"
#include "util/rng.h"

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

TEST(DeltaApply, RemoveFlowKeepsThePairsOtherService) {
  // h1 -> h2 carries svc and, after the add-flow, db. Removing the db
  // flow takes its CR and every UIC that names it; a UIC naming the
  // pair's svc flow and a service-scoped UIC survive.
  model::ProblemSpec base = make_example_spec();
  const model::ServiceId db = base.services.add("db");
  const model::ProblemSpec spec = apply_delta(
      base, delta_of("add-flow,h1,h2,db,cr;"
                     "add-uic,forbid-flow,h1,h2,db,proxy;"
                     "add-uic,require-flow,h1,h2,db,payload-inspection;"
                     "add-uic,deny-one-of,h3,h4,svc,h1,h2,db;"
                     "add-uic,forbid-flow,h1,h2,svc,trusted-comm;"
                     "add-uic,deny-one-of,h1,h2,db,h3,h4,svc;"
                     "add-uic,forbid-service,db,proxy"));
  ASSERT_EQ(spec.flows.size(), 91u);
  ASSERT_EQ(spec.connectivity.size(), 8u);

  const model::ProblemSpec post =
      apply_delta(spec, delta_of("remove-flow,h1,h2,db"));
  const auto& hosts = post.network.hosts();
  const model::Flow svc_flow{hosts[0], hosts[1], *post.services.find("svc")};
  EXPECT_EQ(post.flows.size(), 90u);
  EXPECT_FALSE(post.flows.find(model::Flow{hosts[0], hosts[1], db})
                   .has_value());
  EXPECT_TRUE(post.flows.find(svc_flow).has_value());
  // Only the db flow's CR goes: the example's seven remain, same ids.
  EXPECT_EQ(post.connectivity.sorted(),
            make_example_spec().connectivity.sorted());
  const std::vector<model::UserConstraint> kept{
      model::ForbidPatternForFlow{svc_flow,
                                  model::IsolationPattern::kTrustedComm},
      model::ForbidPatternForService{db, model::IsolationPattern::kProxy}};
  EXPECT_EQ(post.user_constraints, kept);
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
/// incremental verdict (and on the full tier, the design) is byte-identical
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
    if (check_designs && report.path == "full" &&
        report.result.design.has_value() &&
        cold_result.design.has_value()) {
      // Full rebuilds deterministically: the witness, not just the
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
          {"remove-flow,h9,h10,svc", "full"},
          {"add-host,churn-a,r5;add-flow,churn-a,h5,svc,cr", "full"},
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
                  {{"add-uic,forbid-service,svc,trusted-comm", "full"}},
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
                      {grow.c_str(), "full"},
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

TEST(DeltaSynthesis, WarmStreamKeepsNoSupersededSpec) {
  // A long-lived synthesizer holds the current spec and the one its
  // route table reads, not every spec a warm delta superseded.
  const auto in_use = [] {
    return static_cast<std::int64_t>(mallinfo2().uordblks);
  };
  auto spec = std::make_shared<const model::ProblemSpec>(
      cs::testing::make_random_spec(7, 40, 10));
  const std::int64_t before_copy = in_use();
  auto copy = std::make_unique<model::ProblemSpec>(*spec);
  const std::int64_t spec_bytes = in_use() - before_copy;
  copy.reset();
  if (spec_bytes <= 0) GTEST_SKIP() << "allocator reports no bytes in use";

  synth::SynthesisOptions opts;
  opts.backend = BackendKind::kMiniPb;
  opts.check_conflict_limit = 200;
  synth::Synthesizer inc(spec, opts);
  const SpecDelta retunes[] = {delta_of("retune,iso=1"),
                               delta_of("retune,iso=2")};
  std::int64_t at_100 = 0;
  for (int d = 1; d <= 200; ++d) {
    // The first probe may exhaust its cap and rebuild; the measured
    // window must stay on the warm tier.
    const std::string path = inc.apply_delta(retunes[d % 2]).path;
    ASSERT_TRUE(d <= 100 || path == "warm") << d << ": " << path;
    if (d == 100) at_100 = in_use();
  }
  // Keeping every superseded spec grows by about 100 specs here.
  EXPECT_LT(in_use() - at_100, 10 * spec_bytes)
      << "spec_bytes=" << spec_bytes;
}

// ---------------------------------------------------------------------
// Route carrying (RouteTable's predecessor constructor)
// ---------------------------------------------------------------------

/// Draws one op of `kind` that is plausible on `cur`: names come from
/// `cur`, and apply_delta decides validity (the caller redraws).
DeltaOp draw_op(const model::ProblemSpec& cur, DeltaOpKind kind,
                util::Rng& rng, int& next_host) {
  const topology::Network& net = cur.network;
  const auto name = [&](topology::NodeId n) { return net.node(n).name; };
  DeltaOp op;
  op.kind = kind;
  switch (kind) {
    case DeltaOpKind::kAddHost:
      op.a = "carry-h" + std::to_string(next_host++);
      op.b = name(rng.pick(net.routers()));
      break;
    case DeltaOpKind::kRemoveHost:
      op.a = name(rng.pick(net.hosts()));
      break;
    case DeltaOpKind::kFailLink: {
      const topology::Link& l = rng.pick(net.links());
      op.a = name(l.a);
      op.b = name(l.b);
      break;
    }
    case DeltaOpKind::kRestoreLink:
      // A new router-router link, or a second uplink for a host.
      op.a = name(rng.chance(0.5) ? rng.pick(net.routers())
                                  : rng.pick(net.hosts()));
      op.b = name(rng.pick(net.routers()));
      break;
    case DeltaOpKind::kAddFlow:
    case DeltaOpKind::kRemoveFlow: {
      model::Flow f = rng.pick(cur.flows.all());
      if (kind == DeltaOpKind::kAddFlow) {
        f.src = rng.pick(net.hosts());
        f.dst = rng.pick(net.hosts());
        op.connectivity_required = rng.chance(0.3);
      }
      op.a = name(f.src);
      op.b = name(f.dst);
      op.service = cur.services.service(f.service).name;
      break;
    }
    case DeltaOpKind::kAddUic:
    case DeltaOpKind::kRemoveUic: {
      // Removal picks one of the spec's forbid-flow constraints.
      std::vector<model::ForbidPatternForFlow> present;
      for (const model::UserConstraint& c : cur.user_constraints)
        if (const auto* f = std::get_if<model::ForbidPatternForFlow>(&c))
          present.push_back(*f);
      model::ForbidPatternForFlow uic{rng.pick(cur.flows.all()),
                                      model::IsolationPattern::kProxy};
      if (rng.chance(0.5)) uic.pattern = model::IsolationPattern::kTrustedComm;
      if (kind == DeltaOpKind::kRemoveUic && !present.empty())
        uic = rng.pick(present);
      op.uic = {"forbid-flow", name(uic.flow.src), name(uic.flow.dst),
                cur.services.service(uic.flow.service).name,
                std::string(model::pattern_token(uic.pattern))};
      break;
    }
    case DeltaOpKind::kRetune:
      op.isolation = util::Fixed::from_int(rng.uniform(1, 9));
      break;
  }
  return op;
}

constexpr DeltaOpKind kAllOpKinds[] = {
    DeltaOpKind::kAddHost,    DeltaOpKind::kRemoveHost,
    DeltaOpKind::kFailLink,   DeltaOpKind::kRestoreLink,
    DeltaOpKind::kAddFlow,    DeltaOpKind::kRemoveFlow,
    DeltaOpKind::kAddUic,     DeltaOpKind::kRemoveUic,
    DeltaOpKind::kRetune};

/// The multi-op delta forms a stream draws besides single ops.
enum class MultiOp {
  kReAddHost,   // remove-host X; add-host X (half the time on X's router)
  kRelinkLink,  // fail-link a,b; restore-link a,b (reorders adjacency)
  kRandomOps,   // two or three ops of random kinds
};

/// One op of a kind, or a multi-op form.
using DeltaForm = std::variant<DeltaOpKind, MultiOp>;

/// A valid delta of the given form. Invalid draws are redrawn.
SpecDelta draw_delta(const model::ProblemSpec& cur, const DeltaForm& form,
                     util::Rng& rng, int& next_host) {
  const topology::Network& net = cur.network;
  const auto name = [&](topology::NodeId n) { return net.node(n).name; };
  for (int attempt = 0; attempt < 200; ++attempt) {
    SpecDelta d;
    if (const auto* kind = std::get_if<DeltaOpKind>(&form)) {
      d.ops.push_back(draw_op(cur, *kind, rng, next_host));
    } else if (std::get<MultiOp>(form) == MultiOp::kReAddHost) {
      const topology::NodeId host = rng.pick(net.hosts());
      const topology::NodeId router = rng.chance(0.5)
                                          ? net.neighbors(host)[0].peer
                                          : rng.pick(net.routers());
      d = delta_of("remove-host," + name(host) + ";add-host," + name(host) +
                   "," + name(router));
    } else if (std::get<MultiOp>(form) == MultiOp::kRelinkLink) {
      const topology::Link& l = rng.pick(net.links());
      d = delta_of("fail-link," + name(l.a) + "," + name(l.b) +
                   ";restore-link," + name(l.a) + "," + name(l.b));
    } else {
      model::ProblemSpec mid = cur;
      for (int i = static_cast<int>(rng.uniform(2, 3)); i > 0; --i) {
        d.ops.push_back(draw_op(
            mid, kAllOpKinds[static_cast<std::size_t>(rng.uniform(0, 8))],
            rng, next_host));
        try {
          mid = apply_delta(mid, SpecDelta{{d.ops.back()}});
        } catch (const util::SpecError&) {
          d.ops.pop_back();
        }
      }
      if (d.ops.size() < 2) continue;
    }
    try {
      apply_delta(cur, d);
      return d;
    } catch (const util::SpecError&) {
    }
  }
  throw util::InternalError("draw_delta: no valid delta drawn");
}

/// Unordered pairs among `n` hosts.
std::size_t pairs_of(std::size_t n) { return n * (n - 1) / 2; }

TEST(RouteCarry, CarriedTableEqualsAFreshOneOnSeededStreams) {
  std::size_t carried_total = 0;
  for (const topology::TopologyKind fabric :
       {topology::TopologyKind::kFatTree, topology::TopologyKind::kCampus,
        topology::TopologyKind::kIsp, topology::TopologyKind::kMesh}) {
    util::Rng rng(77 + static_cast<std::uint64_t>(fabric));
    int next_host = 0;
    auto cur = std::make_shared<const model::ProblemSpec>(
        bench::make_locality_spec(fabric, 24, /*seed=*/5));
    auto table = std::make_unique<topology::RouteTable>(
        cur->network, cur->route_options);
    for (int step = 0; step < 48; ++step) {
      // Fill the predecessor so every pair is a carry candidate.
      for (const topology::NodeId a : cur->network.hosts())
        for (const topology::NodeId b : cur->network.hosts())
          if (a != b) table->routes(a, b);
      const std::size_t hosts = cur->network.host_count();
      ASSERT_EQ(table->pairs_computed(), pairs_of(hosts));

      // Each of the nine op kinds, then each multi-op form, in turn.
      std::optional<DeltaOpKind> kind;
      if (step % 12 < 9) kind = kAllOpKinds[step % 12];
      const DeltaForm form =
          kind ? DeltaForm(*kind) : DeltaForm(MultiOp(step % 12 - 9));
      const SpecDelta delta = draw_delta(*cur, form, rng, next_host);
      const std::string text =
          std::string(topology::topology_kind_name(fabric)) + " step " +
          std::to_string(step) + ": " + render_delta(delta);
      auto post =
          std::make_shared<const model::ProblemSpec>(apply_delta(*cur, delta));
      auto carried = std::make_unique<topology::RouteTable>(
          post->network, post->route_options, *table);

      // How much is carried: every pair whose hosts survive, and nothing
      // across a link change.
      const std::size_t carried_pairs = carried->pairs_computed();
      carried_total += carried_pairs;
      if (kind) {
        std::size_t want = pairs_of(hosts);
        if (*kind == DeltaOpKind::kFailLink ||
            *kind == DeltaOpKind::kRestoreLink)
          want = 0;
        if (*kind == DeltaOpKind::kRemoveHost) want = pairs_of(hosts - 1);
        EXPECT_EQ(carried_pairs, want) << text;
      }

      // Equality, filling the rest lazily.
      topology::RouteTable fresh(post->network, post->route_options);
      int differing = 0;
      for (const topology::NodeId a : post->network.hosts())
        for (const topology::NodeId b : post->network.hosts())
          if (a != b && !(carried->routes(a, b) == fresh.routes(a, b)))
            ++differing;
      EXPECT_EQ(differing, 0) << text;

      table = std::move(carried);
      cur = std::move(post);
    }
  }
  EXPECT_GT(carried_total, 0u);
}

TEST(DeltaSynthesis, KeptDigestsMatchAFreshHashAlongASeededChain) {
  // apply_delta hashes only the post-delta spec and keeps its digests as
  // the next call's pre-delta ones, so after every step they must equal
  // a fresh hash of the current spec — on every tier, including the
  // capped-probe rebuild (under a 50-conflict cap, warm and retract
  // steps on the example fall back to it). The example already has a
  // flow for every host pair, so the chain adds flows only inside
  // multi-op deltas.
  const std::vector<DeltaForm> forms = {
      DeltaOpKind::kAddHost, DeltaOpKind::kRemoveHost,
      DeltaOpKind::kFailLink, DeltaOpKind::kRestoreLink,
      DeltaOpKind::kRemoveFlow, DeltaOpKind::kAddUic,
      DeltaOpKind::kRemoveUic, DeltaOpKind::kRetune,
      MultiOp::kReAddHost, MultiOp::kRelinkLink, MultiOp::kRandomOps};
  for (const std::int64_t cap : {20000, 50}) {
    synth::SynthesisOptions opts;
    opts.backend = BackendKind::kMiniPb;
    opts.retractable_sections = true;
    opts.check_conflict_limit = cap;
    synth::Synthesizer inc(
        std::make_shared<const model::ProblemSpec>(make_example_spec()),
        opts);
    EXPECT_FALSE(inc.kept_digests().has_value());
    util::Rng rng(static_cast<std::uint64_t>(91 + cap));
    int next_host = 0;
    std::set<std::string> tiers;
    for (std::size_t step = 0; step < 2 * forms.size(); ++step) {
      const SpecDelta delta =
          draw_delta(inc.spec(), forms[step % forms.size()], rng, next_host);
      const synth::DeltaApplyReport report = inc.apply_delta(delta);
      tiers.insert(report.path + "/" + report.fallback_reason);
      ASSERT_TRUE(inc.kept_digests().has_value());
      EXPECT_EQ(*inc.kept_digests(), model::fingerprint_sections(inc.spec()))
          << "step " << step << ": " << render_delta(delta);
    }
    if (cap == 50) {
      EXPECT_TRUE(tiers.contains("full/capped-probe"));
    } else {
      EXPECT_TRUE(tiers.contains("warm/"));
      EXPECT_TRUE(tiers.contains("retract/"));
      EXPECT_TRUE(tiers.contains("full/flows-or-topology-dirty"));
    }
  }
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
      {"add-host,churn-b,r8;add-flow,churn-b,h9,svc,cr", "full"},
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
