// Tests for the synthesis service layer (src/service):
//   * ResultCache — LRU eviction, stats, negative-result entries.
//   * SynthService — the acceptance triad: (a) a repeated identical
//     request is served from cache with zero additional solver probes
//     (proved via MetricsRegistry counters), (b) cached and
//     freshly-solved results for one fingerprint are byte-identical,
//     (c) queue overflow is rejected deterministically, never blocked.
//     Plus deadlines, cancellation, retry policy and single-flight
//     coalescing.
//
// Everything runs on both backends; the MiniPB cases double as TSan
// coverage (scripts/run_all.sh runs the filter '*MiniPb*:ResultCache*:
// Metrics*' under -DCONFIGSYNTH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "model/delta.h"
#include "service/synth_service.h"
#include "spec_helpers.h"

namespace cs::service {
namespace {

using cs::testing::make_example_spec;
using smt::BackendKind;
using smt::CheckResult;

/// Deterministic per-check effort cap (see sweep_test.cpp): boundary
/// probes are exponential, and a conflict cap expires as a pure function
/// of the formula, so capped runs reproduce across worker counts.
std::int64_t effort_cap(BackendKind backend) {
  return backend == BackendKind::kZ3 ? 2'000'000 : 20'000;
}

std::shared_ptr<const model::ProblemSpec> shared_example_spec() {
  return std::make_shared<const model::ProblemSpec>(make_example_spec());
}

ServiceRequest feasibility_request(
    std::shared_ptr<const model::ProblemSpec> spec, BackendKind backend,
    util::Fixed isolation, util::Fixed usability, util::Fixed budget) {
  ServiceRequest req;
  req.spec = std::move(spec);
  req.point.objective = synth::SweepObjective::kFeasibility;
  req.point.isolation = isolation;
  req.point.usability = usability;
  req.point.budget = budget;
  req.synthesis.backend = backend;
  // 10x the usual cap: warm-pool tests assert that *no* probe caps (a
  // capped probe triggers the cold retry and hides the warm behavior
  // under test), and a Z3 re-check after incremental threshold adds can
  // cost more resources than the original cold solve.
  req.synthesis.check_conflict_limit = 10 * effort_cap(backend);
  return req;
}

/// Every formula-level field must match bit for bit. Witness-level
/// fields (design, metrics) are deliberately NOT compared: a SAT model
/// is not unique, and a warm re-solve's learnt state may steer the
/// solver to a different (equally valid) witness than a cold solve.
void expect_payload_identical(const synth::SweepPointResult& a,
                              const synth::SweepPointResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.conflicting, b.conflicting);
  EXPECT_EQ(a.search.objective, b.search.objective);
  EXPECT_EQ(a.search.feasible, b.search.feasible);
  EXPECT_EQ(a.search.exact, b.search.exact);
  EXPECT_EQ(a.search.bound, b.search.bound);
  EXPECT_EQ(a.search.design.has_value(), b.search.design.has_value());
}

// ---- ResultCache -----------------------------------------------------------

model::Fingerprint key_of(int i) {
  model::FingerprintHasher h;
  h.mix_i64(i);
  return h.digest();
}

TEST(ResultCache, LruEvictionAndStats) {
  ResultCache cache(2);
  synth::SweepPointResult r;
  r.status = CheckResult::kSat;
  cache.insert(key_of(1), r);
  cache.insert(key_of(2), r);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());  // 1 becomes MRU
  cache.insert(key_of(3), r);                        // evicts 2 (LRU)
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, NegativeEntriesCountedSeparately) {
  ResultCache cache(4);
  synth::SweepPointResult unsat;
  unsat.status = CheckResult::kUnsat;
  unsat.conflicting = {synth::ThresholdKind::kIsolation,
                       synth::ThresholdKind::kCost};
  cache.insert(key_of(1), unsat);
  const auto hit = cache.lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, CheckResult::kUnsat);
  ASSERT_EQ(hit->conflicting.size(), 2u);  // the relaxation core survives
  EXPECT_EQ(cache.stats().negative_hits, 1);
}

/// Distinct sub-digest sets that share (or not) a shape, for exercising
/// the partial-hit index without building whole specs.
model::SpecDigests digests_of(int topo, int flows, int uics, int point) {
  model::SpecDigests d;
  d.topology = key_of(topo);
  d.flows = key_of(flows);
  d.uics = key_of(uics);
  d.thresholds = key_of(point);
  d.budget = key_of(point + 1);
  return d;
}

TEST(ResultCache, ShapeIndexCountsPartialHits) {
  ResultCache cache(2);
  synth::SweepPointResult r;
  r.status = CheckResult::kSat;
  const model::SpecDigests d1 = digests_of(100, 101, 102, 103);
  cache.insert(key_of(1), r, &d1);
  EXPECT_EQ(cache.digests(key_of(1)), std::optional(d1));

  // Same shape, different query point → full-key miss, partial hit.
  const model::SpecDigests retuned = digests_of(100, 101, 102, 203);
  bool partial = false;
  EXPECT_FALSE(cache.lookup(key_of(2), &retuned, &partial).has_value());
  EXPECT_TRUE(partial);

  // Different shape (one flows digest apart) → a plain miss.
  const model::SpecDigests reshaped = digests_of(100, 301, 102, 103);
  EXPECT_FALSE(cache.lookup(key_of(3), &reshaped, &partial).has_value());
  EXPECT_FALSE(partial);

  // A full-key hit is never counted as partial.
  EXPECT_TRUE(cache.lookup(key_of(1), &d1, &partial).has_value());
  EXPECT_FALSE(partial);
  EXPECT_EQ(cache.stats().partial_hits, 1);

  // Eviction unregisters the entry's shape from the index.
  cache.insert(key_of(4), r);  // no digests
  cache.insert(key_of(5), r);  // evicts key_of(1), the LRU
  EXPECT_FALSE(cache.lookup(key_of(6), &retuned, &partial).has_value());
  EXPECT_FALSE(partial);
  EXPECT_EQ(cache.stats().partial_hits, 1);
}

// ---- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CountersAndHistogramsRender) {
  MetricsRegistry reg;
  reg.counter("requests_total").add(3);
  reg.counter("requests_total").inc();
  EXPECT_EQ(reg.counter_value("requests_total"), 4);
  EXPECT_EQ(reg.counter_value("never_created"), 0);
  reg.histogram("solve_ms").observe(0.5);
  reg.histogram("solve_ms").observe(7.0);
  reg.histogram("solve_ms").observe(20000.0);  // overflow bucket
  EXPECT_EQ(reg.histogram("solve_ms").count(), 3);
  EXPECT_DOUBLE_EQ(reg.histogram("solve_ms").min_ms(), 0.5);
  EXPECT_DOUBLE_EQ(reg.histogram("solve_ms").max_ms(), 20000.0);
  const auto buckets = reg.histogram("solve_ms").buckets();
  ASSERT_EQ(buckets.size(), Histogram::bucket_bounds().size() + 1);
  EXPECT_EQ(buckets.front(), 1);  // 0.5 <= 1
  EXPECT_EQ(buckets.back(), 1);   // 20000 > every finite bound
  const std::string text = reg.render();
  EXPECT_NE(text.find("requests_total"), std::string::npos);
  EXPECT_NE(text.find("solve_ms"), std::string::npos);
}

TEST(Metrics, PercentilesInterpolateUniformSamples) {
  // 1..100 ms, one each: the exact order statistics are 50/90/99, and
  // they fall where linear interpolation inside the exponential buckets
  // lands (cumulative counts line up with the bucket edges).
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.percentile_ms(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile_ms(0.90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile_ms(0.99), 99.0);
  // Quantile extremes clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.percentile_ms(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile_ms(1.0), 100.0);
}

TEST(Metrics, PercentileSingleSampleAndEmpty) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile_ms(0.5), 0.0);
  // One sample: every quantile is that sample (the clamp to [min, max]
  // overrides whatever the bucket interpolation would claim).
  Histogram h;
  h.observe(7.0);
  EXPECT_DOUBLE_EQ(h.percentile_ms(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile_ms(0.99), 7.0);
}

TEST(Metrics, PercentileOverflowBucketUsesObservedMax) {
  // All mass beyond the last finite bound (10000): the overflow bucket's
  // upper edge is the observed max, so quantiles stay finite and inside
  // [min, max].
  Histogram h;
  h.observe(20000.0);
  h.observe(40000.0);
  const double p99 = h.percentile_ms(0.99);
  EXPECT_GE(p99, 20000.0);
  EXPECT_LE(p99, 40000.0);
  EXPECT_DOUBLE_EQ(h.percentile_ms(1.0), 40000.0);
}

TEST(Metrics, RenderSurfacesPercentiles) {
  MetricsRegistry reg;
  for (int i = 1; i <= 100; ++i)
    reg.histogram("queue_ms").observe(static_cast<double>(i));
  const std::string text = reg.render();
  EXPECT_NE(text.find("p50 ms"), std::string::npos);
  EXPECT_NE(text.find("p99 ms"), std::string::npos);
  EXPECT_NE(text.find("50.000"), std::string::npos);
  EXPECT_NE(text.find("99.000"), std::string::npos);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("requests_total").add(5);
  reg.histogram("solve_ms").observe(1.0);   // le="1"
  reg.histogram("solve_ms").observe(7.0);   // le="10"
  reg.histogram("solve_ms").observe(20000.0);  // +Inf only
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE configsynth_requests_total counter\n"
                      "configsynth_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE configsynth_solve_ms histogram"),
            std::string::npos);
  // Bucket series is cumulative and ends at +Inf == _count.
  EXPECT_NE(text.find("configsynth_solve_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("configsynth_solve_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("configsynth_solve_ms_bucket{le=\"10000\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("configsynth_solve_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("configsynth_solve_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("configsynth_solve_ms_sum 20008.000"),
            std::string::npos);
}

// ---- SynthService acceptance triad -----------------------------------------

class BackendServiceTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendServiceTest, RepeatRequestHitsCacheWithZeroProbes) {
  ServiceConfig config;
  config.workers = 1;
  SynthService service(config);
  const auto spec = shared_example_spec();
  const ServiceRequest req = feasibility_request(
      spec, GetParam(), spec->sliders.isolation, spec->sliders.usability,
      spec->sliders.budget);

  const ServiceOutcome first = service.solve(req);
  ASSERT_FALSE(first.rejected);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result.status, CheckResult::kSat);
  const std::int64_t probes_after_first =
      service.metrics().counter_value("solver_probes_total");
  EXPECT_GT(probes_after_first, 0);

  const ServiceOutcome second = service.solve(req);
  EXPECT_TRUE(second.cache_hit);
  // (a) zero additional solver probes, proved by the registry counter.
  EXPECT_EQ(service.metrics().counter_value("solver_probes_total"),
            probes_after_first);
  EXPECT_EQ(service.metrics().counter_value("cache_hits"), 1);
  // (b) the cached payload is identical to the freshly-solved one.
  expect_payload_identical(first.result, second.result);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
}

TEST_P(BackendServiceTest, CachedResultIdenticalToIndependentFreshSolve) {
  // Solve the same request in two *separate* services (disjoint caches):
  // the cached copy one service returns must equal what the other
  // freshly computes — cached results are not allowed to drift.
  const auto spec = shared_example_spec();
  const ServiceRequest req = feasibility_request(
      spec, GetParam(), spec->sliders.isolation, spec->sliders.usability,
      spec->sliders.budget);
  SynthService warm{ServiceConfig{}};
  SynthService cold{ServiceConfig{}};
  (void)warm.solve(req);                          // prime the warm cache
  const ServiceOutcome cached = warm.solve(req);  // served from cache
  const ServiceOutcome fresh = cold.solve(req);   // full solve
  ASSERT_TRUE(cached.cache_hit);
  ASSERT_FALSE(fresh.cache_hit);
  expect_payload_identical(cached.result, fresh.result);
}

TEST_P(BackendServiceTest, UnsatVerdictIsCachedWithCore) {
  SynthService service{ServiceConfig{}};
  const auto spec = shared_example_spec();
  // Overtight triple (cf. sweep_test): isolation 10 / usability 10 at a
  // $5K budget is unsatisfiable.
  const ServiceRequest req = feasibility_request(
      spec, GetParam(), util::Fixed::from_int(10), util::Fixed::from_int(10),
      util::Fixed::from_int(5));
  const ServiceOutcome first = service.solve(req);
  ASSERT_EQ(first.result.status, CheckResult::kUnsat);
  EXPECT_FALSE(first.result.conflicting.empty());
  const std::int64_t probes =
      service.metrics().counter_value("solver_probes_total");
  const ServiceOutcome second = service.solve(req);
  EXPECT_TRUE(second.cache_hit);  // negative result served from cache
  EXPECT_EQ(second.result.status, CheckResult::kUnsat);
  EXPECT_EQ(second.result.conflicting, first.result.conflicting);
  EXPECT_EQ(service.metrics().counter_value("solver_probes_total"), probes);
  EXPECT_EQ(service.cache().stats().negative_hits, 1);
}

TEST_P(BackendServiceTest, WarmPoolServesRepeatSpecAtNewThresholds) {
  // The warm pool's reason to exist: same spec, *different* thresholds —
  // a cache miss — must be answered on a parked encoded synthesizer
  // (zero re-encoding), with the same verdict a cold solve gives.
  ServiceConfig config;
  config.workers = 1;
  SynthService service(config);
  const auto spec = shared_example_spec();

  // The pool admits only a shape that comes back: the shape's first
  // request solves cold and its solver is declined.
  (void)service.solve(feasibility_request(
      spec, GetParam(), util::Fixed::from_int(0), util::Fixed::from_int(0),
      spec->sliders.budget));
  EXPECT_EQ(service.metrics().counter_value("warm_declined"), 1);
  EXPECT_EQ(service.warm_pool_size(), 0u);

  const ServiceOutcome first = service.solve(feasibility_request(
      spec, GetParam(), spec->sliders.isolation, spec->sliders.usability,
      spec->sliders.budget));
  ASSERT_EQ(first.result.status, CheckResult::kSat);
  EXPECT_FALSE(first.result.warm);  // nothing parked yet: cold encode
  EXPECT_EQ(service.metrics().counter_value("warm_misses"), 2);
  EXPECT_EQ(service.warm_pool_size(), 1u);  // the shape came back

  // Different thresholds → different request fingerprint → cache miss,
  // but the same spec/backend/caps → warm-pool hit.
  const ServiceRequest shifted = feasibility_request(
      spec, GetParam(), util::Fixed::from_int(1), util::Fixed::from_int(2),
      spec->sliders.budget);
  const ServiceOutcome second = service.solve(shifted);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.result.warm);
  EXPECT_EQ(second.result.encode_seconds, 0.0);
  EXPECT_EQ(service.metrics().counter_value("warm_hits"), 1);
  EXPECT_EQ(service.warm_pool_size(), 1u);  // checked back in

  // The warm verdict matches an independent cold solve bit for bit.
  SynthService cold{ServiceConfig{}};
  expect_payload_identical(second.result, cold.solve(shifted).result);

  // Solver-effort counters accumulated across both solves.
  EXPECT_GT(service.metrics().counter_value("solver_propagations_total"), 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendServiceTest,
                         ::testing::Values(BackendKind::kZ3,
                                           BackendKind::kMiniPb),
                         [](const auto& info) {
                           return info.param == BackendKind::kZ3 ? "z3"
                                                                 : "minipb";
                         });

// ---- Warm pool edge cases (MiniPB, TSan-covered) ---------------------------

TEST(SynthServiceMiniPb, RetunedDeltaSpecIsPartialHitServedWarm) {
  // The changefeed fast path end to end: a thresholds-only cs-delta-v1
  // retune produces a new combined digest (full-key cache miss) with an
  // unchanged encoding shape, so the service counts a partial hit and
  // the shape-keyed warm pool answers without re-encoding.
  ServiceConfig config;
  config.workers = 1;
  SynthService service(config);
  const auto spec = shared_example_spec();
  const auto request_for = [](const auto& s) {
    return feasibility_request(s, BackendKind::kMiniPb, s->sliders.isolation,
                               s->sliders.usability, s->sliders.budget);
  };
  const ServiceOutcome first = service.solve(request_for(spec));
  ASSERT_EQ(first.result.status, CheckResult::kSat);
  EXPECT_EQ(service.metrics().counter_value("cache_partial_hits"), 0);

  // The shape comes back once more (a partial hit), which admits its
  // solver to the pool.
  const auto nudged = std::make_shared<const model::ProblemSpec>(
      model::apply_delta(*spec, model::parse_delta("retune,iso=1,usab=1")));
  EXPECT_FALSE(service.solve(request_for(nudged)).result.warm);
  EXPECT_EQ(service.metrics().counter_value("cache_partial_hits"), 1);
  EXPECT_EQ(service.warm_pool_size(), 1u);

  const auto retuned = std::make_shared<const model::ProblemSpec>(
      model::apply_delta(
          *spec, model::parse_delta("retune,iso=2,usab=3,budget=55")));
  const ServiceOutcome second = service.solve(request_for(retuned));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(service.metrics().counter_value("cache_partial_hits"), 2);
  EXPECT_TRUE(second.result.warm);
  EXPECT_EQ(second.result.encode_seconds, 0.0);
  EXPECT_EQ(service.metrics().counter_value("warm_hits"), 1);
  // The counter reaches the Prometheus exposition like any other.
  EXPECT_NE(
      service.metrics().render_prometheus().find("cache_partial_hits"),
      std::string::npos);

  // The warm verdict matches an independent cold solve bit for bit.
  SynthService cold{ServiceConfig{}};
  expect_payload_identical(second.result,
                           cold.solve(request_for(retuned)).result);
}

TEST(SynthServiceMiniPb, WarmPoolDisabledSolvesCold) {
  ServiceConfig config;
  config.workers = 1;
  config.warm_pool_limit = 0;
  SynthService service(config);
  const auto spec = shared_example_spec();
  const ServiceOutcome out = service.solve(feasibility_request(
      spec, BackendKind::kMiniPb, spec->sliders.isolation,
      spec->sliders.usability, spec->sliders.budget));
  EXPECT_FALSE(out.result.warm);
  EXPECT_EQ(service.warm_pool_size(), 0u);
  EXPECT_EQ(service.metrics().counter_value("warm_hits"), 0);
  EXPECT_EQ(service.metrics().counter_value("warm_misses"), 0);
}

TEST(SynthServiceMiniPb, WarmPoolEvictsFifoAtLimit) {
  ServiceConfig config;
  config.workers = 1;
  config.warm_pool_limit = 2;
  SynthService service(config);
  // Three distinct specs → three distinct warm keys; the pool holds two.
  // Each spec is requested twice (at its own thresholds, then at zero
  // isolation), so each shape comes back and its solver is admitted.
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const auto spec = std::make_shared<const model::ProblemSpec>(
        cs::testing::make_random_spec(seed, 4, 3));
    for (const util::Fixed isolation :
         {spec->sliders.isolation, util::Fixed::from_int(0)}) {
      const ServiceOutcome out = service.solve(feasibility_request(
          spec, BackendKind::kMiniPb, isolation, spec->sliders.usability,
          spec->sliders.budget));
      ASSERT_FALSE(out.rejected);
    }
  }
  EXPECT_EQ(service.warm_pool_size(), 2u);
  EXPECT_EQ(service.metrics().counter_value("warm_evictions"), 1);
}

/// A MiniPB feasibility solve of `spec` at the given isolation, zero
/// usability and the spec's own budget.
ServiceOutcome solve_at(SynthService& service,
                        const std::shared_ptr<const model::ProblemSpec>& spec,
                        int isolation) {
  return service.solve(feasibility_request(
      spec, BackendKind::kMiniPb, util::Fixed::from_int(isolation),
      util::Fixed::from_int(0), spec->sliders.budget));
}

TEST(SynthServiceMiniPb, OneOffSpecsAreNeverPooled) {
  // A stream whose shapes never repeat, like perfbench's serve_cold: every
  // solver is destroyed with its request, so the pool stays empty and
  // nothing is evicted.
  ServiceConfig config;
  config.workers = 1;
  config.warm_pool_limit = 2;
  SynthService service(config);
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
    const auto spec = std::make_shared<const model::ProblemSpec>(
        cs::testing::make_random_spec(seed, 4, 3));
    const ServiceOutcome out = service.solve(feasibility_request(
        spec, BackendKind::kMiniPb, spec->sliders.isolation,
        spec->sliders.usability, spec->sliders.budget));
    ASSERT_FALSE(out.rejected);
    EXPECT_FALSE(out.result.warm);
    EXPECT_EQ(service.warm_pool_size(), 0u);
  }
  EXPECT_EQ(service.metrics().counter_value("warm_declined"), 4);
  EXPECT_EQ(service.metrics().counter_value("warm_misses"), 4);
  EXPECT_EQ(service.metrics().counter_value("warm_evictions"), 0);
  EXPECT_NE(service.metrics().render_prometheus().find(
                "configsynth_warm_declined 4\n"),
            std::string::npos);
}

TEST(SynthServiceMiniPb, ShapeIsAdmittedOnItsSecondRequest) {
  // The admission trade-off: a new shape's first and second requests
  // solve cold; the second one's solver is pooled, so the third is warm.
  ServiceConfig config;
  config.workers = 1;
  SynthService service(config);
  const auto spec = shared_example_spec();
  EXPECT_FALSE(solve_at(service, spec, 0).result.warm);
  EXPECT_EQ(service.warm_pool_size(), 0u);
  EXPECT_EQ(service.metrics().counter_value("warm_declined"), 1);

  // A partial hit: solved cold, then admitted.
  EXPECT_FALSE(solve_at(service, spec, 1).result.warm);
  EXPECT_EQ(service.metrics().counter_value("cache_partial_hits"), 1);
  EXPECT_EQ(service.warm_pool_size(), 1u);

  const ServiceOutcome third = solve_at(service, spec, 2);
  EXPECT_TRUE(third.result.warm);
  EXPECT_EQ(third.result.encode_seconds, 0.0);
  EXPECT_EQ(service.warm_pool_size(), 1u);
  EXPECT_EQ(service.metrics().counter_value("warm_declined"), 1);
  EXPECT_EQ(service.metrics().counter_value("warm_hits"), 1);
}

TEST(SynthServiceMiniPb, WarmSolveIsReadmittedAfterItsShapeLeavesTheCache) {
  // A one-entry cache forgets the shape as soon as another spec is
  // solved; a solver checked out warm is re-admitted all the same.
  ServiceConfig config;
  config.workers = 1;
  config.cache_capacity = 1;
  SynthService service(config);
  const auto spec = shared_example_spec();
  (void)solve_at(service, spec, 0);  // declined
  (void)solve_at(service, spec, 1);  // partial hit: admitted
  ASSERT_EQ(service.warm_pool_size(), 1u);

  const auto other = std::make_shared<const model::ProblemSpec>(
      cs::testing::make_random_spec(61, 4, 3));
  (void)service.solve(feasibility_request(
      other, BackendKind::kMiniPb, other->sliders.isolation,
      other->sliders.usability, other->sliders.budget));  // declined
  EXPECT_EQ(service.metrics().counter_value("warm_declined"), 2);

  // No partial hit any more, but the solver was checked out warm.
  const ServiceOutcome warm = solve_at(service, spec, 2);
  EXPECT_TRUE(warm.result.warm);
  EXPECT_EQ(service.metrics().counter_value("cache_partial_hits"), 1);
  EXPECT_EQ(service.warm_pool_size(), 1u);  // re-admitted
  EXPECT_TRUE(solve_at(service, spec, 3).result.warm);
  EXPECT_EQ(service.metrics().counter_value("warm_declined"), 2);
  EXPECT_EQ(service.metrics().counter_value("warm_hits"), 2);
}

// ---- Admission control / deadlines / coalescing (MiniPB, TSan-covered) -----

/// Gate that blocks the service's single worker inside on_start until
/// the test releases it — makes queue-overflow tests deterministic.
class Gate {
 public:
  void block_first_entry() {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool first = !entered_;
    entered_ = true;
    entered_cv_.notify_all();
    if (first) release_cv_.wait(lock, [this] { return released_; });
  }
  void wait_until_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_, release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SynthServiceMiniPb, QueueOverflowRejectsDeterministically) {
  Gate gate;
  ServiceConfig config;
  config.workers = 1;
  config.queue_limit = 2;
  config.on_start = [&gate](const ServiceRequest&) {
    gate.block_first_entry();
  };
  SynthService service(config);
  const auto spec = shared_example_spec();
  const auto req = [&](int isolation) {
    return feasibility_request(spec, BackendKind::kMiniPb,
                               util::Fixed::from_int(isolation),
                               util::Fixed::from_int(0),
                               util::Fixed::from_int(60));
  };

  // First request starts executing and parks in on_start; the worker is
  // now busy, so subsequent submissions stack up in the queue.
  auto running = service.submit(req(0));
  gate.wait_until_entered();
  auto queued_a = service.submit(req(1));  // queue depth 1
  auto queued_b = service.submit(req(2));  // queue depth 2 = limit
  auto rejected = service.submit(req(3));  // (c) over limit: rejected now

  // The rejection resolves immediately — before the worker is released —
  // so it provably never blocked on solving.
  const ServiceOutcome over = rejected.get();
  EXPECT_TRUE(over.rejected);
  EXPECT_EQ(over.reject_reason, RejectReason::kQueueFull);
  EXPECT_EQ(reject_reason_name(over.reject_reason), "queue-full");
  EXPECT_EQ(over.result.status, CheckResult::kUnknown);
  EXPECT_EQ(service.metrics().counter_value("rejected"), 1);
  EXPECT_EQ(service.metrics().counter_value("rejected_queue_full"), 1);

  gate.release();
  const ServiceOutcome ran = running.get();
  EXPECT_FALSE(ran.rejected);
  EXPECT_EQ(ran.reject_reason, RejectReason::kNone);
  EXPECT_FALSE(queued_a.get().rejected);
  EXPECT_FALSE(queued_b.get().rejected);
  EXPECT_EQ(service.metrics().counter_value("requests_total"), 4);
}

TEST(SynthServiceMiniPb, ExpiredDeadlineSkipsWithoutSolving) {
  SynthService service{ServiceConfig{}};
  const auto spec = shared_example_spec();
  ServiceRequest req = feasibility_request(
      spec, BackendKind::kMiniPb, spec->sliders.isolation,
      spec->sliders.usability, spec->sliders.budget);
  req.deadline_ms = -1;  // already expired at submit time
  const ServiceOutcome out = service.solve(req);
  EXPECT_FALSE(out.rejected);
  EXPECT_TRUE(out.result.skipped);
  EXPECT_EQ(out.reject_reason, RejectReason::kDeadlineExpired);
  EXPECT_EQ(out.result.status, CheckResult::kUnknown);
  EXPECT_EQ(service.metrics().counter_value("solver_probes_total"), 0);
  EXPECT_EQ(service.metrics().counter_value("skipped_deadline"), 1);
  // Skipped results must not poison the cache.
  req.deadline_ms = 0;
  const ServiceOutcome solved = service.solve(req);
  EXPECT_FALSE(solved.result.skipped);
  EXPECT_EQ(solved.result.status, CheckResult::kSat);
}

TEST(SynthServiceMiniPb, CancellationTokenSkipsPendingRequests) {
  SynthService service{ServiceConfig{}};
  const auto spec = shared_example_spec();
  std::atomic<bool> cancel{true};  // raised before submission
  ServiceRequest req = feasibility_request(
      spec, BackendKind::kMiniPb, spec->sliders.isolation,
      spec->sliders.usability, spec->sliders.budget);
  req.cancel = &cancel;
  const ServiceOutcome out = service.solve(req);
  EXPECT_TRUE(out.result.skipped);
  EXPECT_EQ(out.reject_reason, RejectReason::kCancelled);
  EXPECT_EQ(service.metrics().counter_value("solver_probes_total"), 0);
  EXPECT_EQ(service.metrics().counter_value("skipped_cancelled"), 1);
}

TEST(SynthServiceMiniPb, RetryRaisesConflictCapOnce) {
  // The example needs 556 MiniPB conflicts: a 200-conflict cap makes the
  // first probe expire, and the retry at 4 × 200 = 800 decides it. The
  // outcome must be the decided verdict, with exactly one retry counted.
  SynthService service{ServiceConfig{}};
  const auto spec = shared_example_spec();
  ServiceRequest req = feasibility_request(
      spec, BackendKind::kMiniPb, spec->sliders.isolation,
      spec->sliders.usability, spec->sliders.budget);
  req.synthesis.check_conflict_limit = 200;
  const ServiceOutcome out = service.solve(req);
  EXPECT_EQ(out.retries, 1);
  EXPECT_EQ(service.metrics().counter_value("retries"), 1);
  EXPECT_EQ(out.result.status, CheckResult::kSat);
}

TEST(SynthServiceMiniPb, ConcurrentIdenticalRequestsCoalesce) {
  // 8 identical requests on 4 workers: single-flight guarantees exactly
  // one solve; everyone else is served from cache (possibly after
  // waiting on the in-flight primary).
  ServiceConfig config;
  config.workers = 4;
  SynthService service(config);
  const auto spec = shared_example_spec();
  const ServiceRequest req = feasibility_request(
      spec, BackendKind::kMiniPb, spec->sliders.isolation,
      spec->sliders.usability, spec->sliders.budget);
  std::vector<std::future<ServiceOutcome>> pending;
  for (int i = 0; i < 8; ++i) pending.push_back(service.submit(req));
  int hits = 0;
  for (auto& f : pending) {
    const ServiceOutcome out = f.get();
    ASSERT_FALSE(out.rejected);
    EXPECT_EQ(out.result.status, CheckResult::kSat);
    hits += out.cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, 7);  // one primary solve, seven cache hits
  EXPECT_EQ(service.metrics().counter_value("cache_misses"), 1);
  const std::int64_t one_solve_probes =
      service.metrics().counter_value("solver_probes_total");
  SynthService single{ServiceConfig{}};
  (void)single.solve(req);
  EXPECT_EQ(one_solve_probes,
            single.metrics().counter_value("solver_probes_total"));
}

TEST(SynthServiceMiniPb, MalformedRequestRethrowsFromFuture) {
  SynthService service{ServiceConfig{}};
  const auto spec = shared_example_spec();
  ServiceRequest req;
  req.spec = spec;
  req.point.objective = synth::SweepObjective::kMaxIsolation;
  req.point.usability = util::Fixed::from_int(0);
  req.point.budget = util::Fixed::from_int(20);
  req.synthesis.backend = BackendKind::kMiniPb;
  req.optimize.resolution = util::Fixed{};  // invalid: must throw
  EXPECT_THROW(service.solve(req), util::Error);
}

}  // namespace
}  // namespace cs::service
