#include "service/synth_service.h"

#include <iterator>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "shard/sharded.h"
#include "util/error.h"
#include "util/timer.h"

namespace cs::service {

std::string_view reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kDeadlineExpired:
      return "deadline-expired";
    case RejectReason::kCancelled:
      return "cancelled";
  }
  return "";
}

void SynthService::record_solver_effort(const synth::SweepPointResult& r,
                                        smt::BackendKind backend) {
  metrics_.counter("solver_probes_total").add(r.search.probes);
  metrics_.counter(std::string("probes_") + smt::backend_name(backend))
      .add(r.search.probes);
  for (const smt::SolverStatField& f : smt::kSolverStatFields)
    metrics_.counter("solver_" + std::string(f.name) + "_total")
        .add(r.solver.*f.member);
}

SynthService::SynthService(ServiceConfig config)
    : config_(std::move(config)),
      workers_(config_.workers == 0
                   ? static_cast<int>(util::ThreadPool::hardware_jobs())
                   : config_.workers),
      cache_(config_.cache_capacity) {
  CS_REQUIRE(config_.workers >= 0, "service workers must be >= 0");
  CS_REQUIRE(config_.retry_cap_factor >= 0,
             "retry_cap_factor must be >= 0");
  pool_ = std::make_unique<util::ThreadPool>(
      static_cast<std::size_t>(workers_));
}

SynthService::~SynthService() = default;

model::Fingerprint SynthService::request_fingerprint(
    const ServiceRequest& request) {
  CS_REQUIRE(request.spec != nullptr, "request needs a spec");
  const model::Fingerprint spec_fp = model::fingerprint_spec(*request.spec);
  model::FingerprintHasher h;
  h.mix_digest(spec_fp);
  h.mix_string("cs-req-v1");
  h.mix_i64(static_cast<std::int64_t>(request.point.objective));
  h.mix_fixed(request.point.isolation);
  h.mix_fixed(request.point.usability);
  h.mix_fixed(request.point.budget);
  h.mix_i64(static_cast<std::int64_t>(request.synthesis.backend));
  h.mix_i64(request.synthesis.check_time_limit_ms);
  h.mix_i64(request.synthesis.check_conflict_limit);
  h.mix_fixed(request.optimize.resolution);
  h.mix_fixed(request.min_cost.resolution);
  h.mix_fixed(request.min_cost.max_budget);
  return h.digest();
}

model::Fingerprint SynthService::warm_fingerprint(
    const ServiceRequest& request) {
  CS_REQUIRE(request.spec != nullptr, "request needs a spec");
  model::FingerprintHasher h;
  // Shape digest, not the full spec digest: the encoding depends only on
  // topology + flows + UICs, so a thresholds/budget retune of a spec the
  // pool has seen still checks out a warm solver (the point carries the
  // query thresholds; spec.sliders never reach the formula).
  h.mix_digest(model::fingerprint_sections(*request.spec).shape());
  h.mix_string("cs-warm-v2");
  h.mix_i64(static_cast<std::int64_t>(request.synthesis.backend));
  h.mix_i64(request.synthesis.check_time_limit_ms);
  h.mix_i64(request.synthesis.check_conflict_limit);
  return h.digest();
}

SynthService::WarmEntry SynthService::warm_checkout(
    const model::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  const auto it = warm_pool_.find(key);
  if (it == warm_pool_.end() || it->second.empty()) return {};
  WarmEntry entry = std::move(it->second.back());
  it->second.pop_back();
  if (it->second.empty()) warm_pool_.erase(it);
  // Drop one matching ticket from the eviction queue (newest first, to
  // pair with the LIFO checkout above).
  for (auto rit = warm_order_.rbegin(); rit != warm_order_.rend(); ++rit) {
    if (*rit == key) {
      warm_order_.erase(std::next(rit).base());
      break;
    }
  }
  return entry;
}

void SynthService::warm_checkin(const model::Fingerprint& key,
                                WarmEntry entry) {
  if (config_.warm_pool_limit == 0) return;
  std::lock_guard<std::mutex> lock(warm_mutex_);
  while (warm_order_.size() >= config_.warm_pool_limit) {
    const model::Fingerprint victim = warm_order_.front();
    warm_order_.erase(warm_order_.begin());
    const auto it = warm_pool_.find(victim);
    if (it != warm_pool_.end() && !it->second.empty()) {
      it->second.erase(it->second.begin());  // oldest entry of that key
      if (it->second.empty()) warm_pool_.erase(it);
      metrics_.counter("warm_evictions").inc();
    }
  }
  warm_pool_[key].push_back(std::move(entry));
  warm_order_.push_back(key);
}

std::size_t SynthService::warm_pool_size() const {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  return warm_order_.size();
}

std::future<ServiceOutcome> SynthService::submit(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<ServiceOutcome>>();
  std::future<ServiceOutcome> future = promise->get_future();
  submit(std::move(request),
         [promise](ServiceOutcome outcome, std::exception_ptr error) {
           if (error)
             promise->set_exception(error);
           else
             promise->set_value(std::move(outcome));
         });
  return future;
}

void SynthService::submit(ServiceRequest request, Completion done) {
  metrics_.counter("requests_total").inc();

  // Admission control: bounded queue, explicit rejection. Checked and
  // reserved under the mutex so concurrent submitters can never
  // collectively exceed the limit.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queued_ >= config_.queue_limit) {
      metrics_.counter("rejected").inc();
      metrics_.counter("rejected_queue_full").inc();
      ServiceOutcome out;
      out.rejected = true;
      out.reject_reason = RejectReason::kQueueFull;
      done(std::move(out), nullptr);
      return;
    }
    ++queued_;
  }

  const std::uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  util::Stopwatch watch;  // request clock: starts at enqueue
  auto task = [this, done = std::move(done), request = std::move(request),
               request_id, watch]() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --queued_;
    }
    const double queue_ms = watch.elapsed_ms();
    metrics_.histogram("queue_ms").observe(queue_ms);
    if (obs::TraceSession::enabled()) {
      // The wait is only known once the request starts, so it is recorded
      // backdated to the enqueue instant — as an async span, because it
      // overlaps earlier requests' spans on this worker's track.
      obs::set_thread_name("service-worker");
      obs::session().record_async_span(
          "service", "service/queue_wait",
          obs::session().now_us() - queue_ms * 1000.0, queue_ms * 1000.0,
          static_cast<std::int64_t>(request_id),
          {{"req", std::to_string(request_id)}});
    }
    if (config_.on_start) config_.on_start(request);
    try {
      done(execute(request, request_id, queue_ms, watch), nullptr);
    } catch (...) {
      done(ServiceOutcome{}, std::current_exception());
    }
  };
  pool_->submit(std::move(task));
}

ServiceOutcome SynthService::execute(const ServiceRequest& request,
                                     std::uint64_t request_id,
                                     double queue_ms,
                                     util::Stopwatch watch) {
  const std::string rid = std::to_string(request_id);
  ServiceOutcome out;
  out.queue_ms = queue_ms;
  out.fingerprint = request_fingerprint(request);
  // Per-section sub-digests travel with every cache probe/insert so the
  // cache can classify misses (partial hit = same encoding shape cached
  // under other thresholds — the warm-resolve signature).
  const model::SpecDigests digests =
      model::fingerprint_sections(*request.spec);

  const auto finish = [&]() -> ServiceOutcome& {
    out.total_ms = watch.elapsed_ms();
    return out;
  };
  const auto expired = [&]() {
    return request.deadline_ms < 0 ||
           (request.deadline_ms > 0 &&
            watch.elapsed_ms() >= static_cast<double>(request.deadline_ms));
  };
  const auto cancelled = [&]() {
    return cancel_all_.load(std::memory_order_relaxed) ||
           (request.cancel != nullptr &&
            request.cancel->load(std::memory_order_relaxed));
  };
  const auto skip = [&](RejectReason reason) -> ServiceOutcome& {
    metrics_.counter("skipped").inc();
    metrics_
        .counter(reason == RejectReason::kCancelled ? "skipped_cancelled"
                                                    : "skipped_deadline")
        .inc();
    out.reject_reason = reason;
    out.result.point = request.point;
    out.result.skipped = true;
    out.result.search.exact = false;
    return finish();
  };

  if (expired())
    return skip(RejectReason::kDeadlineExpired);
  if (cancelled()) return skip(RejectReason::kCancelled);

  // Single-flight loop: serve from cache, else wait for an identical
  // in-flight request, else solve and publish. A waiter re-checks the
  // cache after the primary finishes; if the primary skipped or threw
  // (nothing was published), the waiter solves itself — at most one
  // wait per outcome, so the loop terminates.
  std::shared_future<void> wait_for;
  std::shared_ptr<std::promise<void>> publish;
  const auto traced_lookup = [&] {
    obs::Span span("service", "service/cache_lookup");
    span.arg("req", rid);
    bool partial = false;
    auto hit = cache_.lookup(out.fingerprint, &digests, &partial);
    if (partial) metrics_.counter("cache_partial_hits").inc();
    return hit;
  };
  for (bool waited = false;;) {
    if (auto hit = traced_lookup()) {
      metrics_.counter("cache_hits").inc();
      out.cache_hit = true;
      out.coalesced = waited;
      out.result = std::move(*hit);
      return finish();
    }
    if (waited) break;  // primary published nothing; solve ourselves
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = inflight_.find(out.fingerprint);
      if (it == inflight_.end()) {
        publish = std::make_shared<std::promise<void>>();
        inflight_.emplace(out.fingerprint, publish->get_future().share());
        break;  // we are the primary
      }
      wait_for = it->second;
    }
    metrics_.counter("coalesced_waits").inc();
    wait_for.wait();  // the primary never waits, so this cannot cycle
    waited = true;
  }
  metrics_.counter("cache_misses").inc();

  // Publish-and-release guard so coalesced waiters wake even if the
  // solve throws.
  struct Release {
    SynthService* self;
    const model::Fingerprint& fp;
    std::shared_ptr<std::promise<void>> publish;
    ~Release() {
      if (!publish) return;
      {
        std::lock_guard<std::mutex> lock(self->mutex_);
        self->inflight_.erase(fp);
      }
      publish->set_value();
    }
  } release{this, out.fingerprint, publish};

  // Solve on a Synthesizer owned exclusively by this worker, exactly as
  // a sweep grid point would be — warm from the pool when an encoded
  // solver for this spec/backend/caps is parked, cold otherwise.
  synth::SweepRequest sweep;
  sweep.synthesis = request.synthesis;
  sweep.optimize = request.optimize;
  sweep.min_cost = request.min_cost;
  const auto remaining = [&]() -> std::int64_t {
    if (request.deadline_ms <= 0) return 0;
    const std::int64_t left =
        request.deadline_ms -
        static_cast<std::int64_t>(watch.elapsed_ms());
    return left > 0 ? left : -1;
  };
  std::int64_t left = remaining();
  if (request.deadline_ms != 0 && left < 0)
    return skip(RejectReason::kDeadlineExpired);

  // Sharded path: feasibility points solve through shard::ShardedSynthesizer
  // when the service was configured for it. The sharded pipeline owns its
  // own solvers (fresh per region) and re-validates against the point's
  // thresholds, so it bypasses the warm pool entirely.
  const bool shard_requested =
      config_.shard_regions != 0 &&
      request.point.objective == synth::SweepObjective::kFeasibility;
  if (shard_requested) {
    obs::Span span("service", "service/shard_solve");
    span.arg("req", rid);
    span.arg("backend", smt::backend_name(request.synthesis.backend));
    util::Stopwatch shard_watch;
    // The sharded synthesizer reads the spec's own sliders; materialize
    // the point's thresholds into a spec copy when they differ.
    std::shared_ptr<const model::ProblemSpec> spec = request.spec;
    const model::Sliders want{request.point.isolation,
                              request.point.usability, request.point.budget};
    if (spec->sliders.isolation != want.isolation ||
        spec->sliders.usability != want.usability ||
        spec->sliders.budget != want.budget) {
      auto copy = std::make_shared<model::ProblemSpec>(*spec);
      copy->sliders = want;
      spec = copy;
    }
    shard::ShardOptions shard_options;
    shard_options.synthesis = request.synthesis;
    shard_options.regions = config_.shard_regions < 0 ? 0
                                                      : config_.shard_regions;
    shard_options.jobs = 1;
    shard::ShardedOutcome sharded =
        shard::ShardedSynthesizer(*spec, shard_options).synthesize();
    metrics_.counter("shard_solves").inc();
    if (sharded.used_fallback) {
      metrics_.counter("shard_fallbacks").inc();
      span.arg("fallback", sharded.fallback_reason);
    }
    span.arg("regions", std::to_string(sharded.regions));
    out.result.point = request.point;
    out.result.status = sharded.status;
    out.result.conflicting = std::move(sharded.conflicting);
    out.result.search.feasible = sharded.status == smt::CheckResult::kSat;
    out.result.search.exact = sharded.status != smt::CheckResult::kUnknown;
    out.result.search.probes = sharded.regions + (sharded.used_fallback ? 1 : 0);
    if (sharded.design.has_value()) {
      out.result.search.metrics = synth::compute_metrics(*spec,
                                                         *sharded.design);
      out.result.search.design = std::move(sharded.design);
    }
    out.result.wall_seconds = shard_watch.elapsed_seconds();
    metrics_.counter(std::string("probes_") +
                     smt::backend_name(request.synthesis.backend))
        .add(out.result.search.probes);
    metrics_.histogram("solve_ms").observe(out.result.wall_seconds * 1000.0);
    cache_.insert(out.fingerprint, out.result, &digests);
    return finish();
  }

  const bool warm_eligible = config_.warm_pool_limit > 0;
  model::Fingerprint warm_key;
  WarmEntry entry;
  if (warm_eligible) {
    obs::Span span("service", "service/warm_checkout");
    span.arg("req", rid);
    warm_key = warm_fingerprint(request);
    entry = warm_checkout(warm_key);
    span.arg("hit", entry.synth != nullptr ? "1" : "0");
  }
  {
    obs::Span span("service", "service/solve");
    span.arg("req", rid);
    span.arg("backend", smt::backend_name(request.synthesis.backend));
    span.arg("warm", entry.synth != nullptr ? "1" : "0");
    if (entry.synth != nullptr) {
      metrics_.counter("warm_hits").inc();
      out.result = synth::solve_sweep_point_on(*entry.synth, *entry.spec,
                                               sweep, request.point, left,
                                               /*charge_encode=*/false);
    } else if (warm_eligible) {
      metrics_.counter("warm_misses").inc();
      util::Stopwatch encode_watch;
      entry.spec = request.spec;
      entry.synth = std::make_unique<synth::Synthesizer>(*request.spec,
                                                         request.synthesis);
      out.result = synth::solve_sweep_point_on(*entry.synth, *entry.spec,
                                               sweep, request.point, left,
                                               /*charge_encode=*/true);
      // Like a cold sweep point, the first solve's wall clock includes the
      // encode it paid for.
      out.result.wall_seconds = encode_watch.elapsed_seconds();
    } else {
      out.result =
          synth::solve_sweep_point(*request.spec, sweep, request.point, left);
    }
  }
  if (entry.synth != nullptr) warm_checkin(warm_key, std::move(entry));
  record_solver_effort(out.result, request.synthesis.backend);

  // Retry policy: a conflict-capped probe that came back unknown gets
  // one more attempt with a raised cap before we report a mere bound.
  // The retry always solves cold: its raised cap no longer matches the
  // warm-pool key's caps.
  if (out.result.status == smt::CheckResult::kUnknown &&
      request.synthesis.check_conflict_limit > 0 &&
      config_.retry_cap_factor > 0 && !cancelled()) {
    left = remaining();
    if (request.deadline_ms == 0 || left > 0) {
      metrics_.counter("retries").inc();
      out.retries = 1;
      sweep.synthesis.check_conflict_limit *= config_.retry_cap_factor;
      obs::Span span("service", "service/retry");
      span.arg("req", rid);
      span.arg("conflict_limit",
               std::to_string(sweep.synthesis.check_conflict_limit));
      synth::SweepPointResult retried =
          synth::solve_sweep_point(*request.spec, sweep, request.point, left);
      record_solver_effort(retried, request.synthesis.backend);
      retried.wall_seconds += out.result.wall_seconds;
      out.result = std::move(retried);
    }
  }

  metrics_.histogram("solve_ms").observe(out.result.wall_seconds * 1000.0);
  cache_.insert(out.fingerprint, out.result, &digests);
  return finish();
}

}  // namespace cs::service
