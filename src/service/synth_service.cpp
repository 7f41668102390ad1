#include "service/synth_service.h"

#include <iterator>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace cs::service {

namespace {

/// A conflict-capped kUnknown probe is retried once at this multiple of
/// its cap.
constexpr std::int64_t kRetryCapFactor = 4;

}  // namespace

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
  pool_ = std::make_unique<util::ThreadPool>(
      static_cast<std::size_t>(workers_));
}

SynthService::~SynthService() = default;

model::Fingerprint SynthService::request_fingerprint(
    const ServiceRequest& request, const model::SpecDigests& digests) {
  model::FingerprintHasher h;
  h.mix_digest(digests.combined);
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
    const ServiceRequest& request, const model::SpecDigests& digests) {
  model::FingerprintHasher h;
  // Shape digest, not the full spec digest: the encoding depends only on
  // topology + flows + UICs, so a thresholds/budget retune of a spec the
  // pool has seen still checks out a warm solver (the point carries the
  // query thresholds; spec.sliders never reach the formula).
  h.mix_digest(digests.shape());
  h.mix_string("cs-warm-v2");
  h.mix_i64(static_cast<std::int64_t>(request.synthesis.backend));
  h.mix_i64(request.synthesis.check_time_limit_ms);
  h.mix_i64(request.synthesis.check_conflict_limit);
  return h.digest();
}

SynthService::WarmEntry SynthService::warm_checkout(
    const model::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  // Newest entry with the key first: checkout is LIFO per key.
  for (auto it = warm_pool_.rbegin(); it != warm_pool_.rend(); ++it) {
    if (it->first != key) continue;
    WarmEntry entry = std::move(it->second);
    warm_pool_.erase(std::next(it).base());
    return entry;
  }
  return {};
}

void SynthService::warm_checkin(const model::Fingerprint& key,
                                WarmEntry entry) {
  if (config_.warm_pool_limit == 0) return;
  // Declared before the lock, so the victims (whole solvers) are
  // destroyed after it is released and no checkout waits on them.
  std::vector<WarmEntry> victims;
  std::lock_guard<std::mutex> lock(warm_mutex_);
  while (warm_pool_.size() >= config_.warm_pool_limit) {
    victims.push_back(std::move(warm_pool_.front().second));
    warm_pool_.erase(warm_pool_.begin());
    metrics_.counter("warm_evictions").inc();
  }
  warm_pool_.emplace_back(key, std::move(entry));
}

std::size_t SynthService::warm_pool_size() const {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  return warm_pool_.size();
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
  // The request clock and its deadline both start at enqueue.
  util::Stopwatch watch;
  const util::Deadline deadline(request.deadline_ms);
  auto task = [this, done = std::move(done), request = std::move(request),
               request_id, watch, deadline]() {
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
      done(execute(request, request_id, queue_ms, watch, deadline),
           nullptr);
    } catch (...) {
      done(ServiceOutcome{}, std::current_exception());
    }
  };
  pool_->submit(std::move(task));
}

ServiceOutcome SynthService::execute(const ServiceRequest& request,
                                     std::uint64_t request_id,
                                     double queue_ms, util::Stopwatch watch,
                                     util::Deadline deadline) {
  CS_REQUIRE(request.spec != nullptr, "request needs a spec");
  const std::string rid = std::to_string(request_id);
  // The spec is hashed once: the cache key, the cache's miss
  // classification (partial hit = same encoding shape cached under other
  // thresholds — the signal that admits a solver to the warm pool) and
  // the warm-pool key all derive from these digests.
  const model::SpecDigests digests =
      model::fingerprint_sections(*request.spec);
  ServiceOutcome out;
  out.queue_ms = queue_ms;
  out.fingerprint = request_fingerprint(request, digests);

  const auto finish = [&]() -> ServiceOutcome& {
    out.total_ms = watch.elapsed_ms();
    return out;
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

  if (deadline.expired()) return skip(RejectReason::kDeadlineExpired);
  if (cancelled()) return skip(RejectReason::kCancelled);

  // Single-flight loop: serve from cache, else wait for an identical
  // in-flight request, else solve and publish. A waiter re-checks the
  // cache after the primary finishes; if the primary skipped or threw
  // (nothing was published), the waiter solves itself — at most one
  // wait per outcome, so the loop terminates.
  std::shared_future<void> wait_for;
  std::shared_ptr<std::promise<void>> publish;
  // Whether the last lookup missed on a shape the cache already holds a
  // result for: the shape has come back, so its solver is worth pooling.
  bool shape_cached = false;
  const auto traced_lookup = [&] {
    obs::Span span("service", "service/cache_lookup");
    span.arg("req", rid);
    auto hit = cache_.lookup(out.fingerprint, &digests, &shape_cached);
    if (shape_cached) metrics_.counter("cache_partial_hits").inc();
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
  // a sweep grid point would be: warm on a checked-out encoded solver for
  // this shape/backend/caps, cold on an empty slot (a miss, or the pool
  // is off).
  synth::SweepRequest sweep;
  sweep.synthesis = request.synthesis;
  sweep.optimize = request.optimize;
  sweep.min_cost = request.min_cost;
  std::int64_t left = deadline.remaining_ms();
  if (left < 0) return skip(RejectReason::kDeadlineExpired);

  const model::Fingerprint warm_key = warm_fingerprint(request, digests);
  WarmEntry entry;
  {
    obs::Span span("service", "service/warm_checkout");
    span.arg("req", rid);
    entry = warm_checkout(warm_key);
    span.arg("hit", entry.synth != nullptr ? "1" : "0");
  }
  if (config_.warm_pool_limit > 0)
    metrics_.counter(entry.synth != nullptr ? "warm_hits" : "warm_misses")
        .inc();
  if (entry.synth == nullptr) entry.spec = request.spec;
  {
    obs::Span span("service", "service/solve");
    span.arg("req", rid);
    span.arg("backend", smt::backend_name(request.synthesis.backend));
    span.arg("warm", entry.synth != nullptr ? "1" : "0");
    out.result = synth::solve_sweep_point_on(entry.synth, *entry.spec, sweep,
                                             request.point, left);
  }
  // Pool the solver only when its shape comes back: it was checked out
  // warm, or the cache already held a result for the shape. A one-off
  // shape's solver is destroyed here, on the worker that built it.
  if (out.result.warm || shape_cached) {
    warm_checkin(warm_key, std::move(entry));
  } else {
    if (config_.warm_pool_limit > 0) metrics_.counter("warm_declined").inc();
    entry = {};
  }
  record_solver_effort(out.result, request.synthesis.backend);

  // Retry policy: a conflict-capped probe that came back unknown gets
  // one more attempt with a raised cap before we report a mere bound.
  // The retry always solves cold: its raised cap no longer matches the
  // warm-pool key's caps.
  left = deadline.remaining_ms();
  if (out.result.status == smt::CheckResult::kUnknown &&
      request.synthesis.check_conflict_limit > 0 && !cancelled() &&
      left >= 0) {
    metrics_.counter("retries").inc();
    out.retries = 1;
    sweep.synthesis.check_conflict_limit *= kRetryCapFactor;
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

  metrics_.histogram("solve_ms").observe(out.result.wall_seconds * 1000.0);
  cache_.insert(out.fingerprint, out.result, &digests);
  return finish();
}

}  // namespace cs::service
