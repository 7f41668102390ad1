// SynthService — an in-process synthesis request service.
//
// Sits above synth::solve_sweep_point_on — the one point-solve path it
// shares with the sweep engine — and below the CLIs: callers submit
// independent synthesis requests (a spec plus one objective point) and
// get a future for the outcome. The service adds what ad-hoc
// Synthesizer construction cannot:
//
//   * result caching — requests are keyed by canonical spec fingerprint
//     (model/fingerprint.h) mixed with the objective and solver options;
//     a repeat of an already-answered request is served from the LRU
//     ResultCache with zero solver probes, including *negative* answers
//     (UNSAT verdicts with their threshold cores). Identical requests
//     in flight at the same time are coalesced: duplicates wait for the
//     first solve instead of re-solving (single-flight).
//   * admission control — a bounded queue: submissions beyond
//     `queue_limit` queued-but-not-started requests are rejected
//     immediately and deterministically (never blocked), so overload
//     sheds load instead of growing latency without bound. Per-request
//     deadlines and cancellation tokens are honored cooperatively, the
//     same way SweepEngine handles them.
//   * retry policy — a conflict-limit-capped probe that came back
//     kUnknown is re-run once, cold, with the cap raised ×4 before the
//     lower bound is reported.
//   * warm synthesizer pool — encoded solvers kept across requests,
//     keyed by (spec *shape* digest, backend, caps), for the slider
//     loop: a repeat of one encoding shape at *different* thresholds (a
//     cache miss — including a spec retuned by a thresholds-only
//     cs-delta-v1 delta) checks one out and re-solves by swapping
//     threshold assumptions (synth::Synthesizer::resolve), skipping the
//     encode entirely.
//     A solver is admitted only when its shape comes back: it was
//     checked out warm, or its request's cache lookup was a partial hit
//     (the ResultCache's shape index already held a result for the
//     shape). Any other solver is destroyed when its request ends, on
//     the worker that built it, and counted as `warm_declined`, so a
//     stream of one-off specs parks nothing and evicts nothing. The
//     price: a new shape's second request still solves cold (its solver
//     is the one admitted), and its third is the first warm one.
//     The pool is one list in check-in order: checkout takes the newest
//     entry with the request's key, and past `warm_pool_limit` the
//     oldest entry is evicted FIFO; victims are destroyed after the pool
//     lock is released.
//     Checkout removes the entry from the pool, so a warm synthesizer is
//     never shared between workers; solve_sweep_point_on re-applies the
//     per-request caps on every solve. With the pool off (or on a miss)
//     the checkout is an empty slot and the request solves cold; the
//     retry at a raised cap always solves cold.
//   * metrics — every request feeds the MetricsRegistry (request/hit/
//     rejection counters, per-backend probe counts, warm-pool hits,
//     misses, declines and evictions, cumulative solver-effort counters,
//     queue-wait and solve-time histograms).
//
// Threading model: a fixed util::ThreadPool; each request solves on a
// Synthesizer owned exclusively by its worker for the duration of the
// solve (the SweepEngine discipline), so results are independent of
// worker count and identical to a direct solve. The destructor drains
// queued requests, then joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/fingerprint.h"
#include "service/metrics_registry.h"
#include "service/result_cache.h"
#include "synth/sweep.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cs::service {

/// One synthesis request: a shared read-only spec plus one objective
/// point and the solver options to answer it with. The spec travels by
/// shared_ptr so it outlives the caller for as long as workers need it.
struct ServiceRequest {
  std::shared_ptr<const model::ProblemSpec> spec;
  /// Objective and thresholds (same vocabulary as a sweep grid point).
  synth::SweepPoint point;
  synth::SynthesisOptions synthesis;
  synth::OptimizeOptions optimize;
  synth::MinCostOptions min_cost;
  /// Wall-clock budget from submission in ms (0 = none; negative =
  /// already expired: the request is skipped, never solved).
  std::int64_t deadline_ms = 0;
  /// Optional cancellation token: raise it to skip the request if it has
  /// not started solving yet.
  const std::atomic<bool>* cancel = nullptr;
};

/// Machine-readable reason a request was turned away without a solve.
/// kQueueFull accompanies `rejected`; kDeadlineExpired / kCancelled
/// accompany `result.skipped`. Wire responses (net/request_codec.h) and
/// the per-reason metrics counters carry these names verbatim.
enum class RejectReason {
  kNone,
  kQueueFull,
  kDeadlineExpired,
  kCancelled,
};

/// Stable wire spelling ("queue-full", "deadline-expired", "cancelled";
/// empty for kNone).
std::string_view reject_reason_name(RejectReason reason);

/// Outcome of one request. `result` is a full sweep-point result (bound
/// search or feasibility verdict, metrics, design, UNSAT core); the
/// flags tell how it was obtained.
struct ServiceOutcome {
  /// True when admission control rejected the request (queue full). No
  /// solving happened; `result` is empty with kUnknown status.
  bool rejected = false;
  /// Why the request produced no solve: kQueueFull when `rejected`,
  /// kDeadlineExpired / kCancelled when `result.skipped`, kNone for
  /// answered requests.
  RejectReason reject_reason = RejectReason::kNone;
  /// True when the result came from the cache (zero solver probes).
  bool cache_hit = false;
  /// True when an identical request was already in flight and this one
  /// waited for it instead of solving (counts as a cache hit too).
  bool coalesced = false;
  /// Conflict-cap retries spent on this request (0 or 1).
  int retries = 0;
  model::Fingerprint fingerprint;
  synth::SweepPointResult result;
  /// Enqueue → start wait.
  double queue_ms = 0;
  /// Enqueue → completion.
  double total_ms = 0;
};

/// Tuning knobs fixed at service construction.
struct ServiceConfig {
  /// Worker threads; 0 = one per hardware thread.
  int workers = 1;
  /// Maximum queued-but-not-started requests; submissions beyond it are
  /// rejected immediately (running requests don't count).
  std::size_t queue_limit = 64;
  /// ResultCache entries.
  std::size_t cache_capacity = 256;
  /// Maximum encoded synthesizers kept across requests for warm re-solves
  /// (FIFO eviction across all keys; only shapes that come back are
  /// admitted); 0 disables the warm pool and every request solves cold.
  std::size_t warm_pool_limit = 8;
  /// Observability hook: called on the worker thread when a request
  /// starts executing (after dequeue, before the cache lookup). Used by
  /// tests to control scheduling and by servers for request logging.
  std::function<void(const ServiceRequest&)> on_start;
};

/// The request service (see the header comment for the full contract):
/// bounded-queue admission, result cache with single-flight coalescing,
/// warm synthesizer pool, capped-probe retry, metrics.
class SynthService {
 public:
  explicit SynthService(ServiceConfig config = {});

  /// Drains queued requests, then joins the workers.
  ~SynthService();

  SynthService(const SynthService&) = delete;
  SynthService& operator=(const SynthService&) = delete;

  /// Submits a request. Never blocks on solving: over-limit submissions
  /// resolve immediately with `rejected = true`. The future rethrows
  /// util::Error for malformed requests (bad options), mirroring
  /// SweepEngine::run.
  std::future<ServiceOutcome> submit(ServiceRequest request);

  /// A request completion: the outcome, or the exception the solve threw
  /// (exactly one is meaningful — `error` is null on success).
  using Completion =
      std::function<void(ServiceOutcome outcome, std::exception_ptr error)>;

  /// Callback flavor of submit for event-driven callers (the TCP
  /// front-end): `done` is invoked exactly once — on the worker thread
  /// that executed the request, or on the submitting thread when
  /// admission control rejects it immediately. The callback must not
  /// block the worker; post to your own loop and return.
  void submit(ServiceRequest request, Completion done);

  /// Convenience: submit and wait.
  ServiceOutcome solve(ServiceRequest request) {
    return submit(std::move(request)).get();
  }

  /// Marks every queued-but-not-started request as skipped (running
  /// requests finish normally).
  void cancel_pending() {
    cancel_all_.store(true, std::memory_order_relaxed);
  }

  /// Cache key of a request: the canonical spec digest
  /// (`digests.combined`) mixed with the objective point and the
  /// result-affecting solver options.
  static model::Fingerprint request_fingerprint(
      const ServiceRequest& request, const model::SpecDigests& digests);

  /// Warm-pool key of a request: the spec's *shape* digest
  /// (model::SpecDigests::shape() — topology + flows + UICs, excluding
  /// the threshold/budget sub-digests) mixed with the backend and caps —
  /// everything a synthesizer bakes in at construction.
  /// The point's thresholds and the spec's own sliders are deliberately
  /// absent: same-shape requests at different thresholds — including
  /// specs that differ only by a `retune` delta — share warm solvers.
  static model::Fingerprint warm_fingerprint(
      const ServiceRequest& request, const model::SpecDigests& digests);

  const ResultCache& cache() const { return cache_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  int workers() const { return workers_; }
  /// Encoded synthesizers currently parked in the warm pool.
  std::size_t warm_pool_size() const;

 private:
  /// One parked encoded solver. Holds the spec alive: the synthesizer
  /// references it, and it may outlive the submitting caller.
  struct WarmEntry {
    std::shared_ptr<const model::ProblemSpec> spec;
    std::unique_ptr<synth::Synthesizer> synth;
  };

  /// `watch` and `deadline` both started at enqueue.
  ServiceOutcome execute(const ServiceRequest& request,
                         std::uint64_t request_id, double queued_ms_at_start,
                         util::Stopwatch watch, util::Deadline deadline);
  /// Removes and returns a parked synthesizer for `key` (empty entry on a
  /// miss, and always with the pool off). Checkout transfers ownership,
  /// so entries are never shared.
  WarmEntry warm_checkout(const model::Fingerprint& key);
  /// Parks a synthesizer for reuse, evicting FIFO past the pool limit
  /// and destroying the victims outside the lock (drops it when the pool
  /// is off).
  void warm_checkin(const model::Fingerprint& key, WarmEntry entry);
  /// Feeds a solved point's probe count and solver-effort deltas into the
  /// metrics counters.
  void record_solver_effort(const synth::SweepPointResult& result,
                            smt::BackendKind backend);

  ServiceConfig config_;
  int workers_;
  MetricsRegistry metrics_;
  ResultCache cache_;
  std::atomic<bool> cancel_all_{false};
  /// Monotone request ids linking one request's trace spans (queue wait →
  /// cache lookup → solve → retry) across its lifecycle.
  std::atomic<std::uint64_t> next_request_id_{1};

  mutable std::mutex warm_mutex_;  // guards warm_pool_
  /// Parked entries with their warm keys, in check-in order (the front
  /// is the next eviction victim).
  std::vector<std::pair<model::Fingerprint, WarmEntry>> warm_pool_;

  std::mutex mutex_;  // guards queued_ and inflight_
  std::size_t queued_ = 0;
  /// Single-flight table: fingerprint → completion signal of the request
  /// currently solving it.
  std::unordered_map<model::Fingerprint, std::shared_future<void>,
                     model::FingerprintHash>
      inflight_;

  /// Last member: destroyed first, so workers drain while the members
  /// above are still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace cs::service
