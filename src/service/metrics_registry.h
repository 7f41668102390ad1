// Operational metrics for the synthesis service (counters + histograms).
//
// A `MetricsRegistry` is the service's single observability surface:
// named monotonic counters (requests, cache hits, per-backend probe
// counts, rejections) and latency histograms (enqueue→start wait, solve
// wall time) with fixed exponential millisecond buckets. The text
// rendering uses the same util::table substrate as the bench binaries, so
// a metrics dump reads like every other table in the repo; SynthService
// dumps it on shutdown and on demand.
//
// Thread-safety: counter increments are lock-free atomics; histogram
// observations take a per-histogram mutex (observations are request-rate
// events, far from any hot loop). Creating a metric takes the registry
// mutex once; the returned reference stays valid for the registry's
// lifetime (std::deque storage — no reallocation moves).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace cs::service {

/// Monotonic counter. Increments are relaxed atomics: counts are
/// monitoring data, not synchronization.
class Counter {
 public:
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Latency histogram over fixed exponential millisecond buckets
/// (1, 2, 5, 10, ... 10000, +inf) plus count/sum/min/max.
class Histogram {
 public:
  Histogram();

  /// Records one latency sample (milliseconds).
  void observe(double ms);

  std::int64_t count() const;
  double sum_ms() const;
  double min_ms() const;  // 0 when empty
  double max_ms() const;
  double mean_ms() const;
  /// Quantile estimate (q in [0,1]) interpolated linearly inside the
  /// exponential buckets and clamped to the observed [min, max], so a
  /// single-sample histogram reports that sample for every quantile.
  /// 0 when empty.
  double percentile_ms(double q) const;
  /// Upper bound of each finite bucket, shared by all histograms.
  static const std::vector<double>& bucket_bounds();
  /// Observation count per bucket (bucket_bounds().size() + 1 entries;
  /// the last is the overflow bucket).
  std::vector<std::int64_t> buckets() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Name → metric registry. Metric creation is idempotent: asking for an
/// existing name returns the same instance.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Counter value, 0 when the counter was never created (convenient for
  /// tests asserting on metrics that may not have fired).
  std::int64_t counter_value(const std::string& name) const;

  /// Aligned text tables (counters, then histograms), names sorted.
  std::string render() const;

  /// Prometheus text exposition format (version 0.0.4): counters as
  /// `configsynth_<name>`, histograms as the standard `_bucket{le=...}`
  /// cumulative series plus `_sum`/`_count`. Names are sanitized to the
  /// Prometheus charset.
  std::string render_prometheus() const;

 private:
  mutable std::mutex mutex_;
  // deque: stable addresses for the references handed out above.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
};

}  // namespace cs::service
