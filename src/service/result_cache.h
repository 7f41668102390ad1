// Thread-safe LRU cache of synthesis outcomes, keyed by spec fingerprint.
//
// The service layer's memory: a bounded least-recently-used map from a
// request fingerprint (model/fingerprint.h — canonical spec digest mixed
// with the request's objective and solver options) to the full
// SweepPointResult that request produced. Positive entries carry the
// witnessing design and its metrics; *negative* entries — UNSAT verdicts
// — are cached too, together with the threshold unsat core
// (SweepPointResult::conflicting), so an operator re-submitting an
// infeasible slider triple gets the explanation back without a solver
// call. Entries are immutable once inserted: a hit returns a copy, so
// callers can never mutate the cached value.
//
// Each entry also records the spec's per-section sub-digests
// (model::SpecDigests) when the caller provides them, and a shape index
// counts the live entries of each encoding *shape* (topology+flows+uics,
// excluding the threshold/budget query point). A full-key miss whose
// shape matches some cached entry is a partial hit: the result must be
// recomputed, but the shape has been solved before, so it is one that
// comes back. SynthService admits a solver to its warm pool (keyed on
// the same shape digest) only on such a miss or a warm checkout, and
// exports the count as `cache_partial_hits` — the signature of a
// thresholds-only delta stream. The index lives and dies with the
// entries, so it is bounded by the capacity: a shape is remembered for
// as long as one of its results is cached.
//
// All operations take one internal mutex; the expensive part of a
// request (solving) never runs under it.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "model/fingerprint.h"
#include "synth/sweep.h"

namespace cs::service {

/// Monotonic cache counters, snapshotted by `ResultCache::stats()`.
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  /// Hits whose cached verdict was kUnsat (negative-result cache).
  std::int64_t negative_hits = 0;
  /// Full-key misses whose encoding shape matched a cached entry
  /// (thresholds-only divergence — a shape that came back).
  std::int64_t partial_hits = 0;
};

/// The bounded LRU map described in the header comment. All methods are
/// safe to call concurrently.
class ResultCache {
 public:
  /// `capacity` = maximum number of entries (≥ 1).
  explicit ResultCache(std::size_t capacity);

  /// Returns a copy of the cached outcome and marks the entry
  /// most-recently-used; nullopt on miss. When `digests` is given, a
  /// miss additionally probes the shape index and counts a partial hit
  /// on a match (see header comment); `partial` (optional) is set to
  /// whether this lookup was one, so callers can act on it (warm-pool
  /// admission, their own metrics) without re-querying stats().
  std::optional<synth::SweepPointResult> lookup(
      const model::Fingerprint& key,
      const model::SpecDigests* digests = nullptr, bool* partial = nullptr);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// one when full. Skipped results are not worth remembering — the
  /// caller should not insert them. `digests` (optional) feeds the
  /// shape index used for partial hits (warm-pool admission).
  void insert(const model::Fingerprint& key,
              const synth::SweepPointResult& value,
              const model::SpecDigests* digests = nullptr);

  /// Sub-digests recorded with an entry (nullopt on miss or when the
  /// entry was inserted without them). Does not touch LRU order.
  std::optional<model::SpecDigests> digests(
      const model::Fingerprint& key) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  CacheStats stats() const;

 private:
  struct Entry {
    model::Fingerprint key;
    synth::SweepPointResult value;
    std::optional<model::SpecDigests> digests;
  };

  void shape_erase(const std::optional<model::SpecDigests>& digests);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<model::Fingerprint, std::list<Entry>::iterator,
                     model::FingerprintHash>
      index_;
  /// shape digest → number of live entries with that shape.
  std::unordered_map<model::Fingerprint, std::size_t,
                     model::FingerprintHash>
      shapes_;
  CacheStats stats_;
};

}  // namespace cs::service
