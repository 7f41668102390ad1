// Wall-clock stopwatch used by the synthesis driver and every bench binary,
// and the deadline rule every sweep and service request shares.
//
// Thread-safety (audited for the sweep engine's worker threads): a
// Stopwatch holds no shared or static state — only its own start point —
// and steady_clock::now() is thread-safe, so distinct instances may be
// used concurrently without synchronization. One instance read from a
// thread other than the one that constructed/reset it is safe as long as
// the construction happened-before the read (e.g. created before workers
// start); concurrent reset() and elapsed_*() on the same instance is the
// caller's race to avoid. A Deadline only reads its Stopwatch, so the
// same holds for it.
#pragma once

#include <chrono>
#include <cstdint>

namespace cs::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1000.0; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A wall-clock budget counted from construction. `budget_ms` 0 means no
/// deadline, negative means already expired, otherwise that many ms.
class Deadline {
 public:
  explicit Deadline(std::int64_t budget_ms) : budget_ms_(budget_ms) {}

  /// 0 when there is no deadline, -1 once it has expired, otherwise the
  /// milliseconds left (> 0).
  std::int64_t remaining_ms() const {
    if (budget_ms_ == 0) return 0;
    if (budget_ms_ < 0) return -1;
    const std::int64_t left =
        budget_ms_ - static_cast<std::int64_t>(watch_.elapsed_ms());
    return left > 0 ? left : -1;
  }

  bool expired() const { return remaining_ms() < 0; }

 private:
  Stopwatch watch_;
  std::int64_t budget_ms_;
};

}  // namespace cs::util
