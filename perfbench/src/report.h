// Measurement and reporting helpers of the repository benchmark:
// raw-sample percentiles, process CPU and peak memory, the in-memory
// span recorder of traced runs, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the span file of traced runs ("" = not written).
  std::string trace_dir;
};

/// Seconds on a monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds so far.
double process_cpu_s();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();
/// Returns freed heap pages to the system and restarts the peak RSS
/// count from the current resident set, so the next peak_rss_mb() reads
/// the peak of what follows rather than of the set-ups before it.
void restart_peak_rss();

/// Linear-interpolated quantile (q in [0,1]) of raw samples; 0 if empty.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Width of the windows a timed phase is cut into.
inline constexpr double kWindowS = 2.0;

/// One timed phase of a workload, from raw per-op samples. The phase is
/// cut into kWindowS windows; throughput, CPU per op and the median
/// latency are the medians of their per-window values, so a burst of
/// interference from outside the process moves one window, not the run.
struct Phase {
  std::vector<double> latency_ms;  // one sample per completed op
  std::vector<double> done_s;      // its completion, seconds into the phase
  std::vector<double> window_cpu_s;  // process CPU at each window boundary
  std::int64_t attempted = 0;
  std::int64_t completed = 0;  // answered sat/unsat/unknown
  std::int64_t decided = 0;    // answered sat/unsat
  std::int64_t failed = 0;     // errors, drops, rejects, skips
  double wall_s = 0;
  double cpu_s = 0;
  double ops_per_s() const { return wall_s > 0 ? completed / wall_s : 0; }
};

/// Samples process CPU at every window boundary of a phase that started
/// at `t0` (now_s clock), on a thread of its own, until destroyed.
class WindowSampler {
 public:
  explicit WindowSampler(double t0);
  ~WindowSampler();
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;
  /// Stops sampling; returns the CPU reading at each boundary passed.
  std::vector<double> finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = -1;  // printed for sample statistics
};

/// What one run prints: human-readable lines, then the result object as
/// the last line of standard output.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::int64_t samples = -1);
  /// The seven end-to-end metrics of a timed phase.
  void add_end_to_end(const Phase& phase, double setup_s, double rss_mb);
  /// Free-form property line (workload shares, counts, ranges).
  void note(const std::string& line);
  /// Prints notes and metrics, then the result line.
  void print(bool correct, std::int64_t attempted, std::int64_t failed) const;

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
};

/// In-memory span recorder for traced runs. One log per thread; spans
/// carry the op id they belong to and a link to their parent span (the
/// enclosing open span of the same log), so a span's self time is its
/// duration minus its children's.
class SpanLog {
 public:
  struct Span {
    std::uint64_t op = 0;
    std::int32_t parent = -1;
    const char* name = "";
    double start_us = 0;
    double dur_us = 0;
  };

  /// Records one span for its lifetime; a null log records nothing, so
  /// untraced runs pay one branch.
  class Scope {
   public:
    Scope(SpanLog* log, std::uint64_t op, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span early; returns its duration in microseconds.
    double close();

   private:
    SpanLog* log_;
    std::int32_t index_ = -1;
    double start_ = 0;
  };

  std::vector<Span> spans;

 private:
  friend class Scope;
  std::vector<std::int32_t> stack_;
};

/// Aggregates over merged span logs.
struct SpanStats {
  std::int64_t count = 0;
  double total_us = 0;
  double mean_us() const { return count ? total_us / count : 0; }
};
std::map<std::string, SpanStats> aggregate_spans(
    const std::vector<const SpanLog*>& logs);

/// Writes the spans as Chrome trace-event JSON (one track per log), each
/// with its op id, parent link and self time.
void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
