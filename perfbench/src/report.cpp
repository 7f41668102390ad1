#include "report.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

struct WindowSampler::State {
  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  std::vector<double> cpu;
  std::thread thread;
};

WindowSampler::WindowSampler(double t0) : state_(std::make_unique<State>()) {
  state_->cpu.push_back(process_cpu_s());
  state_->thread = std::thread([this, t0] {
    State& s = *state_;
    std::unique_lock<std::mutex> lock(s.mutex);
    for (int k = 1;; ++k) {
      const auto at = std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(t0 + k * kWindowS)));
      if (s.wake.wait_until(lock, at, [&] { return s.stop; })) return;
      s.cpu.push_back(process_cpu_s());
    }
  });
}

std::vector<double> WindowSampler::finish() {
  if (state_->thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->stop = true;
    }
    state_->wake.notify_all();
    state_->thread.join();
  }
  return state_->cpu;
}

WindowSampler::~WindowSampler() { finish(); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Report::add(std::string name, double value, std::string unit,
                 std::int64_t samples) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), samples});
}

void Report::add_end_to_end(const Phase& p, double setup_s, double rss_mb) {
  const auto n = static_cast<std::int64_t>(p.latency_ms.size());
  // Per-window throughput, CPU per op and median latency over the whole
  // windows of the phase (the partial last one is left out).
  const std::size_t windows =
      p.window_cpu_s.empty()
          ? 0
          : std::min(p.window_cpu_s.size() - 1,
                     static_cast<std::size_t>(p.wall_s / kWindowS));
  std::vector<std::vector<double>> in_window(windows);
  for (std::size_t i = 0; i < p.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(p.done_s[i] / kWindowS);
    if (w < windows) in_window[w].push_back(p.latency_ms[i]);
  }
  std::vector<double> rate, cpu_per_op, p50;
  for (std::size_t w = 0; w < windows; ++w) {
    const double ops = static_cast<double>(in_window[w].size());
    if (ops == 0) continue;
    rate.push_back(ops / kWindowS);
    cpu_per_op.push_back(
        1000.0 * (p.window_cpu_s[w + 1] - p.window_cpu_s[w]) / ops);
    p50.push_back(median(in_window[w]));
  }
  std::string per_window;
  for (std::size_t w = 0; w < rate.size(); ++w) {
    char buf[48];
    std::snprintf(buf, sizeof buf, " %.4g/%.3g", rate[w], cpu_per_op[w]);
    per_window += buf;
  }
  note("timed phase: " + std::to_string(p.wall_s) +
       " s; op/s and cpu ms/op per " +
       std::to_string(static_cast<int>(kWindowS)) + " s window:" + per_window);
  const bool windowed = rate.size() >= 3;
  add("ops_per_s", windowed ? median(rate) : p.ops_per_s(), "op/s",
      p.completed);
  add("latency_p50_ms",
      windowed ? median(p50) : quantile(p.latency_ms, 0.50), "ms", n);
  add("latency_p99_ms", quantile(p.latency_ms, 0.99), "ms", n);
  add("decided_pct",
      p.attempted ? 100.0 * static_cast<double>(p.decided) /
                        static_cast<double>(p.attempted)
                  : 0,
      "%", p.attempted);
  add("cpu_ms_per_op",
      windowed ? median(cpu_per_op)
               : (p.completed ? 1000.0 * p.cpu_s / p.completed : 0),
      "ms", p.completed);
  add("peak_rss_mb", rss_mb, "MiB");
  add("setup_s", setup_s, "s");
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(bool correct, std::int64_t attempted,
                   std::int64_t failed) const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples >= 0)
      std::printf("%-28s %14.6f %-6s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    else
      std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    out << (i ? ", " : "") << "\"" << metrics_[i].name
        << "\": {\"value\": " << v << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

SpanLog::Scope::Scope(SpanLog* log, std::uint64_t op, const char* name)
    : log_(log) {
  if (log_ == nullptr) return;
  start_ = now_s();
  index_ = static_cast<std::int32_t>(log_->spans.size());
  SpanLog::Span s;
  s.op = op;
  s.parent = log_->stack_.empty() ? -1 : log_->stack_.back();
  s.name = name;
  s.start_us = start_ * 1e6;
  log_->spans.push_back(s);
  log_->stack_.push_back(index_);
}

double SpanLog::Scope::close() {
  if (log_ == nullptr || index_ < 0) return 0;
  const double dur = (now_s() - start_) * 1e6;
  log_->spans[static_cast<std::size_t>(index_)].dur_us = dur;
  log_->stack_.pop_back();
  index_ = -1;
  return dur;
}

SpanLog::Scope::~Scope() { close(); }

std::map<std::string, SpanStats> aggregate_spans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog* log : logs)
    for (const SpanLog::Span& s : log->spans) {
      SpanStats& st = out[s.name];
      ++st.count;
      st.total_us += s.dur_us;
    }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out.precision(15);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const SpanLog& log = *logs[t];
    std::vector<double> child_us(log.spans.size(), 0);
    for (const SpanLog::Span& s : log.spans)
      if (s.parent >= 0)
        child_us[static_cast<std::size_t>(s.parent)] += s.dur_us;
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const SpanLog::Span& s = log.spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << t
          << ", \"ts\": " << s.start_us << ", \"dur\": " << s.dur_us
          << ", \"args\": {\"op\": " << s.op << ", \"span\": " << i
          << ", \"parent\": " << s.parent
          << ", \"self_us\": " << s.dur_us - child_us[i] << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
