#include "service/metrics_registry.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/table.h"

namespace cs::service {

namespace {

std::string fmt_ms(double ms) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << ms;
  return os.str();
}

}  // namespace

const std::vector<double>& Histogram::bucket_bounds() {
  static const std::vector<double> kBounds = {1,   2,    5,    10,   20,
                                              50,  100,  200,  500,  1000,
                                              2000, 5000, 10000};
  return kBounds;
}

Histogram::Histogram() : buckets_(bucket_bounds().size() + 1, 0) {}

void Histogram::observe(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto& bounds = bucket_bounds();
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), ms) - bounds.begin());
  ++buckets_[i];
  ++count_;
  sum_ += ms;
  min_ = count_ == 1 ? ms : std::min(min_, ms);
  max_ = std::max(max_, ms);
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}
double Histogram::sum_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}
double Histogram::min_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}
double Histogram::max_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}
double Histogram::mean_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}
std::vector<std::int64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_;
}

double Histogram::percentile_ms(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  const auto& bounds = bucket_bounds();
  double cumulative = 0;
  double value = max_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      // Interpolate linearly inside [lo, hi); the overflow bucket's upper
      // edge is the observed maximum (the only bound we have for it).
      const double lo = i == 0 ? 0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : max_;
      const double fraction = (target - cumulative) / in_bucket;
      value = lo + fraction * (hi - lo);
      break;
    }
    cumulative += in_bucket;
  }
  // The bucket edges overshoot what was actually seen; the true order
  // statistics always lie inside the observed range.
  return std::clamp(value, min_, max_);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [n, c] : counters_)
    if (n == name) return c;
  counters_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name),
                         std::forward_as_tuple());
  return counters_.back().second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [n, h] : histograms_)
    if (n == name) return h;
  histograms_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple());
  return histograms_.back().second;
}

std::int64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [n, c] : counters_)
    if (n == name) return c.value();
  return 0;
}

std::string MetricsRegistry::render() const {
  std::vector<std::pair<std::string, std::int64_t>> counter_rows;
  std::vector<std::string> histo_names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [n, c] : counters_) counter_rows.emplace_back(n, c.value());
    for (const auto& [n, h] : histograms_) histo_names.push_back(n);
  }
  std::sort(counter_rows.begin(), counter_rows.end());
  std::sort(histo_names.begin(), histo_names.end());

  std::string out = "=== Service metrics ===\n";
  util::TextTable counters({"counter", "value"});
  for (const auto& [n, v] : counter_rows)
    counters.add_row({n, std::to_string(v)});
  out += counters.render();

  util::TextTable histos({"histogram", "count", "mean ms", "p50 ms",
                          "p90 ms", "p99 ms", "min ms", "max ms"});
  for (const std::string& n : histo_names) {
    // histogram() never creates here: the name came from the registry.
    const Histogram& h = const_cast<MetricsRegistry*>(this)->histogram(n);
    histos.add_row({n, std::to_string(h.count()), fmt_ms(h.mean_ms()),
                    fmt_ms(h.percentile_ms(0.50)),
                    fmt_ms(h.percentile_ms(0.90)),
                    fmt_ms(h.percentile_ms(0.99)), fmt_ms(h.min_ms()),
                    fmt_ms(h.max_ms())});
  }
  if (!histo_names.empty()) {
    out += "\n";
    out += histos.render();
  }
  return out;
}

namespace {

/// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*; everything
/// else becomes '_'. The "configsynth_" prefix keeps the leading
/// character legal even for names starting with a digit.
std::string prom_name(const std::string& name) {
  std::string out = "configsynth_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Bucket bound as Prometheus renders it: shortest exact decimal ("1",
/// "2", "0.5"), no trailing zeros.
std::string prom_le(double bound) {
  std::ostringstream os;
  os << bound;
  return os.str();
}

}  // namespace

std::string MetricsRegistry::render_prometheus() const {
  std::vector<std::pair<std::string, std::int64_t>> counter_rows;
  std::vector<std::string> histo_names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [n, c] : counters_) counter_rows.emplace_back(n, c.value());
    for (const auto& [n, h] : histograms_) histo_names.push_back(n);
  }
  std::sort(counter_rows.begin(), counter_rows.end());
  std::sort(histo_names.begin(), histo_names.end());

  std::string out;
  for (const auto& [n, v] : counter_rows) {
    const std::string name = prom_name(n);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const std::string& n : histo_names) {
    const Histogram& h = const_cast<MetricsRegistry*>(this)->histogram(n);
    const std::string name = prom_name(n);
    out += "# TYPE " + name + " histogram\n";
    const auto counts = h.buckets();
    const auto& bounds = Histogram::bucket_bounds();
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out += name + "_bucket{le=\"" + prom_le(bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += counts.back();
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += name + "_sum " + fmt_ms(h.sum_ms()) + "\n";
    out += name + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

}  // namespace cs::service
