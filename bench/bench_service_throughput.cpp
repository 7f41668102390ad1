// Service throughput under duplicate traffic — the caching ablation.
//
// Drives service::SynthService with request streams at 0%, 50% and 90%
// duplicate ratios on both backends and reports requests/second, cache
// hit rate and total solver probes. Duplicates are exact fingerprint
// repeats of earlier requests, so the hit rate of a d% duplicate stream
// must reach d% — single-flight coalescing guarantees this even when the
// duplicate is submitted while its primary is still solving.
//
// Uses the deterministic effort caps of sweep_options() so probe counts
// are reproducible; `--jobs N` selects the worker count (default 1).
#include <memory>
#include <string>
#include <vector>

#include "common/workloads.h"
#include "service/synth_service.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace cs;
  const int jobs = bench::jobs(argc, argv);
  const int total = bench::full_mode() ? 200 : 10;
  const std::vector<int> duplicate_pcts = {0, 50, 90};

  // One shared mid-size spec; requests differ in their threshold triple,
  // which is part of the fingerprint, so "distinct" means distinct keys.
  const auto spec = std::make_shared<const model::ProblemSpec>(
      bench::make_eval_spec(8, 8, 0.10, 4242));

  std::vector<std::vector<std::string>> rows;
  for (const smt::BackendKind kind :
       {smt::BackendKind::kZ3, smt::BackendKind::kMiniPb}) {
    for (const int dup_pct : duplicate_pcts) {
      const int distinct = std::max(1, total * (100 - dup_pct) / 100);

      service::ServiceConfig config;
      config.workers = jobs;
      config.queue_limit = static_cast<std::size_t>(total) + 8;
      service::SynthService service(config);

      const auto request_at = [&](int key) {
        service::ServiceRequest req;
        req.spec = spec;
        req.point.objective = synth::SweepObjective::kFeasibility;
        // Distinct sub-slider offsets: every key is a distinct
        // fingerprint but the same (easy, SAT) instance difficulty.
        req.point.isolation = util::Fixed::from_raw(key);
        req.point.usability = util::Fixed::from_int(0);
        req.point.budget = util::Fixed::from_int(100);
        synth::SynthesisOptions opts = bench::sweep_options();
        opts.backend = kind;
        req.synthesis = opts;
        return req;
      };

      // Stream: the first `distinct` requests introduce the keys, the
      // remaining total-distinct repeat them round-robin.
      std::vector<std::future<service::ServiceOutcome>> pending;
      pending.reserve(static_cast<std::size_t>(total));
      util::Stopwatch watch;
      for (int i = 0; i < total; ++i)
        pending.push_back(
            service.submit(request_at(i < distinct ? i : i % distinct)));
      int hits = 0, rejected = 0;
      for (auto& f : pending) {
        const service::ServiceOutcome out = f.get();
        hits += out.cache_hit ? 1 : 0;
        rejected += out.rejected ? 1 : 0;
      }
      const double wall = watch.elapsed_seconds();

      const double hit_rate =
          100.0 * hits / static_cast<double>(total);
      char rate[32], rps[32];
      std::snprintf(rate, sizeof(rate), "%.1f%%", hit_rate);
      std::snprintf(rps, sizeof(rps), "%.1f",
                    static_cast<double>(total) / wall);
      rows.push_back(
          {smt::backend_name(kind),
           std::to_string(dup_pct) + "%", std::to_string(total),
           std::to_string(distinct), rps, rate,
           std::to_string(
               service.metrics().counter_value("solver_probes_total")),
           bench::fmt_seconds(wall), rejected == 0 ? "ok" : "REJECTED"});
    }
  }
  bench::emit("service_throughput",
              "Service throughput vs duplicate-request ratio "
              "(cache + single-flight coalescing)",
              {"backend", "dup", "requests", "distinct", "req/s",
               "hit rate", "probes", "wall(s)", "admission"},
              rows);
  return 0;
}
