// The benchmark's workloads. Each runs one named workload end to end in
// this process — set-up, timed phase, correctness gate — and fills the
// report; traced runs add the per-layer breakdown.
#pragma once

#include <cstdint>

#include "report.h"

namespace perfbench {

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// serve_cold and serve_hot: the cs-req-v1 TCP server over loopback.
Outcome run_wire(const RunOptions& options, Report& report);

/// churn: Synthesizer::apply_delta over a cs-delta-v1 stream.
Outcome run_churn(const RunOptions& options, Report& report);

/// Number of timed set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

}  // namespace perfbench
