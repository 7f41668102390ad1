// The shared service/solver flag surface of every front-end binary.
//
// configsynth_cli, configsynth_server, tradeoff_explorer and bench_load
// all accept the same core flags, parsed by one helper so the spellings,
// defaults and validation can never drift between binaries:
//
//   --backend z3|minipb      solver backend
//   --jobs <N>               worker threads (0 = one per hardware thread)
//   --queue-limit <N>        admission-control queue depth
//   --cache-capacity <N>     LRU result-cache entries
//   --warm-pool <N>          parked warm synthesizers (0 = off)
//   --time-limit <ms>        per-check wall-clock cap
//   --conflict-limit <n>     per-check deterministic effort cap
//   --metrics-prom <file>    dump the metrics in Prometheus text format
//   --trace-out <file>       record a Chrome-trace-event JSON timeline
//
// Binaries call `consume_common_flag` per argv position and handle their
// own extras (positional arguments, --listen, --port, --shard, ...) when it
// declines; `common_flags_help()` is the usage text for the block above.
#pragma once

#include <string>
#include <string_view>

#include "service/synth_service.h"
#include "synth/synthesizer.h"

namespace cs::net {

struct CommonOptions {
  /// Backend, per-check caps, threshold mode.
  synth::SynthesisOptions synthesis;
  /// Workers (--jobs), queue limit, cache capacity, warm pool.
  service::ServiceConfig service;
  std::string metrics_prom;
  std::string trace_path;
};

/// Consumes argv[i] (and its value, advancing `i`) when it is one of the
/// common flags above; returns false — leaving `i` untouched — when the
/// flag belongs to the caller. Throws util::SpecError on a common flag
/// with a missing or malformed value.
bool consume_common_flag(CommonOptions& options, int argc, char** argv,
                         int& i);

/// Usage text for the common flag block (one flag per line, indented).
std::string_view common_flags_help();

}  // namespace cs::net
