#include "net/options.h"

#include "smt/ir.h"
#include "util/error.h"
#include "util/strings.h"

namespace cs::net {

namespace {

const char* const kHelp =
    "  --backend z3|minipb    solver backend (default z3)\n"
    "  --jobs <N>             worker threads; 0 = one per hardware thread\n"
    "  --queue-limit <N>      max queued requests before rejection\n"
    "  --cache-capacity <N>   result-cache entries\n"
    "  --warm-pool <N>        parked warm synthesizers (0 disables warm\n"
    "                         reuse: every request solves cold, so output\n"
    "                         is identical at any --jobs value)\n"
    "  --time-limit <ms>      per-check wall-clock cap (0 = none)\n"
    "  --conflict-limit <n>   per-check deterministic effort cap (0 = "
    "none)\n"
    "  --metrics-prom <file>  dump metrics in Prometheus text format\n"
    "  --trace-out <file>     record a Chrome-trace-event JSON timeline\n";

}  // namespace

bool consume_common_flag(CommonOptions& options, int argc, char** argv,
                         int& i) {
  const std::string_view flag = argv[i];
  const auto next = [&]() -> std::string {
    CS_REQUIRE(i + 1 < argc,
               "missing value for " + std::string(flag));
    return argv[++i];
  };
  const auto next_count = [&](std::string_view name) {
    const std::int64_t v = util::parse_int(next(), name);
    CS_REQUIRE(v >= 0, std::string(flag) + " must be >= 0");
    return v;
  };

  if (flag == "--backend") {
    options.synthesis.backend = smt::backend_from_name(next());
  } else if (flag == "--jobs") {
    options.service.workers = static_cast<int>(next_count("jobs"));
  } else if (flag == "--queue-limit") {
    options.service.queue_limit =
        static_cast<std::size_t>(next_count("queue limit"));
  } else if (flag == "--cache-capacity") {
    options.service.cache_capacity =
        static_cast<std::size_t>(next_count("cache capacity"));
  } else if (flag == "--warm-pool") {
    options.service.warm_pool_limit =
        static_cast<std::size_t>(next_count("warm pool"));
  } else if (flag == "--time-limit") {
    options.synthesis.check_time_limit_ms = next_count("time limit");
  } else if (flag == "--conflict-limit") {
    options.synthesis.check_conflict_limit = next_count("conflict limit");
  } else if (flag == "--metrics-prom") {
    options.metrics_prom = next();
  } else if (flag == "--trace-out") {
    options.trace_path = next();
  } else {
    return false;
  }
  return true;
}

std::string_view common_flags_help() { return kHelp; }

}  // namespace cs::net
