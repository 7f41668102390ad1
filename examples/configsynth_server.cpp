// configsynth_server — many clients, one warm synthesis service.
//
// Two front-ends over the same service::SynthService and the same
// cs-req-v1 codec (net/request_codec.h, docs/PROTOCOL.md):
//
//   configsynth_server <requests.txt> [flags]
//     File mode. Reads a newline-delimited cs-req-v1 request file and
//     prints one cs-resp-v1 response line per request, in submission
//     order, followed by a summary and the service metrics dump. `file:`
//     spec paths resolve relative to the request file; a line consisting
//     of the single word `metrics` prints a snapshot once every request
//     above it has completed. Malformed lines get a structured
//     `status=error` response instead of aborting the batch.
//
//   configsynth_server --listen <port> [--spec-root <dir>] [flags]
//     TCP mode. Serves cs-req-v1 over keep-alive connections on an
//     epoll loop (net/server.h), with HTTP `GET /metrics` on the same
//     port. `file:` spec paths resolve under --spec-root (default ".").
//     Port 0 picks an ephemeral port (printed on startup).
//
// Both modes accept the shared flag surface (net/options.h):
// --backend, --jobs, --queue-limit, --cache-capacity, --warm-pool,
// --time-limit, --conflict-limit, --metrics-prom, --trace-out.
//
// SIGINT/SIGTERM drain gracefully in both modes: queued requests are
// cancelled cooperatively, in-flight solves finish and answer, and the
// metrics dump (summary, Prometheus, trace) still happens before
// the conventional fatal-signal exit code 130 — an interrupted run is
// observable rather than silent.
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "model/delta.h"
#include "model/input_file.h"
#include "net/options.h"
#include "net/request_codec.h"
#include "net/server.h"
#include "obs/trace.h"
#include "service/synth_service.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace cs;

/// Raised by the SIGINT/SIGTERM handler. File mode polls the flag; TCP
/// mode additionally gets a write to the drain eventfd (write(2) is
/// async-signal-safe, so the epoll loop wakes immediately).
std::atomic<bool> g_interrupted{false};
std::atomic<int> g_signal_fd{-1};

void handle_signal(int) {
  g_interrupted.store(true);
  const int fd = g_signal_fd.load();
  if (fd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
  }
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

void dump_metrics(const service::MetricsRegistry& metrics,
                  const net::CommonOptions& opts) {
  std::cout << metrics.render();
  if (!opts.metrics_prom.empty()) {
    std::ofstream prom(opts.metrics_prom);
    CS_REQUIRE(static_cast<bool>(prom), "cannot open metrics-prom file '" +
                                            opts.metrics_prom + "'");
    prom << metrics.render_prometheus();
    std::cout << "metrics prometheus written to " << opts.metrics_prom
              << "\n";
  }
  if (!opts.trace_path.empty()) {
    // The pool is idle by the time either mode dumps, so the export
    // cannot race with recording.
    obs::session().disable();
    obs::session().write_json(opts.trace_path);
    std::cout << "trace written to " << opts.trace_path << "\n";
  }
}

/// One response-in-submission-order slot: already answered (parse
/// errors, hello acks) or waiting on a service future.
struct Slot {
  bool ready = false;
  net::WireResponse response;           // ready slots
  std::size_t future_index = 0;         // pending slots
  std::string id;
  synth::SweepPoint point;
};

int run_file_mode(const std::string& requests_path,
                  const net::CommonOptions& opts) {
  std::ifstream in(requests_path);
  CS_REQUIRE(static_cast<bool>(in),
             "cannot open request file '" + requests_path + "'");
  const std::string base_dir = dirname_of(requests_path);

  service::SynthService service(opts.service);
  std::map<std::string, std::shared_ptr<const model::ProblemSpec>> specs;
  /// Base for `delta:` spec-refs: the spec of the most recent request
  /// line whose spec-ref resolved, in file order (docs/DELTAS.md).
  std::shared_ptr<const model::ProblemSpec> last_spec;
  std::vector<Slot> slots;
  std::vector<std::future<service::ServiceOutcome>> pending;
  /// Slot counts after which a `metrics` command line asks for a
  /// snapshot (0 = before any line answered).
  std::vector<std::size_t> metrics_after;
  std::uint64_t next_auto_id = 1;
  util::Stopwatch watch;

  std::string line;
  while (std::getline(in, line)) {
    net::ParsedLine parsed;
    try {
      parsed = net::RequestCodec::parse_line(line);
    } catch (const util::Error& e) {
      Slot slot;
      slot.ready = true;
      slot.response = net::RequestCodec::error_response("-", e.what());
      slots.push_back(std::move(slot));
      continue;
    }
    switch (parsed.kind) {
      case net::LineKind::kBlank:
        continue;
      case net::LineKind::kHello: {
        Slot slot;
        slot.ready = true;
        slot.response.status = net::WireStatus::kOk;
        slot.response.message = std::string(net::RequestCodec::kVersion);
        slots.push_back(std::move(slot));
        continue;
      }
      case net::LineKind::kMetrics:
        metrics_after.push_back(slots.size());
        continue;
      case net::LineKind::kRequest:
        break;
    }

    net::WireRequest& request = parsed.request;
    const std::string id = request.id.empty()
                               ? std::to_string(next_auto_id++)
                               : request.id;
    Slot slot;
    slot.id = id;
    slot.point = request.point;
    try {
      std::shared_ptr<const model::ProblemSpec> spec;
      if (request.spec_kind == net::SpecRefKind::kDelta) {
        CS_REQUIRE(last_spec != nullptr,
                   "delta: spec-ref needs a previous spec in this request "
                   "file (put a file:/inline: request first)");
        spec = std::make_shared<const model::ProblemSpec>(model::apply_delta(
            *last_spec, model::parse_delta(request.spec)));
      } else if (request.spec_kind == net::SpecRefKind::kInline) {
        auto& cached = specs["inline\n" + request.spec];
        if (!cached) {
          std::istringstream spec_in(request.spec);
          cached = std::make_shared<const model::ProblemSpec>(
              model::parse_input(spec_in));
        }
        spec = cached;
      } else {
        const std::string path = request.spec[0] == '/'
                                     ? request.spec
                                     : base_dir + "/" + request.spec;
        auto& cached = specs[path];
        if (!cached)
          cached = std::make_shared<const model::ProblemSpec>(
              model::parse_input_file(path));
        spec = cached;
      }
      last_spec = spec;
      service::ServiceRequest sreq;
      sreq.spec = std::move(spec);
      sreq.point = request.point;
      sreq.synthesis = opts.synthesis;
      sreq.deadline_ms = request.deadline_ms;
      slot.future_index = pending.size();
      pending.push_back(service.submit(std::move(sreq)));
    } catch (const util::Error& e) {
      slot.ready = true;
      slot.response = net::RequestCodec::error_response(id, e.what());
    }
    slots.push_back(std::move(slot));
  }
  CS_REQUIRE(!slots.empty(), "request file has no requests");

  const auto emit_markers = [&](std::size_t done) {
    for (const std::size_t after : metrics_after) {
      if (after != done) continue;
      std::cout << "--- metrics after " << done << " request"
                << (done == 1 ? "" : "s") << " ---\n"
                << service.metrics().render() << "\n";
    }
  };
  emit_markers(0);

  int failures = 0;
  bool cancelled = false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (!slot.ready) {
      auto& fut = pending[slot.future_index];
      // Poll instead of blocking so a SIGINT/SIGTERM can cancel the
      // still-queued tail while in-flight solves finish normally.
      while (fut.wait_for(std::chrono::milliseconds(50)) !=
             std::future_status::ready) {
        if (g_interrupted.load() && !cancelled) {
          cancelled = true;
          std::cerr << "\ninterrupted: cancelling queued requests "
                       "(in-flight solves finish; metrics still dumped)\n";
          service.cancel_pending();
        }
      }
      // A solve that throws (e.g. a threshold whose constraint bound
      // overflows) answers status=error, as the TCP front-end does.
      try {
        slot.response = net::RequestCodec::response_from_outcome(
            slot.id, slot.point, fut.get());
      } catch (const std::exception& e) {
        slot.response = net::RequestCodec::error_response(slot.id, e.what());
      }
      slot.ready = true;
    }
    if (slot.response.status == net::WireStatus::kError ||
        slot.response.status == net::WireStatus::kRejected)
      ++failures;
    std::cout << net::RequestCodec::render_response(slot.response) << "\n";
    emit_markers(i + 1);
  }
  const double wall = watch.elapsed_seconds();

  std::cout << "\n"
            << slots.size() << " requests in " << fmt_ms(wall * 1000)
            << " ms ("
            << fmt_ms(static_cast<double>(slots.size()) / wall)
            << " req/s), " << service.workers() << " workers\n\n";
  dump_metrics(service.metrics(), opts);
  if (cancelled) return 130;  // conventional fatal-signal exit
  return failures == 0 ? 0 : 1;
}

int run_tcp_mode(int port, const std::string& spec_root,
                 const net::CommonOptions& opts) {
  net::ServerConfig config;
  config.port = port;
  config.spec_root = spec_root;
  config.service = opts.service;
  config.synthesis = opts.synthesis;
  net::TcpServer server(std::move(config));

  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  CS_ENSURE(efd >= 0, "eventfd failed");
  g_signal_fd.store(efd);
  server.drain_on(efd);

  std::cout << "listening on 127.0.0.1:" << server.port()
            << " (cs-req-v1; HTTP GET /metrics on the same port)\n"
            << std::flush;
  server.run();  // returns once a drain completes

  g_signal_fd.store(-1);
  ::close(efd);
  std::cout << "\ndrained; final metrics:\n\n";
  dump_metrics(server.metrics(), opts);
  return g_interrupted.load() ? 130 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    net::CommonOptions opts;
    opts.synthesis.check_time_limit_ms = 20000;
    opts.service.workers = 2;
    std::string requests_path;
    std::string spec_root = ".";
    int listen_port = -1;

    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto next = [&]() -> std::string {
        CS_REQUIRE(i + 1 < argc, "flag " + flag + " needs a value");
        return argv[++i];
      };
      if (net::consume_common_flag(opts, argc, argv, i)) {
        continue;
      } else if (flag == "--listen") {
        listen_port =
            static_cast<int>(util::parse_int(next(), "listen port"));
        CS_REQUIRE(listen_port >= 0 && listen_port <= 65535,
                   "--listen wants a port in [0, 65535]");
      } else if (flag == "--spec-root") {
        spec_root = next();
      } else if (!flag.empty() && flag[0] != '-' && requests_path.empty()) {
        requests_path = flag;
      } else {
        throw util::SpecError("unknown flag '" + flag + "'");
      }
    }
    if (listen_port < 0 && requests_path.empty()) {
      std::cerr << "usage: " << argv[0] << " <requests.txt> [flags]\n"
                << "       " << argv[0]
                << " --listen <port> [--spec-root <dir>] [flags]\n"
                << "common flags:\n"
                << net::common_flags_help();
      return 2;
    }
    CS_REQUIRE(listen_port < 0 || requests_path.empty(),
               "--listen and a request file are mutually exclusive");

    if (!opts.trace_path.empty()) {
      obs::session().enable();
      obs::session().set_thread_name("main");
    }
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    return listen_port >= 0 ? run_tcp_mode(listen_port, spec_root, opts)
                            : run_file_mode(requests_path, opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
