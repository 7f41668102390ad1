// bench_load — closed-loop load harness for the cs-req-v1 TCP front-end.
//
// Default run: an in-process matrix. For each backend (z3, minipb — or
// just the one named with --backend) a TcpServer is started on an
// ephemeral loopback port and hammered with feasibility requests at 0%,
// 50% and 90% duplicate-key mixes; every request travels over a real
// socket through the full codec → admission → cache → solver path, so
// the reported rates are end-to-end wire numbers, not library calls.
//
//   --port <p> [--host <h>]  external mode: skip the in-process servers
//                            and fire at an already-running
//                            `configsynth_server --listen` (the CI
//                            load-smoke job does this); the --backend
//                            flag then only labels the runs.
//   --connections <N>        client connections, one thread each (4)
//   --requests <N>           requests per connection per cell (50)
//   --mode closed|open       closed: send, await the response, repeat —
//                            concurrency == connections. open: pipeline
//                            every request, then collect; latencies
//                            include queueing behind the pipeline (50)
//   --dup <p1,p2,...>        duplicate-mix percentages (0,50,90)
//   --out <file>             JSON artifact path (BENCH_load.json)
//
// plus the shared net/options.h flag surface (--jobs picks the
// in-process servers' worker count, --queue-limit/--cache-capacity
// their admission/cache policy, --time-limit/--conflict-limit the
// per-check caps).
//
// Methodology: all requests of a cell share one ProblemSpec, shipped as
// an `inline:` base64 spec-ref so external servers need no shared
// filesystem. A duplicate request repeats the cell's single hot
// threshold triple; a unique request perturbs the isolation threshold by
// one fixed-point ulp drawn from a process-wide counter, so no key ever
// repeats across cells, connections or backends. The duplicate hit rate
// is measured from the responses' `source=` field (cache | coalesced) —
// at 90% duplicates it must reach the mid-80s for the cache plus
// single-flight coalescing to be doing their job over the wire.
//
// Output: one table row and one JSON run per (backend, dup%, mode) cell
// with req/s, client-observed p50/p99 (service::Histogram percentiles)
// and the hit rate; schema cs-bench-load-v1, validated (and compared
// against bench/baselines/BENCH_load.json) by scripts/check_bench.py.
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/workloads.h"
#include "model/input_file.h"
#include "net/client.h"
#include "net/options.h"
#include "net/request_codec.h"
#include "net/server.h"
#include "service/metrics_registry.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace cs;

struct LoadOptions {
  net::CommonOptions common;
  std::vector<std::string> backends = {"z3", "minipb"};
  std::vector<int> dups = {0, 50, 90};
  std::string mode = "closed";
  std::string host = "127.0.0.1";
  std::string out_path = "BENCH_load.json";
  int connections = 4;
  int requests_per_conn = 50;
  int port = -1;  // >= 0: external server mode
};

/// Process-wide unique-key source: every unique request perturbs the
/// isolation threshold by a distinct ulp, so keys never collide across
/// cells or backends (which would silently inflate hit rates).
std::uint32_t next_unique_key() {
  static std::uint32_t counter = 0;
  return ++counter;  // single-threaded: lines are rendered before load
}

/// Renders the per-connection request lines for one cell before the
/// clock starts (rendering base64 per line is codec work, not server
/// work). dup_key picks the cell's hot triple.
std::vector<std::string> render_lines(const std::string& spec_text,
                                      int thread_index, int count,
                                      int dup_pct, std::uint32_t dup_key) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    net::WireRequest req;
    req.id = util::concat(
        {"t", std::to_string(thread_index), "-", std::to_string(i)});
    req.spec_kind = net::SpecRefKind::kInline;
    req.spec = spec_text;
    req.point.objective = synth::SweepObjective::kFeasibility;
    // Thresholds stay near zero so every request is SAT in one probe;
    // only the ulp-sized perturbation distinguishes cache keys. Unique
    // requests perturb isolation, duplicates perturb usability — the two
    // families can never collide.
    // Interleaved Bresenham mix: exactly floor(count * dup% / 100)
    // duplicates, spread evenly through the stream regardless of count.
    const bool duplicate =
        (i + 1) * dup_pct / 100 > i * dup_pct / 100;
    req.point.isolation = util::Fixed::from_raw(
        duplicate ? 0 : static_cast<std::int64_t>(next_unique_key()));
    req.point.usability = util::Fixed::from_raw(
        duplicate ? static_cast<std::int64_t>(dup_key) : 0);
    req.point.budget = util::Fixed::from_int(10000);
    lines.push_back(net::RequestCodec::render_request(req));
  }
  return lines;
}

/// Sends the cell's lines on one connection and classifies the
/// responses. Closed loop: one request outstanding. Open loop: write
/// everything, then collect (ids pair responses to send order).
void run_connection(const LoadOptions& opts, int port,
                    const std::vector<std::string>& lines,
                    service::Histogram& latency, std::int64_t& hits,
                    std::int64_t& rejected, std::int64_t& errors,
                    std::mutex& mutex) {
  net::BlockingClient client(opts.host, port);
  std::int64_t local_hits = 0;
  std::int64_t local_rejected = 0;
  std::int64_t local_errors = 0;
  std::vector<double> samples;
  samples.reserve(lines.size());

  const auto classify = [&](const net::WireResponse& resp) {
    if (resp.status == net::WireStatus::kSat ||
        resp.status == net::WireStatus::kUnsat ||
        resp.status == net::WireStatus::kUnknown) {
      if (resp.source == "cache" || resp.source == "coalesced")
        ++local_hits;
    } else if (resp.status == net::WireStatus::kRejected) {
      // Open-loop bursts past --queue-limit are *supposed* to be turned
      // away deterministically; report them, don't call them errors.
      ++local_rejected;
    } else {
      ++local_errors;
    }
  };

  if (opts.mode == "closed") {
    for (const std::string& line : lines) {
      util::Stopwatch watch;
      client.send_line(line);
      const auto reply = client.recv_line();
      CS_REQUIRE(reply.has_value(), "server closed mid-run");
      samples.push_back(watch.elapsed_seconds() * 1000);
      classify(net::RequestCodec::parse_response(*reply));
    }
  } else {
    // Open loop: every request is in flight at once; the send
    // timestamps pair with responses by id (completion order is not
    // submission order).
    std::map<std::string, double> sent_at;
    util::Stopwatch watch;
    std::string batch;
    for (const std::string& line : lines) {
      sent_at[net::RequestCodec::parse_line(line).request.id] =
          watch.elapsed_seconds();
      batch += line;
      batch += '\n';
    }
    client.send_raw(batch);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto reply = client.recv_line();
      CS_REQUIRE(reply.has_value(), "server closed mid-run");
      const net::WireResponse resp =
          net::RequestCodec::parse_response(*reply);
      const auto it = sent_at.find(resp.id);
      if (it != sent_at.end())
        samples.push_back((watch.elapsed_seconds() - it->second) * 1000);
      classify(resp);
    }
  }

  const std::lock_guard<std::mutex> lock(mutex);
  hits += local_hits;
  rejected += local_rejected;
  errors += local_errors;
  for (const double ms : samples) latency.observe(ms);
}

/// One artifact run: the (backend, dup%, mode) cell's throughput,
/// client-observed latency percentiles and duplicate hit rate.
bench::Row run_cell(const LoadOptions& opts, int port,
                    const std::string& backend,
                    const std::string& spec_text, int dup_pct) {
  const int conns = opts.connections;
  const int per_conn = opts.requests_per_conn;
  // All connections of a cell share one hot key; a fresh one per cell.
  const std::uint32_t dup_key = next_unique_key();

  std::vector<std::vector<std::string>> lines;
  lines.reserve(static_cast<std::size_t>(conns));
  for (int t = 0; t < conns; ++t)
    lines.push_back(
        render_lines(spec_text, t, per_conn, dup_pct, dup_key));

  service::Histogram latency;
  std::int64_t hits = 0;
  std::int64_t rejected = 0;
  std::int64_t errors = 0;
  std::mutex mutex;
  util::Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      run_connection(opts, port, lines[static_cast<std::size_t>(t)],
                     latency, hits, rejected, errors, mutex);
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall = watch.elapsed_seconds();

  const std::int64_t requests = static_cast<std::int64_t>(conns) * per_conn;
  const double req_per_sec =
      wall > 0 ? static_cast<double>(requests) / wall : 0;
  // Hit rate over *answered* requests: a rejected request never reached
  // the cache, so it says nothing about cache effectiveness.
  const std::int64_t answered = requests - rejected;
  const double hit_rate_pct =
      answered > 0
          ? 100.0 * static_cast<double>(hits) / static_cast<double>(answered)
          : 0;
  return {backend, dup_pct, opts.mode, conns, requests, rejected, errors,
          bench::number(wall, 6), bench::number(req_per_sec, 3),
          bench::number(latency.percentile_ms(0.50), 3),
          bench::number(latency.percentile_ms(0.99), 3),
          bench::number(hit_rate_pct, 2)};
}

LoadOptions parse_flags(int argc, char** argv) {
  LoadOptions opts;
  opts.common.service.workers = 2;
  opts.common.synthesis.check_time_limit_ms = 20000;
  bool backend_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--backend") backend_given = true;
    const auto next = [&]() -> std::string {
      CS_REQUIRE(i + 1 < argc, "flag " + flag + " needs a value");
      return argv[++i];
    };
    if (net::consume_common_flag(opts.common, argc, argv, i)) {
      continue;
    } else if (flag == "--port") {
      opts.port = static_cast<int>(util::parse_int(next(), "port"));
    } else if (flag == "--host") {
      opts.host = next();
    } else if (flag == "--connections") {
      opts.connections =
          static_cast<int>(util::parse_int(next(), "connections"));
      CS_REQUIRE(opts.connections > 0, "--connections must be > 0");
    } else if (flag == "--requests") {
      opts.requests_per_conn =
          static_cast<int>(util::parse_int(next(), "requests"));
      CS_REQUIRE(opts.requests_per_conn > 0, "--requests must be > 0");
    } else if (flag == "--mode") {
      opts.mode = next();
      CS_REQUIRE(opts.mode == "closed" || opts.mode == "open",
                 "--mode wants closed|open");
    } else if (flag == "--dup") {
      opts.dups.clear();
      for (const std::string& part : util::split(next(), ',')) {
        const int pct =
            static_cast<int>(util::parse_int(part, "dup percentage"));
        CS_REQUIRE(pct >= 0 && pct <= 100, "--dup wants values in 0..100");
        opts.dups.push_back(pct);
      }
      CS_REQUIRE(!opts.dups.empty(), "--dup wants a percentage list");
    } else if (flag == "--out") {
      opts.out_path = next();
    } else {
      throw util::SpecError("unknown flag '" + flag + "'");
    }
  }
  // An explicit --backend narrows the in-process matrix to that backend
  // (and labels the runs in external mode).
  if (backend_given)
    opts.backends = {smt::backend_name(opts.common.synthesis.backend)};
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const LoadOptions opts = parse_flags(argc, argv);

    // The cell workload: one small spec, shipped inline with every
    // request (parsed once server-side thanks to the spec cache).
    const model::ProblemSpec spec =
        bench::make_eval_spec(6, 5, 0.10, 4242, /*services=*/1);
    const std::string spec_text = model::serialize_input(spec);

    std::vector<bench::Row> cells;
    if (opts.port >= 0) {
      const std::string label =
          smt::backend_name(opts.common.synthesis.backend);
      for (const int dup : opts.dups)
        cells.push_back(
            run_cell(opts, opts.port, label, spec_text, dup));
    } else {
      for (const std::string& backend : opts.backends) {
        net::ServerConfig config;
        config.port = 0;
        config.service = opts.common.service;
        config.synthesis = opts.common.synthesis;
        config.synthesis.backend = smt::backend_from_name(backend);
        net::TcpServer server(std::move(config));
        server.start();
        for (const int dup : opts.dups)
          cells.push_back(
              run_cell(opts, server.port(), backend, spec_text, dup));
        server.shutdown();
      }
    }

    bench::emit("load",
                "cs-req-v1 wire load (" + opts.mode + " loop)",
                {"backend", "dup_pct", "mode", "connections", "requests",
                 "rejected", "errors", "wall_seconds", "req_per_sec",
                 "p50_ms", "p99_ms", "hit_rate_pct"},
                cells, "cs-bench-load-v1", opts.out_path);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
