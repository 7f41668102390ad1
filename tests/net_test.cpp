// net_test — the cs-req-v1 codec and the TCP front-end, over loopback.
//
// Codec half: round-trip properties (parse(render(r)) == r for requests
// and responses, base64 both ways) and the structured-error contract —
// malformed lines, unsupported versions and bad base64 all throw
// SpecError with context, never parse to something else.
//
// Wire half: a real TcpServer on an ephemeral loopback port, driven by
// BlockingClient connections. Covers keep-alive pipelining with
// out-of-order completions paired by id, concurrent clients,
// cache/coalescing visibility in the `source=` field, deterministic
// queue-full rejection (worker gated exactly as in service_test), a
// graceful drain that answers everything before EOF, protocol errors
// that leave the connection usable, the connection limit, and the HTTP
// metrics endpoint sharing the port.
//
// Everything solver-facing runs MiniPB with a deterministic conflict
// cap; the suite carries the `parallel` label, so TSan covers the
// loop-thread/worker/test-thread handshakes.
#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "model/input_file.h"
#include "net/client.h"
#include "net/request_codec.h"
#include "spec_helpers.h"
#include "util/error.h"
#include "util/strings.h"

namespace cs::net {
namespace {

using testing::make_example_spec;

// ---------------------------------------------------------------- codec

TEST(Base64, RoundTripsArbitraryBytes) {
  const std::vector<std::string> cases = {
      "", "a", "ab", "abc", "abcd", "hello world\n",
      std::string("\x00\x01\xff\x7f\x80", 5)};
  for (const std::string& bytes : cases) {
    const std::string encoded = RequestCodec::base64_encode(bytes);
    EXPECT_EQ(RequestCodec::base64_decode(encoded), bytes) << encoded;
  }
  // Vectors from RFC 4648 §10.
  EXPECT_EQ(RequestCodec::base64_encode("foobar"), "Zm9vYmFy");
  EXPECT_EQ(RequestCodec::base64_decode("Zm9vYg=="), "foob");
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_THROW(RequestCodec::base64_decode("a"), util::SpecError);
  EXPECT_THROW(RequestCodec::base64_decode("ab!d"), util::SpecError);
  EXPECT_THROW(RequestCodec::base64_decode("=abc"), util::SpecError);
}

TEST(RequestCodec, RequestRoundTripProperty) {
  // A small product space of every field that affects rendering; the
  // property is parse(render(r)).request == r, byte-for-byte semantics.
  std::vector<WireRequest> cases;
  for (const synth::SweepObjective objective :
       {synth::SweepObjective::kFeasibility,
        synth::SweepObjective::kMaxIsolation,
        synth::SweepObjective::kMinCost}) {
    for (const std::string& id : {std::string(), std::string("r-17")}) {
      for (const std::int64_t deadline : {0, 2500}) {
        for (int raw = 0; raw < 4000; raw += 1337) {
          WireRequest req;
          req.id = id;
          req.spec_kind = SpecRefKind::kFile;
          req.spec = "specs/example.cfg";
          req.point.objective = objective;
          req.point.isolation = util::Fixed::from_raw(raw);
          req.point.usability = util::Fixed::from_raw(raw / 2);
          req.point.budget = util::Fixed::from_int(60);
          req.deadline_ms = deadline;
          cases.push_back(req);
        }
      }
    }
  }
  WireRequest inline_req;
  inline_req.spec_kind = SpecRefKind::kInline;
  inline_req.spec = "line one\nline two\n";
  inline_req.point.objective = synth::SweepObjective::kFeasibility;
  cases.push_back(inline_req);
  WireRequest colon_path = cases.front();
  colon_path.spec = "odd:path.cfg";  // needs the explicit file: prefix
  cases.push_back(colon_path);

  for (const WireRequest& req : cases) {
    const std::string line = RequestCodec::render_request(req);
    const ParsedLine parsed = RequestCodec::parse_line(line);
    ASSERT_EQ(parsed.kind, LineKind::kRequest) << line;
    EXPECT_EQ(parsed.request, req) << line;
  }
}

TEST(RequestCodec, ResponseRoundTripProperty) {
  std::vector<WireResponse> cases;
  for (const WireStatus status :
       {WireStatus::kSat, WireStatus::kUnsat, WireStatus::kUnknown,
        WireStatus::kRejected, WireStatus::kSkipped, WireStatus::kOk,
        WireStatus::kError}) {
    WireResponse resp;
    resp.id = "q7";
    resp.status = status;
    cases.push_back(resp);
  }
  WireResponse full;
  full.id = "a";
  full.status = WireStatus::kSat;
  full.source = "coalesced";
  full.bound = "4.667";
  full.probes = 7;
  full.total_ms = 12.5;  // one decimal: survives the wire format
  full.has_ms = true;
  cases.push_back(full);
  WireResponse unsat;
  unsat.id = "b";
  unsat.status = WireStatus::kUnsat;
  unsat.source = "solved";
  unsat.core = {synth::ThresholdKind::kIsolation,
                synth::ThresholdKind::kCost};
  unsat.probes = 1;
  cases.push_back(unsat);
  WireResponse rejected;
  rejected.id = "c";
  rejected.status = WireStatus::kRejected;
  rejected.reject = service::RejectReason::kQueueFull;
  cases.push_back(rejected);
  WireResponse skipped;
  skipped.id = "d";
  skipped.status = WireStatus::kSkipped;
  skipped.reject = service::RejectReason::kCancelled;
  cases.push_back(skipped);
  WireResponse error;
  error.id = "";  // renders as the "-" placeholder, parses back empty
  error.status = WireStatus::kError;
  error.message = "spec error: want 5 tokens, got 2 = nonsense";
  cases.push_back(error);

  for (const WireResponse& resp : cases) {
    const std::string line = RequestCodec::render_response(resp);
    EXPECT_EQ(RequestCodec::parse_response(line), resp) << line;
  }
}

TEST(RequestCodec, DeltaSpecRefRoundTrips) {
  // cs-delta-v1 ops text travels as the single spec-ref token after the
  // "delta:" prefix (docs/DELTAS.md); the grammar is space-free by
  // construction, so the line round-trips like any other spec-ref.
  WireRequest req;
  req.id = "d1";
  req.spec_kind = SpecRefKind::kDelta;
  req.spec = "retune,iso=4,budget=55;add-uic,forbid-service,svc,proxy";
  req.point.objective = synth::SweepObjective::kFeasibility;
  req.point.isolation = util::Fixed::from_int(3);
  req.point.usability = util::Fixed::from_int(4);
  req.point.budget = util::Fixed::from_int(60);
  const std::string line = RequestCodec::render_request(req);
  const ParsedLine parsed = RequestCodec::parse_line(line);
  ASSERT_EQ(parsed.kind, LineKind::kRequest) << line;
  EXPECT_EQ(parsed.request, req) << line;

  // An empty ops text is rejected at the codec layer already.
  EXPECT_THROW(RequestCodec::parse_line("delta: feasibility 3 4 60"),
               util::SpecError);
}

TEST(RequestCodec, ClassifiesNonRequestLines) {
  EXPECT_EQ(RequestCodec::parse_line("").kind, LineKind::kBlank);
  EXPECT_EQ(RequestCodec::parse_line("   ").kind, LineKind::kBlank);
  EXPECT_EQ(RequestCodec::parse_line("# comment").kind, LineKind::kBlank);
  EXPECT_EQ(RequestCodec::parse_line("cs-req-v1").kind, LineKind::kHello);
  EXPECT_EQ(RequestCodec::parse_line("metrics").kind, LineKind::kMetrics);
}

TEST(RequestCodec, MalformedLinesThrowStructuredErrors) {
  const std::vector<std::string> bad = {
      "too few tokens",
      "spec.cfg bogus-objective 3 4 60",
      "spec.cfg feasibility x 4 60",
      "spec.cfg feasibility 3 4 60 unknownopt=1",
      "spec.cfg feasibility 3 4 60 deadline=soon",
      "inline:!!! feasibility 3 4 60",
      "cs-req-v2 spec.cfg feasibility 3 4 60",  // future version
      "cs-resp-v1 id=1 status=sat",             // response on request side
      // Thresholds must be finite and fit the fixed-point range.
      "spec.cfg feasibility inf 4 60",
      "spec.cfg feasibility 1e300 4 60",
      "spec.cfg feasibility nan 4 60",
  };
  for (const std::string& line : bad)
    EXPECT_THROW(RequestCodec::parse_line(line), util::SpecError) << line;
}

// ----------------------------------------------------------------- wire

/// Serialized example spec, shipped inline so the server needs no files.
const std::string& example_spec_text() {
  static const std::string text =
      model::serialize_input(make_example_spec());
  return text;
}

ServerConfig test_config() {
  ServerConfig config;
  config.service.workers = 2;
  config.synthesis.backend = smt::BackendKind::kMiniPb;
  config.synthesis.check_conflict_limit = 20000;
  return config;
}

/// A feasibility request line for the example spec; `ulp` perturbs the
/// isolation threshold so distinct values get distinct cache keys.
std::string request_line(const std::string& id, int ulp,
                         std::int64_t deadline_ms = 0) {
  WireRequest req;
  req.id = id;
  req.spec_kind = SpecRefKind::kInline;
  req.spec = example_spec_text();
  req.point.objective = synth::SweepObjective::kFeasibility;
  req.point.isolation = util::Fixed::from_raw(ulp);
  req.point.usability = util::Fixed::from_raw(0);
  req.point.budget = util::Fixed::from_int(100);
  req.deadline_ms = deadline_ms;
  return RequestCodec::render_request(req);
}

WireResponse recv_response(BlockingClient& client) {
  const auto line = client.recv_line();
  EXPECT_TRUE(line.has_value()) << "connection closed early";
  if (!line) return {};
  return RequestCodec::parse_response(*line);
}

TEST(TcpServer, KeepAliveConcurrentClientsPairResponsesById) {
  TcpServer server(test_config());
  server.start();
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::atomic<int> sat_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i) {
        // One keep-alive connection per client, closed loop; every
        // request has a distinct key (and a distinct id).
        const std::string id = util::concat(
            {"c", std::to_string(c), "-", std::to_string(i)});
        client.send_line(request_line(id, c * kRequests + i + 1));
        const WireResponse resp = recv_response(client);
        EXPECT_EQ(resp.id, id);
        if (resp.status == WireStatus::kSat) ++sat_count;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(sat_count.load(), kClients * kRequests);
  EXPECT_EQ(server.metrics().counter_value("net_requests_total"),
            kClients * kRequests);
}

TEST(TcpServer, PipelinedRequestsAnswerEveryId) {
  TcpServer server(test_config());
  server.start();
  BlockingClient client("127.0.0.1", server.port());
  std::set<std::string> want;
  std::string batch;
  for (int i = 0; i < 8; ++i) {
    const std::string id = util::concat({"p", std::to_string(i)});
    want.insert(id);
    batch += request_line(id, 100 + i);
    batch += "\n";
  }
  client.send_raw(batch);  // all in flight at once
  std::set<std::string> got;
  for (int i = 0; i < 8; ++i) {
    const WireResponse resp = recv_response(client);
    EXPECT_NE(resp.status, WireStatus::kError) << resp.message;
    got.insert(resp.id);
  }
  // Completion order is unspecified; the id pairing is the contract.
  EXPECT_EQ(got, want);
}

TEST(TcpServer, DuplicateKeysAreServedFromCacheOrCoalescing) {
  TcpServer server(test_config());
  server.start();

  // Sequential repeat on one connection: deterministically a cache hit.
  BlockingClient client("127.0.0.1", server.port());
  client.send_line(request_line("a", 7777));
  EXPECT_EQ(recv_response(client).source, "solved");
  client.send_line(request_line("b", 7777));
  EXPECT_EQ(recv_response(client).source, "cache");

  // Concurrent duplicates across connections: exactly one solve; every
  // other response is served by the cache or coalesced onto the solve.
  constexpr int kClients = 4;
  std::mutex mutex;
  std::vector<std::string> sources;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      BlockingClient dup("127.0.0.1", server.port());
      dup.send_line(request_line("d", 8888));
      const WireResponse resp = recv_response(dup);
      EXPECT_EQ(resp.status, WireStatus::kSat);
      const std::lock_guard<std::mutex> lock(mutex);
      sources.push_back(resp.source);
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(sources.size(), kClients);
  EXPECT_EQ(std::count(sources.begin(), sources.end(), "solved"), 1);
  for (const std::string& source : sources)
    EXPECT_TRUE(source == "solved" || source == "cache" ||
                source == "coalesced")
        << source;
}

/// A delta spec-ref request against the connection's anchor spec.
std::string delta_line(const std::string& id, const std::string& ops,
                       int ulp) {
  WireRequest req;
  req.id = id;
  req.spec_kind = SpecRefKind::kDelta;
  req.spec = ops;
  req.point.objective = synth::SweepObjective::kFeasibility;
  req.point.isolation = util::Fixed::from_raw(ulp);
  req.point.usability = util::Fixed::from_raw(0);
  req.point.budget = util::Fixed::from_int(100);
  return RequestCodec::render_request(req);
}

TEST(TcpServer, DeltaSpecRefsChainOnTheConnectionAnchor) {
  TcpServer server(test_config());
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  // No anchor yet: a structured error that keeps the connection open.
  client.send_line(delta_line("orphan", "retune,iso=2", 1));
  const WireResponse orphan = recv_response(client);
  EXPECT_EQ(orphan.id, "orphan");
  EXPECT_EQ(orphan.status, WireStatus::kError);
  EXPECT_NE(orphan.message.find("previous spec"), std::string::npos);

  // Anchor, then two chained deltas — the second resolves against the
  // running post-delta spec, not the original anchor.
  client.send_line(request_line("anchor", 10));
  EXPECT_EQ(recv_response(client).status, WireStatus::kSat);
  client.send_line(delta_line("d1", "retune,iso=2,budget=80", 11));
  EXPECT_EQ(recv_response(client).status, WireStatus::kSat);
  client.send_line(delta_line("d2", "add-uic,forbid-service,svc,proxy", 12));
  const WireResponse d2 = recv_response(client);
  EXPECT_EQ(d2.status, WireStatus::kSat);
  EXPECT_EQ(d2.source, "solved");

  // A failing delta answers an error, leaves the anchor untouched, and
  // later deltas keep chaining from where d2 left it.
  client.send_line(delta_line("bad-op", "remove-host,ghost", 13));
  EXPECT_EQ(recv_response(client).status, WireStatus::kError);
  client.send_line(delta_line("bad-grammar", "retune,nope=1", 13));
  EXPECT_EQ(recv_response(client).status, WireStatus::kError);
  client.send_line(delta_line("d3", "retune,iso=1", 14));
  EXPECT_EQ(recv_response(client).status, WireStatus::kSat);

  // Delta resolution is content-keyed: a second connection replaying the
  // same anchor + ops at the same points lands on the first connection's
  // cache entries — byte-identical resolved specs, proved by `source=`.
  BlockingClient replay("127.0.0.1", server.port());
  replay.send_line(request_line("r-anchor", 10));
  EXPECT_EQ(recv_response(replay).source, "cache");
  replay.send_line(delta_line("r-d1", "retune,iso=2,budget=80", 11));
  EXPECT_EQ(recv_response(replay).source, "cache");
  replay.send_line(delta_line("r-d2", "add-uic,forbid-service,svc,proxy", 12));
  EXPECT_EQ(recv_response(replay).source, "cache");
}

/// Gate blocking the single worker inside on_start (same construction as
/// service_test) so queue-full and drain outcomes are deterministic.
class Gate {
 public:
  void block_first_entry() {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool first = !entered_;
    entered_ = true;
    entered_cv_.notify_all();
    if (first) release_cv_.wait(lock, [this] { return released_; });
  }
  void wait_until_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_, release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(TcpServer, QueueFullRejectsDeterministicallyOverTheWire) {
  Gate gate;
  ServerConfig config = test_config();
  config.service.workers = 1;
  config.service.queue_limit = 1;
  config.service.on_start = [&gate](const service::ServiceRequest&) {
    gate.block_first_entry();
  };
  TcpServer server(std::move(config));
  server.start();

  BlockingClient client("127.0.0.1", server.port());
  client.send_line(request_line("running", 1));  // occupies the worker
  gate.wait_until_entered();
  client.send_line(request_line("queued", 2));  // queue depth 1 = limit
  client.send_line(request_line("over", 3));    // deterministic reject

  // The rejection answers first — while the worker is still parked, so
  // it provably never waited on a solve.
  const WireResponse over = recv_response(client);
  EXPECT_EQ(over.id, "over");
  EXPECT_EQ(over.status, WireStatus::kRejected);
  EXPECT_EQ(over.reject, service::RejectReason::kQueueFull);

  gate.release();
  std::set<std::string> rest = {recv_response(client).id,
                                recv_response(client).id};
  EXPECT_EQ(rest, (std::set<std::string>{"running", "queued"}));
  EXPECT_EQ(server.metrics().counter_value("rejected_queue_full"), 1);
}

TEST(TcpServer, GracefulDrainAnswersEveryRequestThenCloses) {
  Gate gate;
  ServerConfig config = test_config();
  config.service.workers = 1;
  // Park only the marked request (isolation == 1 ulp) — the warm-up
  // request must pass through on_start untouched.
  config.service.on_start = [&gate](const service::ServiceRequest& req) {
    if (req.point.isolation == util::Fixed::from_raw(1))
      gate.block_first_entry();
  };
  TcpServer server(std::move(config));
  server.start();

  BlockingClient client("127.0.0.1", server.port());
  // A solve that completed before the drain: its answer proves the
  // connection was healthy, and the solve is fully delivered.
  client.send_line(request_line("done", 9));
  EXPECT_EQ(recv_response(client).status, WireStatus::kSat);

  client.send_line(request_line("started", 1));
  gate.wait_until_entered();  // parked in on_start, pre-solve
  client.send_line(request_line("queued", 2));
  // Both requests are submitted once the second one is counted.
  while (server.metrics().counter_value("net_requests_total") < 3)
    std::this_thread::yield();

  server.shutdown();  // drain: stop accepting, cancel pending, flush
  // shutdown() only posts the drain to the loop thread. Release the
  // parked request once the drain has closed the listener, so it runs
  // after the drain's cancellation rather than racing it.
  for (;;) {
    try {
      BlockingClient probe("127.0.0.1", server.port());
    } catch (const util::Error&) {
      break;
    }
    std::this_thread::yield();
  }
  gate.release();

  // Cancellation is cooperative and pre-solve: both requests that had
  // not begun solving are answered skipped/cancelled — answered, not
  // dropped — and only then does the server close the connection.
  std::map<std::string, WireResponse> responses;
  for (int i = 0; i < 2; ++i) {
    const WireResponse resp = recv_response(client);
    responses[resp.id] = resp;
  }
  ASSERT_TRUE(responses.count("started"));
  ASSERT_TRUE(responses.count("queued"));
  for (const std::string id : {"started", "queued"}) {
    EXPECT_EQ(responses[id].status, WireStatus::kSkipped) << id;
    EXPECT_EQ(responses[id].reject, service::RejectReason::kCancelled)
        << id;
  }
  EXPECT_EQ(client.recv_line(), std::nullopt);  // clean EOF after answers
  EXPECT_EQ(server.metrics().counter_value("skipped_cancelled"), 2);

  // The listener is gone: new connections are refused.
  EXPECT_THROW(BlockingClient("127.0.0.1", server.port()), util::Error);
}

TEST(TcpServer, ProtocolErrorsAnswerStructuredAndKeepTheConnection) {
  TcpServer server(test_config());
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  client.send_line("cs-req-v1");  // hello
  const WireResponse hello = recv_response(client);
  EXPECT_EQ(hello.status, WireStatus::kOk);
  EXPECT_EQ(hello.message, "cs-req-v1");

  client.send_line("complete nonsense");
  EXPECT_EQ(recv_response(client).status, WireStatus::kError);
  client.send_line("cs-req-v2 spec.cfg feasibility 3 4 60");
  const WireResponse version = recv_response(client);
  EXPECT_EQ(version.status, WireStatus::kError);
  EXPECT_NE(version.message.find("version"), std::string::npos);
  client.send_line("../escape.cfg feasibility 3 4 60 id=esc");
  const WireResponse escape = recv_response(client);
  EXPECT_EQ(escape.status, WireStatus::kError);
  EXPECT_EQ(escape.id, "esc");

  // The connection survived all three errors.
  client.send_line(request_line("still-alive", 4321));
  const WireResponse ok = recv_response(client);
  EXPECT_EQ(ok.id, "still-alive");
  EXPECT_EQ(ok.status, WireStatus::kSat);
  EXPECT_EQ(server.metrics().counter_value("net_protocol_errors"), 2);
  EXPECT_EQ(server.metrics().counter_value("net_spec_errors"), 1);
}

TEST(TcpServer, ConnectionLimitRefusesWithAnErrorLine) {
  ServerConfig config = test_config();
  config.max_connections = 1;
  TcpServer server(std::move(config));
  server.start();

  BlockingClient first("127.0.0.1", server.port());
  first.send_line(request_line("one", 1));
  EXPECT_EQ(recv_response(first).id, "one");  // first is fully usable

  BlockingClient second("127.0.0.1", server.port());
  const auto refusal = second.recv_line();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(RequestCodec::parse_response(*refusal).status,
            WireStatus::kError);
  EXPECT_EQ(second.recv_line(), std::nullopt);  // then closed
}

TEST(TcpServer, HttpMetricsSharesThePort) {
  TcpServer server(test_config());
  server.start();

  BlockingClient wire("127.0.0.1", server.port());
  wire.send_line(request_line("h", 5555));
  EXPECT_EQ(recv_response(wire).status, WireStatus::kSat);

  BlockingClient http("127.0.0.1", server.port());
  http.send_raw("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string metrics = http.recv_all();
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("configsynth_requests_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("configsynth_net_http_requests 1"),
            std::string::npos);
  // The one-off spec's solver was not pooled.
  EXPECT_NE(metrics.find("configsynth_warm_declined 1"), std::string::npos);

  BlockingClient missing("127.0.0.1", server.port());
  missing.send_raw("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.recv_all().find("404"), std::string::npos);

  BlockingClient post("127.0.0.1", server.port());
  post.send_raw("POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.recv_all().find("405"), std::string::npos);
}

}  // namespace
}  // namespace cs::net
