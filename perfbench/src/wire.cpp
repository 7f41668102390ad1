// serve_cold and serve_hot: closed-loop load on the cs-req-v1 TCP server.
//
// An in-process net::TcpServer (2 service workers, MiniPB under a fixed
// conflict cap, every other ServiceConfig field at its default) answers
// 4 client connections over loopback, one thread each; every caller
// waits for its reply before sending the next line, as net::BlockingClient
// users do.
//
// Gate: every distinct request key that got a decided answer is solved
// again in-process, cold, on a fresh synthesizer (with the service's
// one raised-cap retry); decided statuses must match, max-isolation
// bounds must match whenever the cold search decided every probe, all
// answers of one key must agree, and every SAT design must pass
// analysis::check_design and meet the request's thresholds.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/checker.h"
#include "generator.h"
#include "model/delta.h"
#include "model/fingerprint.h"
#include "model/input_file.h"
#include "net/client.h"
#include "net/request_codec.h"
#include "net/server.h"
#include "service/synth_service.h"
#include "smt/ir.h"
#include "synth/encoder.h"
#include "synth/optimizer.h"
#include "synth/sweep.h"
#include "topology/routes.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cs;

constexpr int kConnections = 4;
constexpr int kWorkers = 2;
/// Server policy: per-check MiniPB conflict cap (a capped probe is
/// retried once at kRetryFactor times the cap, the service default).
constexpr std::int64_t kConflictCap = 1000;
constexpr std::int64_t kRetryFactor = 4;
constexpr int kGateThreads = 4;
/// The server runs with the service's default cache and warm pool.
const service::ServiceConfig kServiceDefaults{};

synth::SynthesisOptions server_synthesis() {
  synth::SynthesisOptions o;
  o.backend = smt::BackendKind::kMiniPb;
  o.check_conflict_limit = kConflictCap;
  return o;
}

net::ServerConfig server_config() {
  net::ServerConfig c;
  c.port = 0;
  c.service.workers = kWorkers;
  c.synthesis = server_synthesis();
  return c;
}

synth::SweepPoint to_point(const Point& p) {
  synth::SweepPoint s;
  s.objective = p.max_isolation ? synth::SweepObjective::kMaxIsolation
                                : synth::SweepObjective::kFeasibility;
  s.isolation = util::Fixed::from_raw(p.iso);
  s.usability = util::Fixed::from_raw(p.usab);
  s.budget = util::Fixed::from_raw(p.budget);
  return s;
}

// ------------------------------------------------------------- workload

/// One request slot of a connection's stream.
struct Slot {
  const std::string* line = nullptr;
  std::uint32_t key = 0;  // distinct request key (spec + objective point)
  int kind = 0;           // ColdKind / HotKind
};

/// Either workload as the client loop, the gate and the replay see it.
struct Workload {
  bool hot = false;
  ColdStream cold;
  HotStream hot_stream;
  std::vector<std::vector<Slot>> conns;
  std::vector<bool> barrier_slot;  // serve_hot: kHot slots line up
  std::size_t keys = 0;
  std::vector<std::shared_ptr<const model::ProblemSpec>> hot_bases;

  Point point(std::uint32_t key) const {
    if (hot) return hot_stream.keys[key].point;
    return cold_request(key).point;
  }
  const ColdRequest& cold_request(std::uint32_t key) const {
    const std::size_t per = cold.connections[0].size();
    return cold.connections[key / per][key % per];
  }
  /// Rebuilds the spec a request of `key` resolves to, timing the model
  /// calls into `log` (null: untimed).
  std::shared_ptr<const model::ProblemSpec> spec(std::uint32_t key,
                                                 SpanLog* log) const {
    if (!hot) {
      const net::ParsedLine parsed =
          net::RequestCodec::parse_line(cold_request(key).line);
      std::istringstream in(parsed.request.spec);
      SpanLog::Scope span(log, key, "model.parse_input");
      return std::make_shared<const model::ProblemSpec>(
          model::parse_input(in));
    }
    const HotKey& k = hot_stream.keys[key];
    std::shared_ptr<const model::ProblemSpec> spec;
    if (log != nullptr && k.ops.empty()) {
      std::istringstream in(
          hot_stream.base_texts[static_cast<std::size_t>(k.base)]);
      SpanLog::Scope span(log, key, "model.parse_input");
      spec =
          std::make_shared<const model::ProblemSpec>(model::parse_input(in));
    } else {
      spec = hot_bases[static_cast<std::size_t>(k.base)];
    }
    for (const std::string& op : k.ops) {
      const model::SpecDelta delta = model::parse_delta(op);
      SpanLog::Scope span(log, key, "model.apply_delta");
      spec = std::make_shared<const model::ProblemSpec>(
          model::apply_delta(*spec, delta));
    }
    return spec;
  }
};

/// Requests per connection generated per second of timed phase — more
/// than any run consumes.
int stream_length(bool hot, double seconds) {
  return static_cast<int>(seconds * (hot ? 1500 : 90)) + 200;
}

std::unique_ptr<Workload> make_workload(bool hot, std::uint64_t seed,
                                        double seconds) {
  auto w = std::make_unique<Workload>();
  w->hot = hot;
  const int per = stream_length(hot, seconds);
  if (!hot) {
    w->cold = make_serve_cold(seed, kConnections, per);
    for (std::size_t c = 0; c < w->cold.connections.size(); ++c) {
      auto& slots = w->conns.emplace_back();
      for (std::size_t i = 0; i < w->cold.connections[c].size(); ++i) {
        const ColdRequest& r = w->cold.connections[c][i];
        slots.push_back(Slot{&r.line, static_cast<std::uint32_t>(c * per + i),
                             static_cast<int>(r.kind)});
      }
    }
    w->keys = static_cast<std::size_t>(kConnections) * per;
    return w;
  }
  w->hot_stream = make_serve_hot(seed, kConnections, per);
  const HotStream& h = w->hot_stream;
  for (const auto& conn : h.connections) {
    auto& slots = w->conns.emplace_back();
    for (std::size_t i = 0; i < conn.size(); ++i)
      slots.push_back(Slot{&h.lines[conn[i].line], conn[i].key,
                           static_cast<int>(h.schedule[i])});
  }
  for (const HotKind k : h.schedule)
    w->barrier_slot.push_back(k == HotKind::kHot);
  w->keys = h.keys.size();
  for (const std::string& text : h.base_texts) {
    std::istringstream in(text);
    w->hot_bases.push_back(
        std::make_shared<const model::ProblemSpec>(model::parse_input(in)));
  }
  return w;
}

// ----------------------------------------------------------- client side

/// One answered request of a timed phase, compact and preallocated so a
/// run's memory does not grow with its throughput.
struct Answer {
  std::uint32_t key = 0;
  std::uint8_t status = 0;  // net::WireStatus
  std::uint8_t source = 0;  // 0 solved, 1 cache, 2 coalesced, 3 none
  std::uint8_t kind = 0;
  bool dropped = false;
  float rtt_ms = 0;
  float server_ms = 0;
  float done_s = 0;  // completion, seconds into the phase
  std::int64_t bound = -1;  // thousandths, -1 = absent
  std::uint32_t bytes = 0;
};

struct PhaseResult {
  Phase phase;
  std::vector<std::vector<Answer>> answers;  // per connection, used prefix
  std::map<std::string, double> metrics_before, metrics_after;
};

bool decided(std::uint8_t status) {
  return status == static_cast<std::uint8_t>(net::WireStatus::kSat) ||
         status == static_cast<std::uint8_t>(net::WireStatus::kUnsat);
}
bool answered(std::uint8_t status) {
  return decided(status) ||
         status == static_cast<std::uint8_t>(net::WireStatus::kUnknown);
}

std::map<std::string, double> scrape_metrics(int port) {
  net::BlockingClient client("127.0.0.1", port);
  client.send_raw("GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  std::istringstream body(client.recv_all());
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(body, line)) {
    if (line.rfind("configsynth_", 0) != 0 ||
        line.find('{') != std::string::npos)
      continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    try {
      out[line.substr(12, sp - 12)] = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

/// Sends `conns[c]` on connection c until the deadline, closed loop.
PhaseResult timed_phase(const Workload& w, int port, double seconds,
                        std::vector<SpanLog>* logs) {
  PhaseResult out;
  out.answers.resize(w.conns.size());
  for (std::size_t c = 0; c < w.conns.size(); ++c)
    out.answers[c].resize(w.conns[c].size());  // touched up front
  out.metrics_before = scrape_metrics(port);

  std::latch start(static_cast<std::ptrdiff_t>(w.conns.size()) + 1);
  std::barrier<> hot_sync(static_cast<std::ptrdiff_t>(w.conns.size()));
  std::vector<double> done(w.conns.size(), 0);
  std::vector<std::size_t> used(w.conns.size(), 0);
  std::atomic<double> deadline{0};
  std::atomic<double> begin{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      std::optional<net::BlockingClient> client;
      try {
        client.emplace("127.0.0.1", port);
      } catch (const std::exception&) {
      }
      SpanLog* log = logs ? &(*logs)[c] : nullptr;
      start.arrive_and_wait();
      const double stop = deadline.load();
      const double t_start = begin.load();
      const std::vector<Slot>& slots = w.conns[c];
      std::size_t i = 0;
      try {
        if (!client) throw std::runtime_error("connect failed");
        for (; i < slots.size() && now_s() < stop; ++i) {
          if (!w.barrier_slot.empty() && w.barrier_slot[i])
            hot_sync.arrive_and_wait();
          Answer& a = out.answers[c][i];
          a.key = slots[i].key;
          a.kind = static_cast<std::uint8_t>(slots[i].kind);
          a.bytes = static_cast<std::uint32_t>(slots[i].line->size() + 1);
          SpanLog::Scope span(log, c * slots.size() + i, "client.request");
          const double t0 = now_s();
          client->send_line(*slots[i].line);
          const std::optional<std::string> reply = client->recv_line();
          const double t1 = now_s();
          a.rtt_ms = static_cast<float>((t1 - t0) * 1000.0);
          a.done_s = static_cast<float>(t1 - t_start);
          span.close();
          if (!reply) throw std::runtime_error("connection closed");
          const net::WireResponse r =
              net::RequestCodec::parse_response(*reply);
          a.status = static_cast<std::uint8_t>(r.status);
          a.source = r.source == "solved"      ? 0
                     : r.source == "cache"     ? 1
                     : r.source == "coalesced" ? 2
                                               : 3;
          a.server_ms = static_cast<float>(r.total_ms);
          if (!r.bound.empty())
            a.bound = std::llround(std::stod(r.bound) * 1000.0);
        }
      } catch (const std::exception&) {
        // A dropped connection or an unreadable reply fails the op in
        // flight and ends this connection's stream.
        out.answers[c][i].dropped = true;
        ++i;
      }
      if (!w.barrier_slot.empty()) hot_sync.arrive_and_drop();
      used[c] = i;
      done[c] = now_s();
    });
  }
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  begin.store(t0);
  deadline.store(t0 + seconds);
  WindowSampler sampler(t0);
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  out.phase.window_cpu_s = sampler.finish();
  out.phase.wall_s = *std::max_element(done.begin(), done.end()) - t0;
  out.phase.cpu_s = process_cpu_s() - cpu0;
  out.metrics_after = scrape_metrics(port);

  Phase& p = out.phase;
  for (std::size_t c = 0; c < w.conns.size(); ++c) {
    out.answers[c].resize(used[c]);
    for (const Answer& a : out.answers[c]) {
      ++p.attempted;
      if (!a.dropped && answered(a.status)) {
        ++p.completed;
        p.latency_ms.push_back(a.rtt_ms);
        p.done_s.push_back(a.done_s);
        if (decided(a.status)) ++p.decided;
      } else {
        ++p.failed;
      }
    }
  }
  return out;
}

// ----------------------------------------------------------------- set-up

struct Server {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<net::TcpServer> server;
};

/// Sends each line once, spread over the connections, and requires an
/// answer for every one.
void warm_up(int port, const std::vector<const std::string*>& lines) {
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::BlockingClient client("127.0.0.1", port);
        for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
             i += kConnections) {
          client.send_line(*lines[i]);
          const auto reply = client.recv_line();
          if (!reply ||
              !answered(static_cast<std::uint8_t>(
                  net::RequestCodec::parse_response(*reply).status)))
            ++bad;
        }
      } catch (const std::exception&) {
        ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (bad > 0) throw std::runtime_error("warm-up requests were not answered");
}

Server set_up(bool hot, const RunOptions& opt) {
  Server s;
  s.workload = make_workload(hot, opt.seed, opt.seconds);
  s.server = std::make_unique<net::TcpServer>(server_config());
  s.server->start();
  std::vector<const std::string*> lines;
  ColdStream warm;
  if (hot) {
    // Fill the result cache with the most popular keys; the warm pool
    // ends up holding the last shapes solved.
    const HotStream& h = s.workload->hot_stream;
    const std::size_t n =
        std::min(kServiceDefaults.cache_capacity, h.by_popularity.size());
    for (std::size_t i = 0; i < n; ++i)
      lines.push_back(&h.lines[static_cast<std::size_t>(h.by_popularity[i])]);
  } else {
    // Distinct specs of their own: page in the solve path without
    // giving the timed stream a single cache or warm-pool hit.
    warm = make_serve_cold(stream_seed(opt.seed, 999), kConnections,
                           kColdBlock);
    for (const auto& conn : warm.connections)
      for (std::size_t i = 0; i < conn.size() && i < 8; ++i)
        if (conn[i].kind == ColdKind::kFeasible)
          lines.push_back(&conn[i].line);
  }
  warm_up(s.server->port(), lines);
  return s;
}

// ------------------------------------------------------------------ gate

struct ColdAnswer {
  smt::CheckResult status = smt::CheckResult::kUnknown;
  std::int64_t bound = -1;  // max-isolation, when exact
};

struct GateResult {
  std::int64_t failed = 0;
  std::int64_t keys = 0, compared = 0, capped = 0, designs = 0;
  std::vector<std::string> problems;
};

std::uint8_t wire_of(smt::CheckResult r) {
  return static_cast<std::uint8_t>(r == smt::CheckResult::kSat
                                       ? net::WireStatus::kSat
                                   : r == smt::CheckResult::kUnsat
                                       ? net::WireStatus::kUnsat
                                       : net::WireStatus::kUnknown);
}

/// Solves a request the way the service's cold path does: a fresh
/// synthesizer at the server's cap, once more at the raised cap when the
/// verdict came back unknown.
synth::SweepPointResult cold_solve(const model::ProblemSpec& spec,
                                   const Point& point) {
  synth::SweepRequest req;
  req.synthesis = server_synthesis();
  synth::SweepPointResult r =
      synth::solve_sweep_point(spec, req, to_point(point));
  if (r.status == smt::CheckResult::kUnknown) {
    req.synthesis.check_conflict_limit *= kRetryFactor;
    r = synth::solve_sweep_point(spec, req, to_point(point));
  }
  return r;
}

/// Empty when `design` passes the checker and meets the point.
std::string design_problem(const model::ProblemSpec& spec,
                           const synth::SecurityDesign& design,
                           const Point& point, std::int64_t bound) {
  const analysis::CheckReport check =
      analysis::check_design(spec, design, /*check_thresholds=*/false);
  if (!check.ok()) return "design fails check_design: " + check.to_string();
  const std::int64_t iso = point.max_isolation ? bound : point.iso;
  if (check.metrics.isolation.raw() < iso ||
      check.metrics.usability.raw() < point.usab ||
      check.metrics.cost.raw() > point.budget)
    return "design misses the request thresholds: " + check.to_string();
  return "";
}

/// Outcome of checking one key's answers against its cold re-solve.
struct KeyCheck {
  std::string problem;  // empty when every answer holds
  bool capped = false, compared = false, design_checked = false;
};

KeyCheck check_key(const Workload& w, std::uint32_t key,
                   const std::vector<const Answer*>& answers, ColdAnswer& ca) {
  KeyCheck out;
  const Point point = w.point(key);
  const auto spec = w.spec(key, nullptr);
  const synth::SweepPointResult r = cold_solve(*spec, point);
  ca.status = r.status;
  if (point.max_isolation && r.search.feasible && r.search.exact)
    ca.bound = r.search.bound.raw();
  const Answer& first = *answers[0];
  for (const Answer* a : answers) {
    if (a->status != first.status ||
        (point.max_isolation && a->bound != first.bound)) {
      out.problem = "answers of one key disagree";
      return out;
    }
  }
  if (r.status == smt::CheckResult::kUnknown) {
    out.capped = true;
  } else if (wire_of(r.status) != first.status) {
    out.problem = "verdict differs from a cold re-solve";
    return out;
  } else if (ca.bound >= 0 && first.bound != ca.bound) {
    out.problem = "max-isolation bound differs from a cold re-solve";
    return out;
  } else {
    out.compared = true;
  }
  if (r.search.design) {
    out.design_checked = true;
    out.problem =
        design_problem(*spec, *r.search.design, point, r.search.bound.raw());
  }
  return out;
}

GateResult gate(const Workload& w,
                const std::vector<const PhaseResult*>& phases,
                std::vector<ColdAnswer>* cold_out) {
  // Every decided answer, grouped by key.
  std::map<std::uint32_t, std::vector<const Answer*>> by_key;
  for (const PhaseResult* p : phases)
    for (const auto& conn : p->answers)
      for (const Answer& a : conn)
        if (!a.dropped && decided(a.status)) by_key[a.key].push_back(&a);
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : by_key) keys.push_back(k);

  GateResult out;
  out.keys = static_cast<std::int64_t>(keys.size());
  std::mutex mutex;  // guards out
  std::atomic<std::size_t> next{0};
  cold_out->assign(w.keys, ColdAnswer{});
  std::vector<std::thread> workers;
  for (int t = 0; t < kGateThreads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next++) < keys.size();) {
        const std::uint32_t key = keys[i];
        const std::vector<const Answer*>& answers = by_key.at(key);
        KeyCheck k;
        try {
          k = check_key(w, key, answers, (*cold_out)[key]);
        } catch (const std::exception& e) {
          k.problem = std::string("re-solve failed: ") + e.what();
        }
        std::lock_guard<std::mutex> lock(mutex);
        out.capped += k.capped;
        out.compared += k.compared;
        out.designs += k.design_checked;
        if (k.problem.empty()) continue;
        out.failed += static_cast<std::int64_t>(answers.size());
        if (out.problems.size() < 8)
          out.problems.push_back("key " + std::to_string(key) + ": " +
                                 k.problem);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return out;
}

/// Cross-checks a fixed sample of decided keys against Z3.
std::int64_t z3_sample(const Workload& w, const std::vector<ColdAnswer>& cold,
                       Report& report) {
  std::int64_t compared = 0, failed = 0;
  for (std::uint32_t key = 0; key < cold.size() && compared < 6; ++key) {
    if (cold[key].status == smt::CheckResult::kUnknown) continue;
    synth::SweepRequest req;
    req.synthesis.backend = smt::BackendKind::kZ3;
    req.synthesis.check_conflict_limit = 50'000'000;
    req.synthesis.check_time_limit_ms = 20000;
    const auto spec = w.spec(key, nullptr);
    const synth::SweepPointResult z3 =
        synth::solve_sweep_point(*spec, req, to_point(w.point(key)));
    if (z3.status == smt::CheckResult::kUnknown) continue;
    ++compared;
    if (z3.status != cold[key].status) ++failed;
  }
  report.note("z3 cross-check: " + std::to_string(compared) +
              " decided keys compared, " + std::to_string(failed) +
              " disagree");
  return failed;
}

// ----------------------------------------------------------------- replay

struct ReplayTotals {
  std::int64_t ops = 0, checks = 0, capped = 0;
  double conflicts = 0, decisions = 0, propagations = 0, check_s = 0;
  double clauses = 0, linear = 0, memory_mb = 0, route_pairs = 0;
};

/// Replays one solved request through each module's public functions,
/// one span per call: codec parse, spec resolution, fingerprint, routes,
/// encoding, solver check (the bound search for max-isolation), decode,
/// design check and response render.
void replay(const Workload& w, std::uint32_t key, const std::string& line,
            SpanLog& log, ReplayTotals& t) {
  SpanLog::Scope root(&log, key, "replay.request");
  {
    SpanLog::Scope span(&log, key, "net.parse_line");
    (void)net::RequestCodec::parse_line(line);
  }
  const auto spec = w.spec(key, &log);
  {
    SpanLog::Scope span(&log, key, "model.fingerprint");
    (void)model::fingerprint_sections(*spec);
  }
  const Point point = w.point(key);
  if (!w.hot) {
    // serve_cold sends no deltas; price the model's delta path on its
    // specs with a retune to the request's own thresholds.
    const model::SpecDelta retune = model::parse_delta(
        "retune,iso=" + fixed_canonical(point.iso) +
        ",usab=" + fixed_canonical(point.usab) +
        ",budget=" + fixed_canonical(point.budget));
    SpanLog::Scope span(&log, key, "model.apply_delta");
    (void)model::apply_delta(*spec, retune);
  }
  topology::RouteTable routes(spec->network, spec->route_options);
  {
    SpanLog::Scope span(&log, key, "topology.routes");
    for (const model::Flow& f : spec->flows.all()) routes.routes(f.src, f.dst);
  }
  t.route_pairs += static_cast<double>(routes.pairs_computed());
  ++t.ops;

  net::WireResponse resp;
  resp.id = "1";
  resp.source = "solved";
  resp.has_ms = true;
  std::optional<synth::SecurityDesign> design;
  if (point.max_isolation) {
    synth::SynthesisOptions o = server_synthesis();
    std::unique_ptr<synth::Synthesizer> synth;
    {
      SpanLog::Scope span(&log, key, "synth.encode");
      synth = std::make_unique<synth::Synthesizer>(*spec, o);
    }
    synth::BoundSearchResult r;
    {
      SpanLog::Scope span(&log, key, "minisolver.check");
      r = synth::maximize_isolation(*synth, *spec,
                                    util::Fixed::from_raw(point.usab),
                                    util::Fixed::from_raw(point.budget));
      t.check_s += span.close() / 1e6;
    }
    const smt::SolverStats st = synth->solver_statistics();
    t.checks += r.probes;
    t.capped += r.exact ? 0 : 1;
    t.conflicts += static_cast<double>(st.conflicts);
    t.decisions += static_cast<double>(st.decisions);
    t.propagations += static_cast<double>(st.propagations);
    t.clauses += static_cast<double>(synth->encoding_stats().clauses);
    t.linear +=
        static_cast<double>(synth->encoding_stats().linear_constraints);
    t.memory_mb +=
        static_cast<double>(synth->backend().memory_bytes()) / 1048576.0;
    resp.status =
        r.feasible ? net::WireStatus::kSat : net::WireStatus::kUnknown;
    resp.bound = r.bound.to_string();
    resp.probes = r.probes;
    design = std::move(r.design);
  } else {
    std::int64_t cap = kConflictCap;
    for (int attempt = 0; attempt < 2; ++attempt, cap *= kRetryFactor) {
      const std::unique_ptr<smt::Backend> backend =
          smt::make_backend(smt::BackendKind::kMiniPb);
      backend->set_conflict_limit(cap);
      std::unique_ptr<synth::Encoding> enc;
      std::vector<smt::Lit> guards;
      {
        SpanLog::Scope span(&log, key, "synth.encode");
        enc = std::make_unique<synth::Encoding>(*spec, routes, *backend);
        guards = {enc->isolation_guard(util::Fixed::from_raw(point.iso)),
                  enc->usability_guard(util::Fixed::from_raw(point.usab)),
                  enc->cost_guard(util::Fixed::from_raw(point.budget))};
      }
      smt::CheckResult result;
      {
        SpanLog::Scope span(&log, key, "minisolver.check");
        result = backend->check(guards);
        t.check_s += span.close() / 1e6;
      }
      const smt::SolverStats st = backend->statistics();
      ++t.checks;
      t.conflicts += static_cast<double>(st.conflicts);
      t.decisions += static_cast<double>(st.decisions);
      t.propagations += static_cast<double>(st.propagations);
      t.clauses += static_cast<double>(enc->stats().clauses);
      t.linear += static_cast<double>(enc->stats().linear_constraints);
      t.memory_mb += static_cast<double>(backend->memory_bytes()) / 1048576.0;
      ++resp.probes;
      if (result == smt::CheckResult::kUnknown) {
        ++t.capped;
        resp.status = net::WireStatus::kUnknown;
        continue;
      }
      resp.status = result == smt::CheckResult::kSat ? net::WireStatus::kSat
                                                     : net::WireStatus::kUnsat;
      if (result == smt::CheckResult::kSat) {
        SpanLog::Scope span(&log, key, "synth.decode");
        design = enc->decode();
      }
      break;
    }
  }
  if (design) {
    SpanLog::Scope span(&log, key, "analysis.check_design");
    (void)analysis::check_design(*spec, *design, routes, false);
  }
  {
    SpanLog::Scope span(&log, key, "net.render_response");
    (void)net::RequestCodec::render_response(resp);
  }
}

// ---------------------------------------------------------------- reports

void property_report(const Workload& w, const PhaseResult& p, Report& report) {
  std::vector<int> kinds(w.hot ? kHotKinds : kColdKinds, 0);
  std::set<std::uint32_t> keys;
  int lo_hosts = 1 << 30, hi_hosts = 0;
  std::int64_t n = 0;
  for (const auto& conn : p.answers)
    for (const Answer& a : conn) {
      ++n;
      ++kinds[a.kind];
      keys.insert(a.key);
      const int hosts =
          w.hot ? w.hot_stream.bases[static_cast<std::size_t>(
                                         w.hot_stream.keys[a.key].base)].hosts
                : w.cold_request(a.key).hosts;
      lo_hosts = std::min(lo_hosts, hosts);
      hi_hosts = std::max(hi_hosts, hosts);
    }
  const auto& mix = w.hot ? std::vector<int>(kHotMix.begin(), kHotMix.end())
                          : std::vector<int>(kColdMix.begin(), kColdMix.end());
  const int block = w.hot ? kHotBlock : kColdBlock;
  std::string shares = "request shares (declared / run):";
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string name(w.hot ? hot_kind_name(static_cast<HotKind>(k))
                                 : cold_kind_name(static_cast<ColdKind>(k)));
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s %.0f%% / %.1f%%", name.c_str(),
                  100.0 * mix[k] / block,
                  n ? 100.0 * kinds[k] / static_cast<double>(n) : 0.0);
    shares += buf;
  }
  report.note(shares);
  if (w.hot) {
    std::map<std::string, int> used;
    for (std::size_t c = 0; c < p.answers.size(); ++c)
      for (std::size_t i = 0; i < p.answers[c].size(); ++i) {
        const std::string& line = *w.conns[c][i].line;
        if (line.rfind("delta:", 0) == 0)
          ++used[line.substr(6, line.find_first_of(", ", 6) - 6)];
      }
    std::string ops = "delta op classes in run:";
    for (const auto& [name, count] : used)
      ops += " " + name + "=" + std::to_string(count);
    report.note(ops);
  }
  const std::size_t specs = w.hot ? [&] {
    std::set<std::pair<int, std::vector<std::string>>> shapes;
    for (const std::uint32_t k : keys)
      shapes.emplace(w.hot_stream.keys[k].base, w.hot_stream.keys[k].ops);
    return shapes.size();
  }()
                                  : keys.size();
  report.note("distinct specs " + std::to_string(specs) + ", distinct keys " +
              std::to_string(keys.size()) + " (result cache holds " +
              std::to_string(kServiceDefaults.cache_capacity) +
              ", warm pool holds " +
              std::to_string(kServiceDefaults.warm_pool_limit) + ")");
  report.note("hosts " + std::to_string(lo_hosts) + ".." +
              std::to_string(hi_hosts) + ", flows " +
              std::to_string(lo_hosts * (lo_hosts - 1)) + ".." +
              std::to_string(hi_hosts * (hi_hosts - 1)) + " per spec; " +
              std::to_string(n) + " requests sent");
}

double delta_of(const PhaseResult& p, const std::string& name) {
  const auto get = [&](const std::map<std::string, double>& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return get(p.metrics_after) - get(p.metrics_before);
}

/// Service-side view of a phase, from the /metrics scrapes around it.
void service_note(const PhaseResult& p, Report& report) {
  const double requests = std::max(1.0, delta_of(p, "requests_total"));
  const double warm = delta_of(p, "warm_hits");
  const double warm_all = std::max(1.0, warm + delta_of(p, "warm_misses"));
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "service: %.0f requests, cache hits %.1f%%, coalesced %.1f%%, "
                "partial hits %.1f%%, warm hits %.1f%% of misses, "
                "%.0f warm evictions, %.0f retries",
                requests, 100.0 * delta_of(p, "cache_hits") / requests,
                100.0 * delta_of(p, "coalesced_waits") / requests,
                100.0 * delta_of(p, "cache_partial_hits") / requests,
                100.0 * warm / warm_all, delta_of(p, "warm_evictions"),
                delta_of(p, "retries"));
  report.note(buf);
}

void per_layer(const PhaseResult& traced, double untraced_ops,
               const ReplayTotals& t,
               const std::map<std::string, SpanStats>& spans,
               Report& report) {
  const auto span_mean = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_us();
  };
  std::vector<double> overhead;
  double bytes = 0;
  std::int64_t sent = 0;
  for (const auto& conn : traced.answers)
    for (const Answer& a : conn) {
      bytes += a.bytes;
      ++sent;
      if (!a.dropped && answered(a.status))
        overhead.push_back(a.rtt_ms - a.server_ms);
    }
  report.add("net.overhead_ms_p50", median(overhead), "ms",
             static_cast<std::int64_t>(overhead.size()));
  report.add("net.parse_line_us", span_mean("net.parse_line"), "us");
  report.add("net.render_response_us", span_mean("net.render_response"),
             "us");
  report.add("net.request_bytes",
             sent ? bytes / static_cast<double>(sent) : 0, "B");
  report.add("model.parse_input_us", span_mean("model.parse_input"), "us");
  report.add("model.fingerprint_us", span_mean("model.fingerprint"), "us");
  report.add("model.apply_delta_us", span_mean("model.apply_delta"), "us");

  const auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  const double requests = delta_of(traced, "requests_total");
  const double warm = delta_of(traced, "warm_hits");
  report.add("service.cache_hit_pct",
             pct(delta_of(traced, "cache_hits"), requests), "%");
  report.add("service.coalesced_pct",
             pct(delta_of(traced, "coalesced_waits"), requests), "%");
  report.add("service.partial_hit_pct",
             pct(delta_of(traced, "cache_partial_hits"), requests), "%");
  report.add("service.warm_hit_pct",
             pct(warm, warm + delta_of(traced, "warm_misses")), "%");
  report.add("service.warm_evictions", delta_of(traced, "warm_evictions"),
             "count");
  const auto hist_mean = [&](const std::string& name) {
    const double n = delta_of(traced, name + "_count");
    return n > 0 ? delta_of(traced, name + "_sum") / n : 0.0;
  };
  report.add("service.queue_ms_mean", hist_mean("queue_ms"), "ms");
  report.add("service.solve_ms_mean", hist_mean("solve_ms"), "ms");
  report.add("service.retries", delta_of(traced, "retries"), "count");
  report.add("service.rejected", delta_of(traced, "rejected"), "count");

  const double ops = std::max<double>(1, static_cast<double>(t.ops));
  const double checks = static_cast<double>(t.checks);
  const auto per_check = [&](double v) { return checks > 0 ? v / checks : 0; };
  report.add("topology.routes_ms", span_mean("topology.routes") / 1000.0,
             "ms");
  report.add("topology.route_pairs", t.route_pairs / ops, "count");
  report.add("synth.encode_ms", span_mean("synth.encode") / 1000.0, "ms");
  report.add("synth.clauses", per_check(t.clauses), "count");
  report.add("synth.linear_constraints", per_check(t.linear), "count");
  report.add("synth.probes_per_op", checks / ops, "count");
  report.add("minisolver.check_ms", per_check(1000.0 * t.check_s), "ms",
             t.checks);
  report.add("minisolver.conflicts_per_op", t.conflicts / ops, "count");
  report.add("minisolver.decisions_per_op", t.decisions / ops, "count");
  report.add("minisolver.propagations_per_s",
             t.check_s > 0 ? t.propagations / t.check_s : 0, "1/s");
  report.add("minisolver.capped_pct",
             pct(static_cast<double>(t.capped), checks), "%");
  report.add("minisolver.memory_mb", per_check(t.memory_mb), "MiB");
  report.add("analysis.check_design_ms",
             span_mean("analysis.check_design") / 1000.0, "ms");
  report.add("trace.overhead_pct",
             pct(untraced_ops - traced.phase.ops_per_s(), untraced_ops), "%");
}

void gate_note(const GateResult& g, Report& report) {
  report.note("gate: " + std::to_string(g.keys) +
              " distinct decided keys re-solved cold, " +
              std::to_string(g.compared) + " verdicts compared, " +
              std::to_string(g.capped) + " capped cold (exempt), " +
              std::to_string(g.designs) + " designs checked");
  for (const std::string& p : g.problems) report.note("FAILED " + p);
}

}  // namespace

Outcome run_wire(const RunOptions& opt, Report& report) {
  const bool hot = opt.workload == "serve_hot";
  std::vector<double> setup_times;
  Server s;
  for (int i = 0; i < kSetups; ++i) {
    s = Server{};
    const double t0 = now_s();
    s = set_up(hot, opt);
    setup_times.push_back(now_s() - t0);
  }

  Outcome outcome;
  std::vector<ColdAnswer> cold;
  if (!opt.trace) {
    restart_peak_rss();
    const PhaseResult timed =
        timed_phase(*s.workload, s.server->port(), opt.seconds, nullptr);
    const double rss = peak_rss_mb();
    s.server.reset();
    property_report(*s.workload, timed, report);
    service_note(timed, report);
    const GateResult g = gate(*s.workload, {&timed}, &cold);
    gate_note(g, report);
    report.add_end_to_end(timed.phase, median(setup_times), rss);
    outcome.attempted = timed.phase.attempted;
    outcome.failed = timed.phase.failed + g.failed;
    return outcome;
  }

  // Traced run: an untraced phase for the overhead baseline, then the
  // traced phase against a fresh set-up of the same inputs; each gets
  // half of the run's time.
  const double half = opt.seconds / 2;
  const PhaseResult untraced =
      timed_phase(*s.workload, s.server->port(), half, nullptr);
  s = Server{};
  s = set_up(hot, opt);
  std::vector<SpanLog> client_logs(kConnections);
  const PhaseResult traced =
      timed_phase(*s.workload, s.server->port(), half, &client_logs);
  s.server.reset();
  property_report(*s.workload, traced, report);
  const GateResult g = gate(*s.workload, {&untraced, &traced}, &cold);
  gate_note(g, report);
  const std::int64_t z3_failed = z3_sample(*s.workload, cold, report);

  // Replay every distinct key the service solved in the traced phase.
  std::map<std::uint32_t, const std::string*> solved;
  for (std::size_t c = 0; c < traced.answers.size(); ++c)
    for (std::size_t i = 0; i < traced.answers[c].size(); ++i) {
      const Answer& a = traced.answers[c][i];
      if (!a.dropped && answered(a.status) && a.source == 0)
        solved.emplace(a.key, s.workload->conns[c][i].line);
    }
  SpanLog replay_log;
  ReplayTotals totals;
  for (const auto& [key, line] : solved)
    replay(*s.workload, key, *line, replay_log, totals);
  report.note("replayed " + std::to_string(solved.size()) +
              " distinct solved requests through the module calls");

  std::vector<const SpanLog*> logs{&replay_log};
  for (const SpanLog& l : client_logs) logs.push_back(&l);
  per_layer(traced, untraced.phase.ops_per_s(), totals, aggregate_spans(logs),
            report);
  if (!opt.trace_dir.empty())
    write_spans(opt.trace_dir + "/" + opt.workload + "-" +
                    std::to_string(opt.seed) + ".json",
                logs);
  outcome.attempted = untraced.phase.attempted + traced.phase.attempted;
  outcome.failed =
      untraced.phase.failed + traced.phase.failed + g.failed + z3_failed;
  return outcome;
}

}  // namespace perfbench
