// The cs-req-v1 TCP front-end of the synthesis service.
//
// `TcpServer` binds one listening socket on an epoll `EventLoop` and
// speaks the line-delimited cs-req-v1 protocol (net/request_codec.h,
// docs/PROTOCOL.md) over keep-alive connections. Every parsed request is
// submitted to the embedded service::SynthService, so the TCP path gets
// the result cache, single-flight coalescing, warm synthesizer pool and
// admission control for free; responses are handed back to the loop
// thread via EventLoop::post and written in completion order, paired to
// requests by id.
//
// Backpressure is bounded at every stage — the server never buffers
// without limit:
//   * per-connection pipeline: at most kMaxPipeline (128) requests in
//     flight; beyond it the connection's read interest is dropped until
//     responses drain (TCP flow control pushes back on the client);
//   * service queue: submissions past ServiceConfig::queue_limit get a
//     deterministic `status=rejected reject=queue-full` response;
//   * buffers: a connection whose input or output buffer exceeds
//     kMaxBufferBytes (1 MiB) is answered with an error and closed.
//
// The same port also answers plain HTTP/1.1 (sniffed from the first
// bytes): `GET /metrics` serves the MetricsRegistry in Prometheus text
// exposition format, `GET /healthz` serves a liveness probe. HTTP
// connections close after one response.
//
// Graceful drain: `shutdown()` (thread-safe, also reachable from a
// signal handler through `drain_on` + an eventfd) stops accepting,
// cancels queued requests cooperatively (in-flight solves finish and
// their responses are delivered), flushes every connection and then
// stops the loop — `run()` returns only when the drain completes.
//
// Threading: the loop thread owns all connection state; SynthService
// workers own the solves; the only crossings are SynthService::submit
// (loop → workers) and EventLoop::post (workers → loop).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/event_loop.h"
#include "net/request_codec.h"
#include "service/synth_service.h"

namespace cs::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 = ephemeral (read the chosen one back via `port()`).
  int port = 0;
  /// Base directory for `file:` spec references; requests must stay
  /// inside it (no absolute paths, no "..").
  std::string spec_root = ".";
  /// Simultaneous connections; excess accepts are answered with an
  /// error line and closed immediately.
  std::size_t max_connections = 1024;
  service::ServiceConfig service;
  /// Solver options applied to every wire request (the wire carries
  /// objective/thresholds/deadline; backend and caps are server policy).
  synth::SynthesisOptions synthesis;
};

class TcpServer {
 public:
  /// Binds and listens (throws util::Error on failure); the loop is not
  /// running yet.
  explicit TcpServer(ServerConfig config);

  /// Drains (as per shutdown) and joins if `start()` was used.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's choice).
  int port() const { return port_; }

  /// Runs the loop on the calling thread until a drain completes.
  void run();

  /// Runs the loop on a background thread (tests, embedded use).
  void start();

  /// Requests a graceful drain; thread-safe, idempotent. `run()`
  /// returns (and a `start()` thread exits) once every in-flight solve
  /// has answered and every connection is flushed and closed.
  void shutdown();

  /// Registers an eventfd whose readability triggers a drain. Write to
  /// it from a SIGINT/SIGTERM handler (write(2) is async-signal-safe).
  /// Must be called before run()/start().
  void drain_on(int event_fd);

  service::SynthService& synth_service() { return service_; }
  service::MetricsRegistry& metrics() { return service_.metrics(); }

 private:
  struct Connection;

  void on_accept();
  void on_io(const std::shared_ptr<Connection>& conn, std::uint32_t events);
  void process_input(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   std::string_view line);
  void handle_http(const std::shared_ptr<Connection>& conn);
  void submit_request(const std::shared_ptr<Connection>& conn,
                      const WireRequest& request);
  void complete_request(const std::weak_ptr<Connection>& weak,
                        WireResponse response);
  /// Resolves the request's spec-ref. `delta:` refs apply cs-delta-v1
  /// ops to `conn`'s last successfully resolved spec (error when the
  /// connection has none yet); every successful resolution of any kind
  /// updates that anchor, so delta chains compose left to right in
  /// line order even while earlier requests are still solving.
  std::shared_ptr<const model::ProblemSpec> resolve_spec(
      Connection& conn, const WireRequest& request);
  void send_line(const std::shared_ptr<Connection>& conn,
                 const std::string& line);
  void send_response(const std::shared_ptr<Connection>& conn,
                     const WireResponse& response);
  void flush_out(const std::shared_ptr<Connection>& conn);
  void update_interest(const std::shared_ptr<Connection>& conn);
  void maybe_close(const std::shared_ptr<Connection>& conn);
  void close_conn(const std::shared_ptr<Connection>& conn);
  void begin_drain();
  void maybe_finish_drain();

  ServerConfig config_;
  EventLoop loop_;
  int listen_fd_ = -1;
  int port_ = 0;
  bool draining_ = false;  // loop thread only
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::unordered_map<std::string,
                     std::shared_ptr<const model::ProblemSpec>>
      spec_cache_;  // loop thread only
  std::thread thread_;
  /// Declared last: destroyed first, so worker completions can still
  /// post to the (older, still-alive) loop while the service drains.
  service::SynthService service_;
};

}  // namespace cs::net
