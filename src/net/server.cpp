#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "model/delta.h"
#include "model/input_file.h"
#include "util/error.h"
#include "util/strings.h"

namespace cs::net {

namespace {

/// Per-connection in-flight request cap (read interest is dropped at the
/// cap — TCP backpressure, not buffering).
constexpr std::size_t kMaxPipeline = 128;
/// Per-connection input/output buffer cap; beyond it the connection is
/// answered with an error and closed.
constexpr std::size_t kMaxBufferBytes = 1 << 20;
/// Distinct parsed specs kept for `file:`/`inline:` reuse.
constexpr std::size_t kSpecCacheLimit = 64;

/// Rejects `file:` references that could escape the spec root.
void require_confined(const std::string& path) {
  CS_REQUIRE(!path.empty() && path[0] != '/',
             "absolute spec paths are not served (paths resolve under the "
             "server's --spec-root)");
  for (const std::string& part : util::split(path, '/'))
    CS_REQUIRE(part != "..", "spec path may not contain '..'");
}

std::string exception_text(std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

/// Per-connection state; owned by the loop thread. Completions hold a
/// weak_ptr, so a connection that dies mid-solve simply drops its late
/// responses.
struct TcpServer::Connection {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  /// Requests submitted to the service whose responses have not been
  /// delivered to this connection yet.
  std::size_t inflight = 0;
  /// Auto-assigned ids for requests that carry none.
  std::uint64_t next_auto_id = 1;
  bool http = false;
  bool mode_known = false;
  /// Peer half-closed: finish in-flight work, flush, then close.
  bool eof = false;
  /// Stop reading; close once in-flight work answered and outbuf empty.
  bool close_after_flush = false;
  /// Interest mask currently registered with epoll.
  std::uint32_t events = 0;
  /// Base spec for `delta:` spec-refs — the spec of the most recent
  /// request on this connection whose spec-ref resolved successfully
  /// (including a delta's own result, so deltas chain). Resolution
  /// happens on the loop thread in line order, so the anchor is
  /// deterministic even with pipelined requests still in flight.
  std::shared_ptr<const model::ProblemSpec> last_spec;
};

TcpServer::TcpServer(ServerConfig config)
    : config_(std::move(config)), service_(config_.service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  CS_ENSURE(listen_fd_ >= 0, std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  CS_REQUIRE(::inet_pton(AF_INET, config_.bind_address.c_str(),
                         &addr.sin_addr) == 1,
             "invalid bind address '" + config_.bind_address + "'");
  CS_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0,
             "cannot bind " + config_.bind_address + ":" +
                 std::to_string(config_.port) + ": " + std::strerror(errno));
  CS_ENSURE(::listen(listen_fd_, 128) == 0,
            std::string("listen: ") + std::strerror(errno));

  socklen_t len = sizeof(addr);
  CS_ENSURE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0,
            std::string("getsockname: ") + std::strerror(errno));
  port_ = ntohs(addr.sin_port);

  loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

TcpServer::~TcpServer() {
  shutdown();
  if (thread_.joinable()) thread_.join();
  // Defensive: close anything an abnormal exit left open.
  for (auto& [fd, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpServer::run() { loop_.run(); }

void TcpServer::start() {
  thread_ = std::thread([this] { run(); });
}

void TcpServer::shutdown() {
  loop_.post([this] { begin_drain(); });
}

void TcpServer::drain_on(int event_fd) {
  loop_.add_fd(event_fd, EPOLLIN, [this, event_fd](std::uint32_t) {
    std::uint64_t ticks = 0;
    while (::read(event_fd, &ticks, sizeof(ticks)) == sizeof(ticks)) {
    }
    begin_drain();
  });
}

void TcpServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics().counter("net_connections_total").inc();
    if (conns_.size() >= config_.max_connections) {
      // Bounded accept: answer and close instead of queueing forever.
      const std::string line =
          RequestCodec::render_response(RequestCodec::error_response(
              "-", "server at connection limit; retry later")) +
          "\n";
      [[maybe_unused]] const ssize_t n =
          ::write(fd, line.data(), line.size());
      ::close(fd);
      metrics().counter("net_connections_refused").inc();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->events = EPOLLIN;
    conns_[fd] = conn;
    loop_.add_fd(fd, EPOLLIN, [this, conn](std::uint32_t events) {
      on_io(conn, events);
    });
  }
}

void TcpServer::on_io(const std::shared_ptr<Connection>& conn,
                      std::uint32_t events) {
  if (conn->fd < 0) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(conn);
    return;
  }
  if (events & EPOLLOUT) flush_out(conn);
  if (conn->fd < 0) return;
  if (events & EPOLLIN) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<std::size_t>(n));
        if (conn->inbuf.size() > kMaxBufferBytes) {
          metrics().counter("net_protocol_errors").inc();
          send_response(conn, RequestCodec::error_response(
                                  "-", "input buffer limit exceeded"));
          conn->close_after_flush = true;
          break;
        }
        continue;
      }
      if (n == 0) {
        conn->eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(conn);  // ECONNRESET and friends
      return;
    }
    process_input(conn);
  }
  if (conn->fd >= 0) {
    update_interest(conn);
    maybe_close(conn);
  }
}

void TcpServer::process_input(const std::shared_ptr<Connection>& conn) {
  if (!conn->mode_known &&
      (conn->inbuf.size() >= 4 || (conn->eof && !conn->inbuf.empty()))) {
    conn->mode_known = true;
    conn->http = util::starts_with(conn->inbuf, "GET ") ||
                 util::starts_with(conn->inbuf, "HEAD") ||
                 util::starts_with(conn->inbuf, "POST");
  }
  if (conn->http) {
    // Wait for the end of the request head, then answer and close.
    if (conn->inbuf.find("\r\n\r\n") != std::string::npos ||
        conn->inbuf.find("\n\n") != std::string::npos || conn->eof)
      handle_http(conn);
    return;
  }
  while (!conn->close_after_flush && !draining_ &&
         conn->inflight < kMaxPipeline) {
    const std::size_t nl = conn->inbuf.find('\n');
    std::string line;
    if (nl != std::string::npos) {
      line = conn->inbuf.substr(0, nl);
      conn->inbuf.erase(0, nl + 1);
    } else if (conn->eof && !conn->inbuf.empty()) {
      line.swap(conn->inbuf);  // be liberal: a final unterminated line
    } else {
      break;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    handle_line(conn, line);
    if (conn->fd < 0) return;
  }
}

void TcpServer::handle_line(const std::shared_ptr<Connection>& conn,
                            std::string_view line) {
  ParsedLine parsed;
  try {
    parsed = RequestCodec::parse_line(line);
  } catch (const util::Error& e) {
    metrics().counter("net_protocol_errors").inc();
    send_response(conn, RequestCodec::error_response("-", e.what()));
    return;
  }
  switch (parsed.kind) {
    case LineKind::kBlank:
      return;
    case LineKind::kHello: {
      WireResponse ack;
      ack.status = WireStatus::kOk;
      ack.message = std::string(RequestCodec::kVersion);
      send_response(conn, ack);
      return;
    }
    case LineKind::kMetrics:
      send_response(conn,
                    RequestCodec::error_response(
                        "-", "the metrics command is request-file only; "
                             "use HTTP GET /metrics on this port"));
      return;
    case LineKind::kRequest:
      submit_request(conn, parsed.request);
      return;
  }
}

void TcpServer::handle_http(const std::shared_ptr<Connection>& conn) {
  metrics().counter("net_http_requests").inc();
  // Request line only; headers are irrelevant to both endpoints.
  const std::size_t eol = conn->inbuf.find('\n');
  std::string request_line =
      eol == std::string::npos ? conn->inbuf : conn->inbuf.substr(0, eol);
  if (!request_line.empty() && request_line.back() == '\r')
    request_line.pop_back();
  conn->inbuf.clear();

  const std::vector<std::string> parts = util::split_ws(request_line);
  const std::string method = parts.empty() ? "" : parts[0];
  const std::string target = parts.size() < 2 ? "" : parts[1];

  std::string status;
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  if (method != "GET" && method != "HEAD") {
    status = "405 Method Not Allowed";
    body = "only GET is served here\n";
  } else if (target == "/metrics") {
    status = "200 OK";
    body = service_.metrics().render_prometheus();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (target == "/healthz") {
    status = "200 OK";
    body = draining_ ? "draining\n" : "ok\n";
  } else {
    status = "404 Not Found";
    body = "try GET /metrics or GET /healthz\n";
  }

  std::string head = "HTTP/1.1 " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  conn->outbuf += head;
  if (method != "HEAD") conn->outbuf += body;
  conn->close_after_flush = true;
  flush_out(conn);
  if (conn->fd >= 0) maybe_close(conn);
}

void TcpServer::submit_request(const std::shared_ptr<Connection>& conn,
                               const WireRequest& request) {
  const std::string id = request.id.empty()
                             ? std::to_string(conn->next_auto_id++)
                             : request.id;
  std::shared_ptr<const model::ProblemSpec> spec;
  try {
    spec = resolve_spec(*conn, request);
  } catch (const util::Error& e) {
    metrics().counter("net_spec_errors").inc();
    send_response(conn, RequestCodec::error_response(id, e.what()));
    return;
  }
  metrics().counter("net_requests_total").inc();

  service::ServiceRequest sreq;
  sreq.spec = std::move(spec);
  sreq.point = request.point;
  sreq.synthesis = config_.synthesis;
  sreq.deadline_ms = request.deadline_ms;

  ++conn->inflight;
  const std::weak_ptr<Connection> weak = conn;
  const synth::SweepPoint point = request.point;
  service_.submit(
      std::move(sreq),
      [this, weak, id, point](service::ServiceOutcome outcome,
                              std::exception_ptr error) {
        // Worker thread: render here (pure), deliver on the loop thread.
        WireResponse resp =
            error ? RequestCodec::error_response(
                        id, exception_text(std::move(error)))
                  : RequestCodec::response_from_outcome(id, point, outcome);
        loop_.post([this, weak, resp = std::move(resp)]() mutable {
          complete_request(weak, std::move(resp));
        });
      });
}

void TcpServer::complete_request(const std::weak_ptr<Connection>& weak,
                                 WireResponse response) {
  const std::shared_ptr<Connection> conn = weak.lock();
  if (!conn || conn->fd < 0) return;  // connection died mid-solve
  --conn->inflight;
  send_response(conn, response);
  if (conn->fd < 0) return;
  // Dropping below the pipeline cap may unblock buffered lines.
  process_input(conn);
  if (conn->fd < 0) return;
  update_interest(conn);
  maybe_close(conn);
}

std::shared_ptr<const model::ProblemSpec> TcpServer::resolve_spec(
    Connection& conn, const WireRequest& request) {
  if (request.spec_kind == SpecRefKind::kDelta) {
    // Applied fresh every time: the base varies per connection, and
    // model::apply_delta is cheap next to any solve. The service's
    // content-keyed caches still coalesce identical outcomes.
    CS_REQUIRE(conn.last_spec != nullptr,
               "delta: spec-ref needs a previous spec on this connection "
               "(send a file:/inline: request first)");
    auto spec = std::make_shared<const model::ProblemSpec>(model::apply_delta(
        *conn.last_spec, model::parse_delta(request.spec)));
    conn.last_spec = spec;
    return spec;
  }
  const bool is_inline = request.spec_kind == SpecRefKind::kInline;
  const std::string key =
      (is_inline ? std::string("inline\n") : std::string("file\n")) +
      request.spec;
  if (const auto it = spec_cache_.find(key); it != spec_cache_.end()) {
    conn.last_spec = it->second;
    return it->second;
  }

  std::shared_ptr<const model::ProblemSpec> spec;
  if (is_inline) {
    std::istringstream in(request.spec);
    spec = std::make_shared<const model::ProblemSpec>(model::parse_input(in));
  } else {
    require_confined(request.spec);
    spec = std::make_shared<const model::ProblemSpec>(
        model::parse_input_file(config_.spec_root + "/" + request.spec));
  }
  if (spec_cache_.size() >= kSpecCacheLimit) spec_cache_.clear();
  spec_cache_.emplace(key, spec);
  conn.last_spec = spec;
  return spec;
}

void TcpServer::send_response(const std::shared_ptr<Connection>& conn,
                              const WireResponse& response) {
  metrics().counter("net_responses_total").inc();
  send_line(conn, RequestCodec::render_response(response));
}

void TcpServer::send_line(const std::shared_ptr<Connection>& conn,
                          const std::string& line) {
  if (conn->fd < 0) return;
  conn->outbuf += line;
  conn->outbuf += '\n';
  flush_out(conn);
  if (conn->fd >= 0 && conn->outbuf.size() > kMaxBufferBytes) {
    // Slow reader: shedding beats unbounded buffering.
    metrics().counter("net_slow_reader_closes").inc();
    close_conn(conn);
  }
}

void TcpServer::flush_out(const std::shared_ptr<Connection>& conn) {
  while (!conn->outbuf.empty()) {
    const ssize_t n =
        ::write(conn->fd, conn->outbuf.data(), conn->outbuf.size());
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn);  // EPIPE and friends
    return;
  }
  update_interest(conn);
}

void TcpServer::update_interest(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  const bool want_read = !conn->eof && !conn->close_after_flush &&
                         !draining_ &&
                         conn->inflight < kMaxPipeline;
  const std::uint32_t events = (want_read ? EPOLLIN : 0u) |
                               (conn->outbuf.empty() ? 0u : EPOLLOUT);
  if (events != conn->events) {
    loop_.set_events(conn->fd, events);
    conn->events = events;
  }
}

void TcpServer::maybe_close(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  const bool done_reading = conn->eof || conn->close_after_flush ||
                            draining_;
  if (done_reading && conn->inflight == 0 && conn->outbuf.empty())
    close_conn(conn);
}

void TcpServer::close_conn(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  loop_.remove_fd(conn->fd);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  metrics().counter("net_connections_closed").inc();
  maybe_finish_drain();
}

void TcpServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Queued-but-not-started requests resolve as skipped/cancelled; their
  // responses still flow back through the normal completion path.
  service_.cancel_pending();
  const std::vector<std::shared_ptr<Connection>> conns = [&] {
    std::vector<std::shared_ptr<Connection>> v;
    v.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) v.push_back(conn);
    return v;
  }();
  for (const auto& conn : conns) {
    update_interest(conn);
    maybe_close(conn);
  }
  maybe_finish_drain();
}

void TcpServer::maybe_finish_drain() {
  if (draining_ && conns_.empty() && listen_fd_ < 0) loop_.stop();
}

}  // namespace cs::net
