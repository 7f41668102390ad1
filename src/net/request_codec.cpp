#include "net/request_codec.h"

#include <array>
#include <cstdio>

#include "util/error.h"
#include "util/strings.h"

namespace cs::net {

namespace {

constexpr std::string_view kBase64Alphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

synth::SweepObjective objective_from_name(std::string_view name) {
  for (const synth::SweepObjective o :
       {synth::SweepObjective::kFeasibility,
        synth::SweepObjective::kMaxIsolation,
        synth::SweepObjective::kMinCost}) {
    if (name == synth::sweep_objective_name(o)) return o;
  }
  throw util::SpecError("unknown objective '" + std::string(name) +
                        "' (want feasibility|max-isolation|min-cost)");
}

synth::ThresholdKind threshold_from_name(std::string_view name) {
  for (const synth::ThresholdKind k :
       {synth::ThresholdKind::kIsolation, synth::ThresholdKind::kUsability,
        synth::ThresholdKind::kCost}) {
    if (name == synth::threshold_name(k)) return k;
  }
  throw util::SpecError("unknown threshold kind '" + std::string(name) + "'");
}

WireStatus status_from_name(std::string_view name) {
  for (const WireStatus s :
       {WireStatus::kSat, WireStatus::kUnsat, WireStatus::kUnknown,
        WireStatus::kRejected, WireStatus::kSkipped, WireStatus::kOk,
        WireStatus::kError}) {
    if (name == wire_status_name(s)) return s;
  }
  throw util::SpecError("unknown response status '" + std::string(name) +
                        "'");
}

service::RejectReason reject_from_name(std::string_view name) {
  for (const service::RejectReason r :
       {service::RejectReason::kQueueFull,
        service::RejectReason::kDeadlineExpired,
        service::RejectReason::kCancelled}) {
    if (name == service::reject_reason_name(r)) return r;
  }
  throw util::SpecError("unknown reject reason '" + std::string(name) + "'");
}

/// Splits "key=value" at the first '='; throws when there is none.
std::pair<std::string_view, std::string_view> split_option(
    std::string_view token) {
  const std::size_t eq = token.find('=');
  CS_REQUIRE(eq != std::string_view::npos,
             "malformed option '" + std::string(token) +
                 "' (want key=value)");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

}  // namespace

std::string_view wire_status_name(WireStatus status) {
  switch (status) {
    case WireStatus::kSat:
      return "sat";
    case WireStatus::kUnsat:
      return "unsat";
    case WireStatus::kUnknown:
      return "unknown";
    case WireStatus::kRejected:
      return "rejected";
    case WireStatus::kSkipped:
      return "skipped";
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kError:
      return "error";
  }
  return "error";
}

ParsedLine RequestCodec::parse_line(std::string_view line) {
  ParsedLine parsed;
  std::string text = util::trim(line);
  if (text.empty() || text[0] == '#') return parsed;  // kBlank
  if (text == kVersion) {
    parsed.kind = LineKind::kHello;
    return parsed;
  }
  CS_REQUIRE(!util::starts_with(text, "cs-req-v"),
             "unsupported protocol version '" + text + "' (this server "
             "speaks " + std::string(kVersion) + ")");
  CS_REQUIRE(!util::starts_with(text, "cs-resp-"),
             "response line on the request channel");
  if (text == "metrics") {
    parsed.kind = LineKind::kMetrics;
    return parsed;
  }

  const std::vector<std::string> tok = util::split_ws(text);
  CS_REQUIRE(tok.size() >= 5,
             "request needs '<spec-ref> <objective> <isolation> <usability> "
             "<budget> [id=...] [deadline=...]', got " +
                 std::to_string(tok.size()) + " token(s)");
  parsed.kind = LineKind::kRequest;
  WireRequest& req = parsed.request;

  const std::string& ref = tok[0];
  if (util::starts_with(ref, "inline:")) {
    req.spec_kind = SpecRefKind::kInline;
    req.spec = base64_decode(std::string_view(ref).substr(7));
  } else if (util::starts_with(ref, "delta:")) {
    // Deltas are space-free by grammar (cs-delta-v1 names reject ' '),
    // so the ops text is exactly the rest of this token. Validity of
    // the ops is the resolver's concern: it has the base spec.
    req.spec_kind = SpecRefKind::kDelta;
    req.spec = ref.substr(6);
    CS_REQUIRE(!req.spec.empty(), "empty delta spec-ref");
  } else {
    req.spec_kind = SpecRefKind::kFile;
    req.spec = util::starts_with(ref, "file:") ? ref.substr(5) : ref;
    CS_REQUIRE(!req.spec.empty(), "empty spec path");
  }

  req.point.objective = objective_from_name(tok[1]);
  req.point.isolation = util::parse_fixed(tok[2], "isolation");
  req.point.usability = util::parse_fixed(tok[3], "usability");
  req.point.budget = util::parse_fixed(tok[4], "budget");

  for (std::size_t i = 5; i < tok.size(); ++i) {
    const auto [key, value] = split_option(tok[i]);
    if (key == "id") {
      CS_REQUIRE(!value.empty(), "empty request id");
      req.id = std::string(value);
    } else if (key == "deadline") {
      req.deadline_ms = util::parse_int(value, "deadline");
    } else {
      throw util::SpecError("unknown request option '" + std::string(key) +
                            "' (want id|deadline)");
    }
  }
  return parsed;
}

std::string RequestCodec::render_request(const WireRequest& request) {
  std::string out;
  if (request.spec_kind == SpecRefKind::kInline) {
    out += "inline:";
    out += base64_encode(request.spec);
  } else if (request.spec_kind == SpecRefKind::kDelta) {
    out += "delta:" + request.spec;
  } else if (request.spec.find(':') != std::string::npos) {
    out += "file:" + request.spec;
  } else {
    out += request.spec;
  }
  out += ' ';
  out += synth::sweep_objective_name(request.point.objective);
  out += ' ' + request.point.isolation.to_string();
  out += ' ' + request.point.usability.to_string();
  out += ' ' + request.point.budget.to_string();
  if (!request.id.empty()) out += " id=" + request.id;
  if (request.deadline_ms != 0)
    out += " deadline=" + std::to_string(request.deadline_ms);
  return out;
}

std::string RequestCodec::render_response(const WireResponse& response) {
  std::string out(kResponseTag);
  out += " id=" + (response.id.empty() ? std::string("-") : response.id);
  out += " status=";
  out += wire_status_name(response.status);
  if (response.reject != service::RejectReason::kNone) {
    out += " reject=";
    out += service::reject_reason_name(response.reject);
  }
  if (!response.source.empty()) out += " source=" + response.source;
  if (!response.bound.empty()) out += " bound=" + response.bound;
  if (!response.core.empty()) {
    out += " core=";
    for (std::size_t i = 0; i < response.core.size(); ++i) {
      if (i > 0) out += '+';
      out += synth::threshold_name(response.core[i]);
    }
  }
  if (response.status == WireStatus::kSat ||
      response.status == WireStatus::kUnsat ||
      response.status == WireStatus::kUnknown) {
    out += " probes=" + std::to_string(response.probes);
  }
  if (response.has_ms) out += " ms=" + fmt_ms(response.total_ms);
  // msg is rendered last: it swallows the rest of the line on parse.
  if (!response.message.empty()) out += " msg=" + response.message;
  return out;
}

WireResponse RequestCodec::parse_response(std::string_view line) {
  const std::string text = util::trim(line);
  // msg= takes the rest of the line, so split it off before tokenizing.
  std::string_view head = text;
  WireResponse resp;
  const std::size_t msg_at = text.find(" msg=");
  if (msg_at != std::string::npos) {
    resp.message = text.substr(msg_at + 5);
    head = std::string_view(text).substr(0, msg_at);
  }
  const std::vector<std::string> tok = util::split_ws(head);
  CS_REQUIRE(!tok.empty() && tok[0] == kResponseTag,
             "not a " + std::string(kResponseTag) + " line: '" + text + "'");
  bool saw_status = false;
  for (std::size_t i = 1; i < tok.size(); ++i) {
    const auto [key, value] = split_option(tok[i]);
    if (key == "id") {
      resp.id = value == "-" ? std::string() : std::string(value);
    } else if (key == "status") {
      resp.status = status_from_name(value);
      saw_status = true;
    } else if (key == "reject") {
      resp.reject = reject_from_name(value);
    } else if (key == "source") {
      resp.source = std::string(value);
    } else if (key == "bound") {
      resp.bound = std::string(value);
    } else if (key == "core") {
      for (const std::string& part : util::split(value, '+'))
        resp.core.push_back(threshold_from_name(part));
    } else if (key == "probes") {
      resp.probes = util::parse_int(value, "probes");
    } else if (key == "ms") {
      resp.total_ms = util::parse_double(value, "ms");
      resp.has_ms = true;
    } else {
      throw util::SpecError("unknown response field '" + std::string(key) +
                            "'");
    }
  }
  CS_REQUIRE(saw_status, "response line has no status field");
  return resp;
}

WireResponse RequestCodec::response_from_outcome(
    std::string id, const synth::SweepPoint& point,
    const service::ServiceOutcome& outcome) {
  WireResponse resp;
  resp.id = std::move(id);
  resp.reject = outcome.reject_reason;
  resp.total_ms = outcome.total_ms;
  resp.has_ms = true;
  if (outcome.rejected) {
    resp.status = WireStatus::kRejected;
    return resp;
  }
  if (outcome.result.skipped) {
    resp.status = WireStatus::kSkipped;
    return resp;
  }
  switch (outcome.result.status) {
    case smt::CheckResult::kSat:
      resp.status = WireStatus::kSat;
      break;
    case smt::CheckResult::kUnsat:
      resp.status = WireStatus::kUnsat;
      break;
    case smt::CheckResult::kUnknown:
      resp.status = WireStatus::kUnknown;
      break;
  }
  resp.source = outcome.cache_hit
                    ? (outcome.coalesced ? "coalesced" : "cache")
                    : "solved";
  if (outcome.result.search.feasible) {
    resp.bound = point.objective == synth::SweepObjective::kFeasibility
                     ? outcome.result.search.metrics.isolation.to_string()
                     : outcome.result.search.bound.to_string();
  } else if (outcome.result.status == smt::CheckResult::kUnsat) {
    resp.core = outcome.result.conflicting;
  }
  resp.probes = outcome.result.search.probes;
  return resp;
}

WireResponse RequestCodec::error_response(std::string id,
                                          std::string message) {
  WireResponse resp;
  resp.id = std::move(id);
  resp.status = WireStatus::kError;
  resp.message = std::move(message);
  return resp;
}

std::string RequestCodec::base64_encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const std::uint32_t n = (static_cast<std::uint8_t>(bytes[i]) << 16) |
                            (static_cast<std::uint8_t>(bytes[i + 1]) << 8) |
                            static_cast<std::uint8_t>(bytes[i + 2]);
    out += kBase64Alphabet[(n >> 18) & 63];
    out += kBase64Alphabet[(n >> 12) & 63];
    out += kBase64Alphabet[(n >> 6) & 63];
    out += kBase64Alphabet[n & 63];
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const std::uint32_t n = static_cast<std::uint8_t>(bytes[i]) << 16;
    out += kBase64Alphabet[(n >> 18) & 63];
    out += kBase64Alphabet[(n >> 12) & 63];
    out += "==";
  } else if (rest == 2) {
    const std::uint32_t n = (static_cast<std::uint8_t>(bytes[i]) << 16) |
                            (static_cast<std::uint8_t>(bytes[i + 1]) << 8);
    out += kBase64Alphabet[(n >> 18) & 63];
    out += kBase64Alphabet[(n >> 12) & 63];
    out += kBase64Alphabet[(n >> 6) & 63];
    out += '=';
  }
  return out;
}

std::string RequestCodec::base64_decode(std::string_view text) {
  std::array<std::int8_t, 256> lut;
  lut.fill(-1);
  for (std::size_t i = 0; i < kBase64Alphabet.size(); ++i)
    lut[static_cast<std::uint8_t>(kBase64Alphabet[i])] =
        static_cast<std::int8_t>(i);
  CS_REQUIRE(text.size() % 4 == 0,
             "base64 payload length must be a multiple of 4");
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    std::uint32_t n = 0;
    int pad = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        CS_REQUIRE(i + 4 == text.size() && j >= 2,
                   "stray '=' inside base64 payload");
        ++pad;
        n <<= 6;
        continue;
      }
      CS_REQUIRE(pad == 0, "base64 data after padding");
      const std::int8_t v = lut[static_cast<std::uint8_t>(c)];
      CS_REQUIRE(v >= 0, std::string("invalid base64 character '") + c + "'");
      n = (n << 6) | static_cast<std::uint32_t>(v);
    }
    out += static_cast<char>((n >> 16) & 0xff);
    if (pad < 2) out += static_cast<char>((n >> 8) & 0xff);
    if (pad < 1) out += static_cast<char>(n & 0xff);
  }
  return out;
}

}  // namespace cs::net
