#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.h"

namespace cs::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    std::size_t j = i;
    while (j < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[j])))
      ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return std::string(text.substr(b, e - b));
}

std::string concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

long long parse_int(std::string_view text, std::string_view context) {
  long long value = 0;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  CS_REQUIRE(ec == std::errc() && ptr == end,
             std::string("expected integer for ") + std::string(context) +
                 ", got '" + std::string(text) + "'");
  return value;
}

double parse_double(std::string_view text, std::string_view context) {
  // std::from_chars<double> is available in libstdc++ 12.
  double value = 0;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  CS_REQUIRE(ec == std::errc() && ptr == end,
             std::string("expected number for ") + std::string(context) +
                 ", got '" + std::string(text) + "'");
  return value;
}

Fixed parse_fixed(std::string_view text, std::string_view context) {
  const double value = parse_double(text, context);
  // 2^63 is a double, so the range test on the rounded value is exact;
  // it is false for nan, and the cast below is defined for what passes.
  const double scaled = value * static_cast<double>(Fixed::kScale);
  const double rounded = scaled < 0 ? scaled - 0.5 : scaled + 0.5;
  CS_REQUIRE(std::isfinite(value) && rounded >= -0x1p63 && rounded < 0x1p63,
             std::string(context) + " must be a finite number below 9.2e15 "
                                    "in magnitude, got '" +
                 std::string(text) + "'");
  return Fixed::from_raw(static_cast<std::int64_t>(rounded));
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace cs::util
