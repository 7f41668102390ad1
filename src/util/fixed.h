// Fixed-point arithmetic for isolation/usability scores.
//
// The paper (§IV-A) normalizes real-valued scores into integers so the whole
// synthesis problem stays in integer linear arithmetic. `Fixed` is that
// normalization: a value x is stored as round(x * kScale) in an int64.
// All score math in the encoder, the checker and the optimizer uses Fixed,
// which guarantees the independent checker and the SMT encoding agree bit
// for bit.
//
// All Fixed operators saturate at the int64 rails instead of wrapping:
// giant-topology cost sums are accumulated through these operators, and a
// silent two's-complement wraparound would flip a score's sign and corrupt
// the synthesized verdict without any error surfacing. Saturation keeps
// comparisons monotone (a clamped sum still compares as "very large"),
// which is the property the optimizer's binary search actually relies on.
// In-range arithmetic is bit-identical to the previous raw operators.
#pragma once

#include <compare>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string>

#include "util/error.h"

namespace cs::util {

/// a + b clamped to the int64 range instead of wrapping.
inline constexpr std::int64_t sat_add_i64(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out))
    return b > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  return out;
}

/// a - b clamped to the int64 range instead of wrapping.
inline constexpr std::int64_t sat_sub_i64(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out))
    return b < 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  return out;
}

/// a * b clamped to the int64 range instead of wrapping.
inline constexpr std::int64_t sat_mul_i64(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out))
    return (a < 0) == (b < 0) ? std::numeric_limits<std::int64_t>::max()
                              : std::numeric_limits<std::int64_t>::min();
  return out;
}

// Checked arithmetic for linear-constraint bounds and coefficient totals.
// Unlike the saturating helpers above, these never clamp: a clamped PB
// bound is a different constraint, and a wrong bound is a wrong verdict.
// An overflow throws util::Error naming what was being formed.

/// a + b; throws util::Error when the sum does not fit in int64.
inline std::int64_t checked_add_i64(std::int64_t a, std::int64_t b,
                                    const char* what) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out))
    throw Error(std::string(what) + " does not fit in 64-bit integers");
  return out;
}

/// a - b; throws util::Error when the difference does not fit in int64.
inline std::int64_t checked_sub_i64(std::int64_t a, std::int64_t b,
                                    const char* what) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out))
    throw Error(std::string(what) + " does not fit in 64-bit integers");
  return out;
}

/// a * b; throws util::Error when the product does not fit in int64.
inline std::int64_t checked_mul_i64(std::int64_t a, std::int64_t b,
                                    const char* what) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out))
    throw Error(std::string(what) + " does not fit in 64-bit integers");
  return out;
}

/// Euclidean division: quotient rounds toward negative infinity and the
/// remainder is always non-negative (euclidean_mod). Signed `/` in C++
/// truncates toward zero, which breaks modular bucketing for negative
/// scores; this is the standard branch-free correction (Halide's codegen
/// uses the same trick). b == 0 yields 0, matching Halide's total
/// semantics rather than trapping.
inline constexpr std::int64_t euclidean_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  const std::int64_t q = a / b;
  const std::int64_t r = a - q * b;
  const std::int64_t bs = b >> 63;
  const std::int64_t rs = r >> 63;
  return q - (rs & bs) + (rs & ~bs);
}

/// Euclidean remainder: in [0, |b|); 0 when b == 0. See euclidean_div.
inline constexpr std::int64_t euclidean_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  const std::int64_t r = a % b;
  const std::int64_t sign_mask = r >> 63;
  return r + (sign_mask & (b < 0 ? -b : b));
}

class Fixed {
 public:
  /// Number of fixed-point units per 1.0.
  static constexpr std::int64_t kScale = 1000;

  constexpr Fixed() = default;

  /// Constructs from a raw count of fixed-point units.
  static constexpr Fixed from_raw(std::int64_t raw) {
    Fixed f;
    f.raw_ = raw;
    return f;
  }

  /// Constructs from an integer value (exact).
  static constexpr Fixed from_int(std::int64_t v) {
    return from_raw(v * kScale);
  }

  /// Constructs from a double (rounded to the nearest unit).
  static Fixed from_double(double v) {
    const double scaled = v * static_cast<double>(kScale);
    return from_raw(static_cast<std::int64_t>(scaled < 0 ? scaled - 0.5
                                                         : scaled + 0.5));
  }

  constexpr std::int64_t raw() const { return raw_; }
  double to_double() const { return static_cast<double>(raw_) / kScale; }

  constexpr Fixed operator+(Fixed o) const {
    return from_raw(sat_add_i64(raw_, o.raw_));
  }
  constexpr Fixed operator-(Fixed o) const {
    return from_raw(sat_sub_i64(raw_, o.raw_));
  }
  constexpr Fixed operator-() const {
    return from_raw(sat_sub_i64(0, raw_));
  }

  /// Multiplication by a plain integer is exact (saturating at the rails).
  constexpr Fixed operator*(std::int64_t k) const {
    return from_raw(sat_mul_i64(raw_, k));
  }

  /// Fixed*Fixed rounds to the nearest unit (round half away from zero);
  /// a product past the int64 rails clamps to the rail.
  constexpr Fixed operator*(Fixed o) const {
    std::int64_t prod = 0;
    if (__builtin_mul_overflow(raw_, o.raw_, &prod))
      return from_raw((raw_ < 0) == (o.raw_ < 0)
                          ? std::numeric_limits<std::int64_t>::max()
                          : std::numeric_limits<std::int64_t>::min());
    const std::int64_t half = kScale / 2;
    return from_raw(prod >= 0 ? sat_add_i64(prod, half) / kScale
                              : sat_sub_i64(prod, half) / kScale);
  }

  /// Division by a plain integer rounds to the nearest unit.
  constexpr Fixed operator/(std::int64_t k) const {
    const std::int64_t half = (k >= 0 ? k : -k) / 2;
    return from_raw(raw_ >= 0 ? (raw_ + half) / k : (raw_ - half) / k);
  }

  Fixed& operator+=(Fixed o) {
    raw_ = sat_add_i64(raw_, o.raw_);
    return *this;
  }
  Fixed& operator-=(Fixed o) {
    raw_ = sat_sub_i64(raw_, o.raw_);
    return *this;
  }

  constexpr auto operator<=>(const Fixed&) const = default;

  /// Renders with up to three decimals, trailing zeros trimmed ("2.5", "4").
  std::string to_string() const {
    const std::int64_t whole = raw_ / kScale;
    std::int64_t frac = raw_ % kScale;
    if (frac == 0) return std::to_string(whole);
    if (frac < 0) frac = -frac;
    std::string s = (raw_ < 0 && whole == 0) ? "-0" : std::to_string(whole);
    std::string f = std::to_string(frac);
    f.insert(0, 3 - f.size(), '0');
    while (!f.empty() && f.back() == '0') f.pop_back();
    return s + "." + f;
  }

 private:
  std::int64_t raw_ = 0;
};

inline constexpr Fixed operator*(std::int64_t k, Fixed f) { return f * k; }

/// Rounded division for non-negative operands; shared by the SMT encoder
/// and the independent metric computation so both round identically.
inline constexpr std::int64_t round_div(std::int64_t num, std::int64_t den) {
  return (num + den / 2) / den;
}

inline std::ostream& operator<<(std::ostream& os, Fixed f) {
  return os << f.to_string();
}

}  // namespace cs::util
