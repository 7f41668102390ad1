// Small string helpers used by the input-file parser and report renderers.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/fixed.h"

namespace cs::util {

/// Splits on a delimiter character; empty fields are kept.
std::vector<std::string> split(std::string_view text, char delim);

/// Splits on any run of whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view text);

/// Strips leading/trailing whitespace.
std::string trim(std::string_view text);

/// Concatenates `parts` by appending. Use it to build names and labels
/// instead of `"lit" + std::string` temporaries, which GCC 12's
/// -Wrestrict misreports in optimized builds.
std::string concat(std::initializer_list<std::string_view> parts);

/// Joins the elements with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Parses a signed integer; throws SpecError with context on failure.
long long parse_int(std::string_view text, std::string_view context);

/// Parses a double; throws SpecError with context on failure.
double parse_double(std::string_view text, std::string_view context);

/// Parses a decimal number into fixed-point units, rounded as
/// Fixed::from_double does. The one text → Fixed conversion: besides
/// what parse_double rejects, it rejects inf, nan and values whose
/// ×1000 does not fit in int64, with a SpecError naming `context`.
Fixed parse_fixed(std::string_view text, std::string_view context);

/// Appends `s` as a quoted JSON string (escaping control characters,
/// quote and backslash).
void append_json_string(std::string& out, std::string_view s);

}  // namespace cs::util
