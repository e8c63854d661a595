// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Small string helpers shared by the bench harness printers, and the
// strict number parsers every command-line flag goes through.

#ifndef MAIMON_UTIL_STRING_UTIL_H_
#define MAIMON_UTIL_STRING_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace maimon {

/// Fixed-precision double formatting ("0.05", "12", ...). snprintf-based so
/// the output matches what the printf-style tables in bench/ produce.
inline std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

inline std::string Join(const std::vector<std::string>& parts,
                        const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// "1234567" -> "1,234,567" for the wide row-count columns.
inline std::string WithThousands(size_t value) {
  std::string raw = std::to_string(value);
  std::string out;
  int count = 0;
  for (size_t i = raw.size(); i-- > 0;) {
    out.push_back(raw[i]);
    if (++count == 3 && i > 0) {
      out.push_back(',');
      count = 0;
    }
  }
  return std::string(out.rbegin(), out.rend());
}

/// Whole-string finite double: a value with trailing characters, no
/// digits, or out of range is rejected (false, `*out` untouched), never
/// read as its prefix or as 0.
inline bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Whole-string unsigned decimal count, rejected like ParseDouble.
inline bool ParseCount(const char* text, size_t* out) {
  // strtoull accepts a sign and negates into a huge count; demand digits.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace maimon

#endif  // MAIMON_UTIL_STRING_UTIL_H_
