// Copyright 2026 The QPSeeker Authors
//
// Small string helpers shared across modules (formatting, splitting), and
// the two JSON primitives every exporter writes with: metrics::RenderJson,
// obs::RenderObsJson, obs::RenderAuditJson and trace::RenderChromeJson.

#ifndef QPS_UTIL_STRING_UTIL_H_
#define QPS_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace qps {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits on a delimiter; empty tokens are kept.
std::vector<std::string> StrSplit(const std::string& s, char delim);

/// Trims ASCII whitespace from both ends.
std::string StrTrim(const std::string& s);

/// Lower-cases ASCII.
std::string StrLower(const std::string& s);

/// Joins tokens with a separator.
std::string StrJoin(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Formats a double with `digits` significant digits (for report tables).
std::string FormatSig(double v, int digits = 4);

/// Escapes `s` for the inside of a JSON string: `"` and `\` get a
/// backslash, control characters become \u00XX.
std::string JsonEscape(const std::string& s);

/// `v` as a JSON number with `%.6g`; a non-finite value writes 0, so the
/// document stays valid.
std::string JsonNumber(double v);

}  // namespace qps

#endif  // QPS_UTIL_STRING_UTIL_H_
