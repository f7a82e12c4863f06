// Copyright 2026 The QPSeeker Authors
//
// Minimal leveled logging plus CHECK macros (Arrow/Google style), and
// VLOG-style verbose logging with a runtime-settable verbosity. Log lines
// carry a monotonic timestamp (same clock as util/clock.h, hence the same
// timeline as trace spans) and a dense thread id, so logs correlate with
// Chrome-trace captures.

#ifndef QPS_UTIL_LOGGING_H_
#define QPS_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace qps {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Global minimum level; messages below it are dropped. Default kInfo.
void SetLogLevel(LogLevel level);

/// Verbosity for QPS_VLOG(n): messages with n <= verbosity are emitted
/// (at Debug level but independent of the minimum level above). Default 0,
/// so QPS_VLOG(1)+ are dropped until SetVerbosity raises it.
int GetVerbosity();
void SetVerbosity(int verbosity);
inline bool VlogEnabled(int level) { return level <= GetVerbosity(); }

/// Dense per-process thread index (0 for the first thread to log/trace).
int LogThreadId();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  /// VLOG path: enabled regardless of the minimum level.
  LogMessage(LogLevel level, const char* file, int line, bool force_enabled);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  void WritePrefix(LogLevel level, const char* file, int line);

  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace qps

#define QPS_LOG(level)                                           \
  ::qps::internal::LogMessage(::qps::LogLevel::k##level, __FILE__, __LINE__)

/// Verbose log, gated on SetVerbosity at runtime. The stream expression is
/// not evaluated when disabled.
#define QPS_VLOG(verbosity)                                      \
  if (::qps::VlogEnabled(verbosity))                             \
  ::qps::internal::LogMessage(::qps::LogLevel::kDebug, __FILE__, __LINE__, true)

#define QPS_CHECK(cond)                                          \
  if (!(cond))                                                   \
  ::qps::internal::LogMessage(::qps::LogLevel::kFatal, __FILE__, __LINE__) \
      << "Check failed: " #cond " "

#define QPS_DCHECK(cond) QPS_CHECK(cond)

#endif  // QPS_UTIL_LOGGING_H_
