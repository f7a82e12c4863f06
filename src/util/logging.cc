// Copyright 2026 The QPSeeker Authors

#include "util/logging.h"

#include <atomic>
#include <cstdio>

#include "util/clock.h"

namespace qps {

namespace {
LogLevel g_level = LogLevel::kInfo;
std::atomic<int> g_verbosity{0};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

int GetVerbosity() { return g_verbosity.load(std::memory_order_relaxed); }
void SetVerbosity(int verbosity) {
  g_verbosity.store(verbosity, std::memory_order_relaxed);
}

int LogThreadId() {
  static std::atomic<int> next_tid{0};
  thread_local int tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

namespace internal {

void LogMessage::WritePrefix(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  // Monotonic seconds since process start (the trace-span timeline) plus a
  // dense thread id, so log lines correlate with Chrome-trace captures.
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%.6f", Clock::Default()->NowSeconds());
  stream_ << "[" << LevelName(level) << " " << ts << " t" << LogThreadId() << " "
          << base << ":" << line << "] ";
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), enabled_(level >= g_level || level == LogLevel::kFatal) {
  if (enabled_) WritePrefix(level, file, line);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line,
                       bool force_enabled)
    : level_(level), enabled_(force_enabled) {
  if (enabled_) WritePrefix(level, file, line);
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace qps
