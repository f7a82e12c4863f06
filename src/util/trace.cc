// Copyright 2026 The QPSeeker Authors

#include "util/trace.h"

#include <cstdio>
#include <fstream>
#include <mutex>

#include "util/clock.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace qps {
namespace trace {

namespace internal {

std::atomic<bool> g_enabled{false};

namespace {

constexpr size_t kDefaultMaxSpans = 65536;

struct Collector {
  std::mutex mu;
  std::vector<SpanRecord> spans;
  std::atomic<size_t> max_spans{kDefaultMaxSpans};
  std::atomic<int64_t> dropped{0};
  std::atomic<int64_t> next_id{0};
  std::atomic<int> next_tid{0};
};

Collector& GetCollector() {
  static Collector* collector = new Collector();
  return *collector;
}

/// Per-thread state: dense thread index plus the stack of active span ids
/// (for parent linkage and depth).
struct ThreadState {
  int tid = -1;
  std::vector<int64_t> active;  ///< span ids, innermost last
};

ThreadState& GetThreadState() {
  thread_local ThreadState state;
  if (state.tid < 0) {
    state.tid = GetCollector().next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return state;
}

}  // namespace

int64_t BeginSpanSlow(const char* name, int64_t* start_ns, int* depth) {
  (void)name;
  Collector& collector = GetCollector();
  ThreadState& ts = GetThreadState();
  const int64_t id = collector.next_id.fetch_add(1, std::memory_order_relaxed);
  *depth = static_cast<int>(ts.active.size());
  ts.active.push_back(id);
  *start_ns = Clock::Default()->NowNanos();
  return id;
}

void EndSpanSlow(const char* name, int64_t id, int64_t start_ns, int depth,
                 std::vector<std::pair<std::string, std::string>>&& attrs) {
  const int64_t end_ns = Clock::Default()->NowNanos();
  Collector& collector = GetCollector();
  ThreadState& ts = GetThreadState();
  // Pop this span (and anything stranded above it by early exits).
  int64_t parent = -1;
  while (!ts.active.empty()) {
    const int64_t top = ts.active.back();
    ts.active.pop_back();
    if (top == id) break;
  }
  if (!ts.active.empty()) parent = ts.active.back();

  // Tracing may have been stopped mid-span; the stack bookkeeping above
  // still ran, but the record is only kept while recording is on.
  if (!g_enabled.load(std::memory_order_relaxed)) return;

  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent = parent;
  record.tid = ts.tid;
  record.depth = depth;
  record.start_us = start_ns / 1000;
  record.dur_us = (end_ns - start_ns) / 1000;
  record.attrs = std::move(attrs);
  static metrics::Counter* const dropped_counter =
      metrics::Registry::Global().GetCounter("qps.trace.dropped");
  const size_t cap = collector.max_spans.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(collector.mu);
  // Bounded buffer: tracing left on indefinitely (a serving process with
  // \trace on) must not grow the global vector without limit.
  if (collector.spans.size() >= cap) {
    collector.dropped.fetch_add(1, std::memory_order_relaxed);
    dropped_counter->Increment();
    return;
  }
  collector.spans.push_back(std::move(record));
}

}  // namespace internal

void ScopedSpan::AddAttr(const char* key, double value) {
  if (id_ < 0) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  attrs_.emplace_back(key, buf);
}

void SetMaxSpans(size_t max_spans) {
  internal::GetCollector().max_spans.store(
      max_spans > 0 ? max_spans : internal::kDefaultMaxSpans,
      std::memory_order_relaxed);
}

size_t MaxSpans() {
  return internal::GetCollector().max_spans.load(std::memory_order_relaxed);
}

int64_t DroppedSpans() {
  return internal::GetCollector().dropped.load(std::memory_order_relaxed);
}

void Start() {
  Clear();
  internal::g_enabled.store(true, std::memory_order_relaxed);
}

void Stop() { internal::g_enabled.store(false, std::memory_order_relaxed); }

void Clear() {
  auto& collector = internal::GetCollector();
  std::lock_guard<std::mutex> lock(collector.mu);
  collector.spans.clear();
  collector.dropped.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> Snapshot() {
  auto& collector = internal::GetCollector();
  std::lock_guard<std::mutex> lock(collector.mu);
  return collector.spans;
}

std::string RenderChromeJson() {
  const std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const auto& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(span.name) + "\",\"ph\":\"X\",\"pid\":1";
    std::snprintf(buf, sizeof(buf),
                  ",\"tid\":%d,\"ts\":%lld,\"dur\":%lld", span.tid,
                  static_cast<long long>(span.start_us),
                  static_cast<long long>(span.dur_us));
    out += buf;
    if (!span.attrs.empty()) {
      out += ",\"args\":{";
      bool first_attr = true;
      for (const auto& [key, value] : span.attrs) {
        if (!first_attr) out += ",";
        first_attr = false;
        out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool WriteChromeJson(const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << RenderChromeJson();
  return static_cast<bool>(file);
}

}  // namespace trace
}  // namespace qps
