// Copyright 2026 The QPSeeker Authors

#include "obs/export.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/accuracy.h"
#include "util/io.h"
#include "util/string_util.h"

namespace qps {
namespace obs {

namespace {

/// Dots (and anything else outside the Prometheus name alphabet) become
/// underscores: qps.serve.latency_ms -> qps_serve_latency_ms.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Full-precision doubles so parsed values compare exactly equal; non-
/// finite values render as Prometheus' +Inf/-Inf/NaN tokens.
std::string PromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendTyped(std::string* out, const std::string& prom_name,
                 const char* type) {
  *out += "# TYPE " + prom_name + " " + type + "\n";
}

}  // namespace

std::string RenderPrometheus(const metrics::Snapshot& snapshot,
                             const WindowSnapshot* window) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string pname = PromName(name);
    AppendTyped(&out, pname, "counter");
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pname = PromName(name);
    AppendTyped(&out, pname, "gauge");
    out += pname + " " + PromDouble(value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string pname = PromName(h.name);
    AppendTyped(&out, pname, "histogram");
    // Prometheus buckets are cumulative: each `le` series counts every
    // observation <= the bound, and le="+Inf" equals _count.
    int64_t cumulative = 0;
    for (int i = 0; i < metrics::Histogram::kNumBuckets; ++i) {
      cumulative += h.buckets[static_cast<size_t>(i)];
      out += pname + "_bucket{le=\"" +
             PromDouble(metrics::Histogram::BucketUpperBound(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + PromDouble(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  if (window != nullptr) {
    for (const auto& c : window->counters) {
      const std::string pname = PromName(c.name);
      AppendTyped(&out, pname + "_window_total", "gauge");
      out += pname + "_window_total " + std::to_string(c.total) + "\n";
      AppendTyped(&out, pname + "_window_rate", "gauge");
      out += pname + "_window_rate " + PromDouble(c.rate_per_sec) + "\n";
    }
    for (const auto& h : window->histograms) {
      const std::string pname = PromName(h.name);
      AppendTyped(&out, pname + "_window_count", "gauge");
      out += pname + "_window_count " + std::to_string(h.hist.count) + "\n";
      AppendTyped(&out, pname + "_window_rate", "gauge");
      out += pname + "_window_rate " + PromDouble(h.rate_per_sec) + "\n";
      for (const double p : {50.0, 90.0, 99.0}) {
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), "_window_p%.0f", p);
        AppendTyped(&out, pname + suffix, "gauge");
        out += pname + suffix + " " + PromDouble(h.hist.Percentile(p)) + "\n";
      }
    }
  }
  return out;
}

std::string PromSample::Key() const {
  std::string key = name;
  if (!labels.empty()) {
    key += "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) key += ",";
      key += labels[i].first + "=\"" + labels[i].second + "\"";
    }
    key += "}";
  }
  return key;
}

StatusOr<std::vector<PromSample>> ParsePrometheus(const std::string& text) {
  std::vector<PromSample> samples;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;

    const auto fail = [&](const std::string& what) {
      return Status::InvalidArgument("prometheus line " +
                                     std::to_string(line_no) + ": " + what);
    };

    PromSample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) return fail("missing metric name");
    sample.name = line.substr(0, i);

    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          return fail("malformed label");
        }
        const std::string label_name = line.substr(i, eq - i);
        std::string label_value;
        size_t j = eq + 2;
        for (; j < line.size() && line[j] != '"'; ++j) {
          if (line[j] == '\\' && j + 1 < line.size()) {
            ++j;
            if (line[j] == 'n') {
              label_value.push_back('\n');
              continue;
            }
          }
          label_value.push_back(line[j]);
        }
        if (j >= line.size()) return fail("unterminated label value");
        sample.labels.emplace_back(label_name, label_value);
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') return fail("unterminated labels");
      ++i;
    }

    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) return fail("missing sample value");
    const std::string value_str = line.substr(i);
    if (value_str == "+Inf") {
      sample.value = HUGE_VAL;
    } else if (value_str == "-Inf") {
      sample.value = -HUGE_VAL;
    } else if (value_str == "NaN") {
      sample.value = std::nan("");
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str()) return fail("bad sample value");
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::string RenderObsJson(int64_t seq) {
  const metrics::Snapshot metric_snap =
      metrics::Registry::Global().TakeSnapshot();
  const WindowSnapshot window_snap = WindowRegistry::Global().TakeSnapshot();
  const AccuracyTracker::Report drift = AccuracyTracker::Global().Peek();

  std::string out = "{\"ts_ms\":" +
                    JsonNumber(Clock::Default()->NowMillis()) +
                    ",\"seq\":" + std::to_string(seq) + ",\"metrics\":";
  out += metrics::RenderJson(metric_snap);

  out += ",\"window\":{\"counters\":{";
  bool first = true;
  for (const auto& c : window_snap.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(c.name) + "\":{\"total\":" +
           std::to_string(c.total) +
           ",\"rate\":" + JsonNumber(c.rate_per_sec) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : window_snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(h.name) + "\":{\"count\":" +
           std::to_string(h.hist.count) +
           ",\"rate\":" + JsonNumber(h.rate_per_sec) +
           ",\"p50\":" + JsonNumber(h.hist.Percentile(50)) +
           ",\"p90\":" + JsonNumber(h.hist.Percentile(90)) +
           ",\"p99\":" + JsonNumber(h.hist.Percentile(99)) + "}";
  }
  out += "}},\"drift\":{\"score\":" + JsonNumber(drift.drift_score) +
         ",\"qerr_p50\":" + JsonNumber(drift.qerr_p50) +
         ",\"qerr_p95\":" + JsonNumber(drift.qerr_p95) +
         ",\"samples\":" + std::to_string(drift.samples) +
         ",\"drifted\":" + (drift.drifted ? "true" : "false") + "}}";
  return out;
}

// ---- SnapshotWriter -----------------------------------------------------

namespace {

/// Shared waiter so Stop() interrupts the interval sleep promptly.
struct WriterWait {
  std::mutex mu;
  std::condition_variable cv;
};

WriterWait& GetWriterWait() {
  static WriterWait* wait = new WriterWait();
  return *wait;
}

}  // namespace

SnapshotWriter::SnapshotWriter(std::string path, double interval_ms)
    : path_(std::move(path)), interval_ms_(interval_ms > 0 ? interval_ms : 1000.0) {}

SnapshotWriter::~SnapshotWriter() { Stop(); }

void SnapshotWriter::Start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void SnapshotWriter::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  GetWriterWait().cv.notify_all();
  thread_.join();
}

Status SnapshotWriter::WriteOnce() {
  // Refresh the drift gauges so every snapshot carries a current score.
  AccuracyTracker::Global().Update();
  const int64_t seq = written_.load(std::memory_order_relaxed) + 1;
  QPS_RETURN_IF_ERROR(io::AtomicWriteFile(path_, RenderObsJson(seq) + "\n"));
  written_.store(seq, std::memory_order_relaxed);
  return Status::OK();
}

void SnapshotWriter::Loop() {
  static metrics::Counter* const write_failures =
      metrics::Registry::Global().GetCounter("qps.obs.snapshot_failures");
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!WriteOnce().ok()) write_failures->Increment();
    WriterWait& wait = GetWriterWait();
    std::unique_lock<std::mutex> lock(wait.mu);
    wait.cv.wait_for(lock,
                     std::chrono::milliseconds(static_cast<int64_t>(interval_ms_)),
                     [this] { return stop_.load(std::memory_order_relaxed); });
  }
}

}  // namespace obs
}  // namespace qps
