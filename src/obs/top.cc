// Copyright 2026 The QPSeeker Authors

#include "obs/top.h"

#include <cstdio>

#include "util/string_util.h"

namespace qps {
namespace obs {

namespace {

double CounterValue(const JsonValue& doc, const std::string& name) {
  const JsonValue* counters = doc.FindPath("metrics.counters");
  return counters != nullptr ? counters->NumberOr(name, 0.0) : 0.0;
}

double GaugeValue(const JsonValue& doc, const std::string& name) {
  const JsonValue* gauges = doc.FindPath("metrics.gauges");
  return gauges != nullptr ? gauges->NumberOr(name, 0.0) : 0.0;
}

const JsonValue* WindowHist(const JsonValue& doc, const std::string& name) {
  const JsonValue* hists = doc.FindPath("window.histograms");
  return hists != nullptr ? hists->Find(name) : nullptr;
}

const JsonValue* WindowCounter(const JsonValue& doc, const std::string& name) {
  const JsonValue* counters = doc.FindPath("window.counters");
  return counters != nullptr ? counters->Find(name) : nullptr;
}

/// Worst state over the ladder breakers, one qps.health.state.neural*
/// gauge per tenant ladder (core/health.h: 0 closed, 1 open, 2 half-open).
const char* LadderBreaker(const JsonValue& doc) {
  const JsonValue* gauges = doc.FindPath("metrics.gauges");
  if (gauges == nullptr || !gauges->is_object()) return "closed";
  bool half_open = false;
  for (const auto& [name, value] : gauges->object()) {
    if (name.rfind("qps.health.state.neural", 0) != 0) continue;
    if (!value.is_number()) continue;
    if (value.number() == 1.0) return "OPEN";
    if (value.number() == 2.0) half_open = true;
  }
  return half_open ? "half-open" : "closed";
}

}  // namespace

std::string FormatTopBoard(const JsonValue& cur, const JsonValue* prev,
                           double poll_s) {
  std::string out;

  // Throughput: the inter-poll delta of the cumulative request counter
  // when a previous snapshot exists, else the sliding-window rate.
  double qps = 0.0;
  const char* qps_src = "window";
  if (prev != nullptr && poll_s > 0.0) {
    qps = (CounterValue(cur, "qps.serve.requests") -
           CounterValue(*prev, "qps.serve.requests")) /
          poll_s;
    qps_src = "delta";
  } else if (const JsonValue* wc = WindowCounter(cur, "qps.serve.requests")) {
    qps = wc->NumberOr("rate", 0.0);
  }

  out += StrFormat("qps_top — snapshot #%lld  (ts %.1f s)\n",
                   static_cast<long long>(cur.NumberOr("seq", 0)),
                   cur.NumberOr("ts_ms", 0) / 1000.0);
  out += StrFormat(
      "serving   %8.1f req/s (%s)   inflight %3.0f   queue %3.0f\n", qps,
      qps_src, GaugeValue(cur, "qps.serve.inflight"),
      GaugeValue(cur, "qps.serve.queue_depth"));
  out += StrFormat(
      "lifetime  %8.0f requests   shed %.0f   deadline misses %.0f\n",
      CounterValue(cur, "qps.serve.requests"),
      CounterValue(cur, "qps.serve.shed"),
      CounterValue(cur, "qps.serve.deadline_misses"));

  if (const JsonValue* lat = WindowHist(cur, "qps.serve.latency_ms")) {
    out += StrFormat(
        "latency   p50 %8.2f ms   p90 %8.2f ms   p99 %8.2f ms   (window, "
        "n=%.0f)\n",
        lat->NumberOr("p50", 0), lat->NumberOr("p90", 0),
        lat->NumberOr("p99", 0), lat->NumberOr("count", 0));
  }
  if (const JsonValue* queue = WindowHist(cur, "qps.serve.queue_ms")) {
    out += StrFormat("queue     p50 %8.2f ms   p99 %8.2f ms\n",
                     queue->NumberOr("p50", 0), queue->NumberOr("p99", 0));
  }

  // Ladder-stage mix over the window, plus the breaker level.
  const JsonValue* neural = WindowCounter(cur, "qps.guarded.served_neural");
  const JsonValue* greedy = WindowCounter(cur, "qps.guarded.served_greedy");
  const JsonValue* traditional =
      WindowCounter(cur, "qps.guarded.served_traditional");
  if (neural != nullptr || greedy != nullptr || traditional != nullptr) {
    auto total = [](const JsonValue* v) {
      return v != nullptr ? v->NumberOr("total", 0.0) : 0.0;
    };
    out += StrFormat(
        "ladder    neural %5.0f   greedy %5.0f   traditional %5.0f   "
        "(window)   breaker %s\n",
        total(neural), total(greedy), total(traditional), LadderBreaker(cur));
  }

  if (const JsonValue* drift = cur.Find("drift")) {
    const bool drifted = [&] {
      const JsonValue* d = drift->Find("drifted");
      return d != nullptr && d->type() == JsonValue::Type::kBool &&
             d->boolean();
    }();
    out += StrFormat(
        "accuracy  q-error p50 %6.2f  p95 %6.2f   drift score %5.2f%s   "
        "(n=%.0f)\n",
        drift->NumberOr("qerr_p50", 0), drift->NumberOr("qerr_p95", 0),
        drift->NumberOr("score", 0), drifted ? "  ** DRIFT **" : "",
        drift->NumberOr("samples", 0));
  }

  const double batch_flushes = CounterValue(cur, "qps.serve.batch_plans");
  if (batch_flushes > 0) {
    out += StrFormat("batching  %8.0f plans fused\n", batch_flushes);
  }
  return out;
}

}  // namespace obs
}  // namespace qps
