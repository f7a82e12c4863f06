// Copyright 2026 The QPSeeker Authors

#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ItemSeed(uint64_t seed, uint64_t index) {
  return Mix64(Mix64(seed) ^ (index * 0xd1b54a32d192ed03ULL));
}

uint64_t SplitMix::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps 0.99 * 1000 (= 990.0000000000001) at rank 990.
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

TailSummary Summarize(std::vector<double> values) {
  TailSummary out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = NearestRank(values, 50.0);
  out.tail = values.back();
  const double n = static_cast<double>(values.size());
  for (double pct : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const double rank = std::ceil(pct / 100.0 * n - 1e-9);
    if (n - rank >= 10.0) {
      out.tail_pct = pct;
      out.tail = NearestRank(values, pct);
      break;
    }
  }
  return out;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 50.0);
}

double SupportedPercentile(std::vector<double> values, double pct) {
  const double n = static_cast<double>(values.size());
  if (n - std::ceil(pct / 100.0 * n - 1e-9) < 10.0) return std::nan("");
  std::sort(values.begin(), values.end());
  return NearestRank(values, pct);
}

std::vector<double> MediansAcrossPasses(const std::vector<std::vector<double>>& values) {
  size_t requests = 0;
  for (const auto& pass : values) requests = std::max(requests, pass.size());
  std::vector<double> out(requests, std::nan(""));
  for (size_t i = 0; i < requests; ++i) {
    std::vector<double> mine;
    for (const auto& pass : values) {
      if (i < pass.size() && !std::isnan(pass[i])) mine.push_back(pass[i]);
    }
    if (!mine.empty()) out[i] = Median(mine);
  }
  return out;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t count) {
  std::vector<double> due;
  due.reserve(count);
  SplitMix rng(Mix64(seed ^ 0x6f70656e6c6f6f70ULL));
  const double mean_gap_ms = 1000.0 / rate_per_s;
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ms;
    due.push_back(t);
  }
  return due;
}

OpenLoopTiming TimeFromDue(double due_ms, double sent_ms, double done_ms) {
  OpenLoopTiming out;
  out.latency_ms = done_ms - due_ms;
  out.lag_ms = std::max(0.0, sent_ms - due_ms);
  return out;
}

ZipfPicker::ZipfPicker(int n, double skew) : cdf_(static_cast<size_t>(n)) {
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int ZipfPicker::Pick(double uniform) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform);
  return std::min(static_cast<int>(it - cdf_.begin()), size() - 1);
}

double ZipfPicker::Probability(int r) const {
  const size_t i = static_cast<size_t>(r);
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

std::optional<double> GeoMeanRatio(const std::vector<double>& num,
                                   const std::vector<double>& den,
                                   std::string* error) {
  if (num.size() != den.size() || num.empty()) {
    *error = "ratio lists are empty or differ in length";
    return std::nullopt;
  }
  double log_sum = 0.0;
  for (size_t i = 0; i < num.size(); ++i) {
    for (double v : {num[i], den[i]}) {
      if (!std::isfinite(v) || v <= 0.0) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "runtime %g at pair %zu is not a positive finite number",
                      v, i);
        *error = buf;
        return std::nullopt;
      }
    }
    log_sum += std::log(num[i]) - std::log(den[i]);
  }
  return std::exp(log_sum / static_cast<double>(num.size()));
}

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::ThreadIndexLocked() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(threads_.size()));
  return it->second;
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.tid = ThreadIndexLocked();
  span.start_ms = now;
  span.end_ms = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(int64_t id) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = now;
}

int64_t SpanLog::Add(const char* name, int64_t parent, int64_t request,
                     double start_ms, double end_ms) {
  const int64_t id = Begin(name, parent, request);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].start_ms = start_ms;
  spans_[static_cast<size_t>(id)].end_ms = end_ms;
  return id;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_ms * 1000.0,
                 (s.end_ms - s.start_ms) * 1000.0, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> SelfTimesMs(const std::vector<SpanLog::Span>& spans) {
  std::map<int64_t, std::vector<const SpanLog::Span*>> children;
  for (const auto& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    std::vector<std::pair<double, double>> cover;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const auto* c : it->second) {
        const double lo = std::max(c->start_ms, s.start_ms);
        const double hi = std::min(c->end_ms, s.end_ms);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[s.name] += (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

}  // namespace e2e
