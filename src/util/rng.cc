// Copyright 2026 The QPSeeker Authors

#include "util/rng.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace qps {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = util::SplitMix64Finalize(sm += util::kSplitMixGamma);
  have_cached_normal_ = false;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  // Fatal in all build modes: sampling an empty distribution would read out
  // of bounds below.
  QPS_CHECK(!weights.empty()) << "Rng::Categorical over empty weights";
  double total = 0.0;
  for (double w : weights) total += w;
  double x = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n) {
  QPS_CHECK(n > 0) << "ZipfDistribution needs at least one rank";
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_[k - 1] = total;
  }
  for (auto& c : cdf_) c /= total;
}

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

}  // namespace qps
