// Copyright 2026 The QPSeeker Authors
//
// Small deterministic hashing helpers. Unlike std::hash, these are fixed
// across platforms and process runs, so values derived from them (fuzzer
// behavior signatures, corpus file names) are stable artifacts that can be
// compared between runs and checked into the repository.

#ifndef QPS_UTIL_HASH_H_
#define QPS_UTIL_HASH_H_

#include <cstdint>
#include <string>

namespace qps {
namespace util {

/// SplitMix64's golden-ratio increment (its Weyl-sequence step).
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 finalizer alone: avalanches every bit of `z`. The one
/// copy behind Mix64, Rng seeding, RetryPolicy jitter and TenantHash.
inline uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One splitmix64 step from state `x`: a cheap, well-distributed mixer.
inline uint64_t Mix64(uint64_t x) { return SplitMix64Finalize(x + kSplitMixGamma); }

/// Folds `value` into a running hash (order-sensitive).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + kSplitMixGamma + (seed << 6) + (seed >> 2)));
}

/// FNV-1a over bytes; stable across platforms.
inline uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashString(const std::string& s, uint64_t seed = 0xcbf29ce484222325ULL) {
  return HashBytes(s.data(), s.size(), seed);
}

}  // namespace util
}  // namespace qps

#endif  // QPS_UTIL_HASH_H_
