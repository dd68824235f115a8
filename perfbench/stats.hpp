// Small numeric helpers shared by the benchmark runner and its self-test:
// order statistics over timing samples and a stable text digest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile of `v` at q in [0, 1] (the "inclusive"
// method: q = 0 is the minimum, q = 1 the maximum). Empty input gives 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// A tail percentile the sample can support: the requested q, lowered until
// at least `min_beyond` samples lie strictly above the reported rank. A
// p95 from 40 samples has 2 samples beyond it and says nothing about the
// tail; this returns the p75 instead and names it.
struct TailPercentile {
  double q = 0.0;       // the percentile actually reported, in [0, 1]
  double value = 0.0;
  std::size_t beyond = 0;  // samples above the reported rank
};

inline TailPercentile tail_percentile(const std::vector<double>& v, double q,
                                      std::size_t min_beyond = 10) {
  TailPercentile t;
  const auto n = static_cast<double>(v.size());
  if (v.size() <= min_beyond) return t;  // no percentile is supported
  t.q = std::min(q, 1.0 - static_cast<double>(min_beyond) / n);
  t.value = quantile(v, t.q);
  t.beyond = v.size() - static_cast<std::size_t>(t.q * (n - 1.0)) - 1;
  return t;
}

// FNV-1a over a text blob; the digest of a run's simulated statistics is
// this hash of their canonical text form, so two commits compare exactly.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] = kDigits[v & 15];
  return s;
}

}  // namespace perfbench
