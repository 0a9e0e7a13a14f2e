#pragma once
// Sample statistics for the benchmark harness.
//
// Percentile rule: a tail percentile is only as good as the samples
// beyond it.  tail_quantile() reports the requested quantile when at
// least kMinBeyond samples lie above it, else the highest quantile that
// still has kMinBeyond samples beyond it (and 0.5 when even the median
// has fewer).  Every reported timing carries its sample count and the
// quantile actually used, so a p96 is never silently labelled p99.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Highest quantile <= `want` with at least kMinBeyond of `n` samples
/// strictly beyond it.  Never below the median.
inline double tail_quantile(std::size_t n, double want) {
  if (n == 0) return 0.5;
  const double supported =
      1.0 - static_cast<double>(kMinBeyond) / static_cast<double>(n);
  return std::max(0.5, std::min(want, supported));
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// A timing summary: median and supported tail, with sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;    ///< value at tail_q
  double tail_q = 0.0;  ///< the quantile actually reported as the tail
  std::size_t chunks = 1;   ///< chunks the tail is the median over
  double window_tail = 0.0; ///< tail over all samples at once
};

inline Summary summarize(std::vector<double> v, double want_tail = 0.99) {
  Summary s;
  s.n = v.size();
  s.tail_q = tail_quantile(s.n, want_tail);
  s.p50 = quantile(v, 0.5);
  s.tail = quantile(v, s.tail_q);
  s.window_tail = s.tail;
  return s;
}

/// Samples per chunk for chunked tails: enough for a p99 with 10 beyond.
inline constexpr std::size_t kChunkSamples = 1000;

/// Like summarize(), but the tail is the median over consecutive chunks
/// (of `in_order`, samples in arrival order) of each chunk's supported
/// tail, so one transient host stall moves one chunk, not the reading.
/// Chunks hold at least kChunkSamples; with fewer than two chunks this is
/// the plain tail.  tail_q is the smallest quantile used in any chunk.
inline Summary summarize_chunked(const std::vector<double>& in_order,
                                 double want_tail = 0.99) {
  Summary s = summarize(in_order, want_tail);
  const std::size_t k = in_order.size() / kChunkSamples;
  if (k < 2) return s;
  std::vector<double> tails;
  double q_min = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t lo = c * in_order.size() / k;
    const std::size_t hi = (c + 1) * in_order.size() / k;
    std::vector<double> chunk(in_order.begin() + static_cast<std::ptrdiff_t>(lo),
                              in_order.begin() + static_cast<std::ptrdiff_t>(hi));
    const double q = tail_quantile(chunk.size(), want_tail);
    q_min = std::min(q_min, q);
    tails.push_back(quantile(chunk, q));
  }
  s.chunks = k;
  s.tail_q = q_min;
  s.tail = median(tails);
  return s;
}

}  // namespace perfbench
