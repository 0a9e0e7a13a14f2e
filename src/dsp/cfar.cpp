#include "dsp/cfar.h"

#include <cmath>
#include <stdexcept>

namespace fuse::dsp {

float cfar_scale_for_pfa(std::size_t n_train, double pfa) {
  if (n_train == 0 || pfa <= 0.0 || pfa >= 1.0)
    throw std::invalid_argument("cfar_scale_for_pfa: bad arguments");
  const double n = static_cast<double>(n_train);
  return static_cast<float>(n * (std::pow(pfa, -1.0 / n) - 1.0));
}

namespace {

/// Sum over the circular segment [start, start + len) of a ring of size n
/// whose prefix sums are in `pref` (pref[j] = sum of the first j cells,
/// pref[n] = total).  len may exceed n: full laps contribute laps * total,
/// exactly like the reference detector revisiting cells.
double circular_segment_sum(const double* pref, std::size_t n,
                            std::size_t start, std::size_t len) {
  double acc = 0.0;
  if (len >= n) {
    acc += static_cast<double>(len / n) * pref[n];
    len %= n;
  }
  const std::size_t end = start + len;
  if (end <= n) return acc + (pref[end] - pref[start]);
  return acc + (pref[n] - pref[start]) + pref[end - n];
}

/// Doppler-neighbour local-maximum gate shared by both implementations
/// (comparisons only — no arithmetic, so it cannot perturb bit-identity).
/// The CUT must not be below either circular neighbour on its row, and a
/// tie with the next bin defers to that bin, so a plateau yields one peak.
bool is_doppler_peak(const float* row, std::size_t n_doppler, std::size_t d,
                     float cut) {
  const float prev = row[(d + n_doppler - 1) % n_doppler];
  const float next = row[(d + 1) % n_doppler];
  return !(prev > cut) && !(next >= cut);
}

}  // namespace

void ca_cfar_2d(std::span<const float> power_map, std::size_t n_range,
                std::size_t n_doppler, const CfarConfig& cfg,
                CfarScratch& scratch, std::vector<Detection2d>& out) {
  if (power_map.size() != n_range * n_doppler)
    throw std::invalid_argument("ca_cfar_2d: map size mismatch");
  out.clear();
  const std::size_t g = cfg.guard_cells, t = cfg.train_cells;
  if (t == 0) return;  // no training cells -> the reference never detects
  const std::size_t cnt_d = 2 * t;  // Doppler window wraps: never clipped

  if (scratch.prefix.capacity() < n_doppler + 1) ++scratch.grow_events;
  scratch.prefix.resize(n_doppler + 1);
  double* rp = scratch.prefix.data();

  // The Doppler training window covers offsets +-(g+1 .. g+t) around the
  // CUT, i.e. two circular segments of t cells starting at d + g + 1 and
  // d - g - t (mod n_doppler).
  const std::size_t right_off = n_doppler ? (g + 1) % n_doppler : 0;
  const std::size_t left_off =
      n_doppler ? (n_doppler - (g + t) % n_doppler) % n_doppler : 0;

  for (std::size_t r = 0; r < n_range; ++r) {
    const float* row = power_map.data() + r * n_doppler;
    rp[0] = 0.0;
    for (std::size_t d = 0; d < n_doppler; ++d) rp[d + 1] = rp[d] + row[d];

    for (std::size_t d = 0; d < n_doppler; ++d) {
      const float cut = row[d];
      if (cut <= 0.0f) continue;

      const double acc =
          circular_segment_sum(rp, n_doppler, (d + right_off) % n_doppler,
                               t) +
          circular_segment_sum(rp, n_doppler, (d + left_off) % n_doppler, t);
      const float noise = static_cast<float>(acc / static_cast<double>(cnt_d));
      if (cut <= cfg.threshold_scale * noise) continue;
      if (!is_doppler_peak(row, n_doppler, d, cut)) continue;

      out.push_back({r, d, cut, noise > 0.0f ? cut / noise : 0.0f});
    }
  }
}

std::vector<Detection2d> ca_cfar_2d(std::span<const float> power_map,
                                    std::size_t n_range,
                                    std::size_t n_doppler,
                                    const CfarConfig& cfg) {
  CfarScratch scratch;
  std::vector<Detection2d> out;
  ca_cfar_2d(power_map, n_range, n_doppler, cfg, scratch, out);
  return out;
}

std::vector<Detection2d> ca_cfar_2d_reference(std::span<const float> power_map,
                                              std::size_t n_range,
                                              std::size_t n_doppler,
                                              const CfarConfig& cfg) {
  if (power_map.size() != n_range * n_doppler)
    throw std::invalid_argument("ca_cfar_2d: map size mismatch");
  std::vector<Detection2d> out;

  for (std::size_t r = 0; r < n_range; ++r) {
    const float* row = power_map.data() + r * n_doppler;
    for (std::size_t d = 0; d < n_doppler; ++d) {
      const float cut = row[d];
      if (cut <= 0.0f) continue;

      // Doppler-axis training window (wraps: Doppler spectrum is circular).
      double acc = 0.0;
      std::size_t cnt = 0;
      for (std::size_t k = 1; k <= cfg.train_cells; ++k) {
        const std::size_t off = (cfg.guard_cells + k) % n_doppler;
        acc += row[(d + off) % n_doppler];
        acc += row[(d + n_doppler - off) % n_doppler];
        cnt += 2;
      }
      if (cnt == 0) continue;
      const float noise = static_cast<float>(acc / cnt);
      if (cut <= cfg.threshold_scale * noise) continue;
      if (!is_doppler_peak(row, n_doppler, d, cut)) continue;

      out.push_back({r, d, cut, noise > 0.0f ? cut / noise : 0.0f});
    }
  }
  return out;
}

}  // namespace fuse::dsp
