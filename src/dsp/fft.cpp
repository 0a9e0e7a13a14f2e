#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fuse::dsp {

namespace {
constexpr double kTau = 6.283185307179586476925286766559;
}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_inplace(std::vector<cfloat>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0) return;
  if (!is_pow2(n))
    throw std::invalid_argument("fft_inplace: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? kTau : -kTau) / static_cast<double>(len);
    const cfloat wlen(static_cast<float>(std::cos(ang)),
                      static_cast<float>(std::sin(ang)));
    for (std::size_t i = 0; i < n; i += len) {
      cfloat w(1.0f, 0.0f);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cfloat u = data[i + j];
        const cfloat v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const float inv = 1.0f / static_cast<float>(n);
    for (auto& x : data) x *= inv;
  }
}

void fft(std::span<const cfloat> input, std::vector<cfloat>& out,
         bool inverse) {
  const std::size_t n = next_pow2(std::max<std::size_t>(1, input.size()));
  out.resize(n);
  std::copy(input.begin(), input.end(), out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(input.size()),
            out.end(), cfloat{});
  fft_inplace(out, inverse);
}

std::vector<cfloat> fft(std::span<const cfloat> input, bool inverse) {
  std::vector<cfloat> out;
  fft(input, out, inverse);
  return out;
}

std::vector<cfloat> dft_reference(std::span<const cfloat> input,
                                  bool inverse) {
  const std::size_t n = input.size();
  std::vector<cfloat> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = (inverse ? kTau : -kTau) * static_cast<double>(k) *
                         static_cast<double>(t) / static_cast<double>(n);
      const std::complex<double> w(std::cos(ang), std::sin(ang));
      acc += std::complex<double>(input[t]) * w;
    }
    if (inverse) acc /= static_cast<double>(n);
    out[k] = cfloat(static_cast<float>(acc.real()),
                    static_cast<float>(acc.imag()));
  }
  return out;
}

float parabolic_peak_offset(float left, float centre, float right) {
  const float denom = left - 2.0f * centre + right;
  if (std::fabs(denom) < 1e-12f) return 0.0f;
  float d = 0.5f * (left - right) / denom;
  if (d > 0.5f) d = 0.5f;
  if (d < -0.5f) d = -0.5f;
  return d;
}

}  // namespace fuse::dsp
