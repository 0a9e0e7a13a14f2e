#pragma once
// FFT kernels for the FMCW radar signal chain.
//
// The radar pipeline runs three FFT passes per frame (range, Doppler, angle),
// exactly as the TI mmWave SDK does on the IWR1443's hardware accelerator.
// We provide an iterative radix-2 Cooley-Tukey transform for power-of-two
// sizes plus a naive DFT used as a reference oracle in tests.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace fuse::dsp {

using cfloat = std::complex<float>;

/// Returns the smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// In-place iterative radix-2 FFT.  data.size() must be a power of two.
/// inverse=true computes the unscaled inverse transform; divide by N applied
/// internally so fft(ifft(x)) == x.
void fft_inplace(std::vector<cfloat>& data, bool inverse = false);

/// Out-of-place FFT; input is zero-padded to the next power of two.
std::vector<cfloat> fft(std::span<const cfloat> input, bool inverse = false);

/// Preallocated-out FFT: sizes `out` to the next power of two (reusing its
/// capacity — a steady-shape caller pays zero allocations after the first
/// call, instead of the copy + resize double allocation of the returning
/// overload), copies the zero-padded input into it and transforms in
/// place.  `out` must not alias `input`.
void fft(std::span<const cfloat> input, std::vector<cfloat>& out,
         bool inverse = false);

/// Reference O(N^2) DFT used as a correctness oracle in tests.
std::vector<cfloat> dft_reference(std::span<const cfloat> input,
                                  bool inverse = false);

/// Swaps the two halves of a spectrum so bin 0 moves to the centre
/// (matplotlib/NumPy fftshift semantics; works for odd sizes too).
template <typename T>
void fftshift(std::vector<T>& v) {
  const std::size_t n = v.size();
  if (n < 2) return;
  std::vector<T> out(n);
  const std::size_t half = (n + 1) / 2;  // first half length
  for (std::size_t i = 0; i < n - half; ++i) out[i] = v[half + i];
  for (std::size_t i = 0; i < half; ++i) out[n - half + i] = v[i];
  v = std::move(out);
}

/// Parabolic interpolation of a spectral peak: given bin k with neighbours,
/// returns the fractional bin offset in [-0.5, 0.5] of the true maximum.
float parabolic_peak_offset(float left, float centre, float right);

}  // namespace fuse::dsp
