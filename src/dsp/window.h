#pragma once
// Window functions applied before the range and Doppler FFTs to control
// spectral leakage (the TI mmWave demo uses a Hann window on range and a
// Hamming window on Doppler by default).

#include <cstddef>
#include <span>
#include <vector>

namespace fuse::dsp {

enum class WindowType { kRect, kHann, kHamming, kBlackman };

/// Returns the n window coefficients.
std::vector<float> make_window(WindowType type, std::size_t n);

/// Multiplies data elementwise by the window (sizes must match).
void apply_window(std::span<float> data, std::span<const float> window);

/// Coherent gain of a window (mean coefficient) — used to normalise
/// amplitudes after windowed FFTs.
float coherent_gain(std::span<const float> window);

}  // namespace fuse::dsp
