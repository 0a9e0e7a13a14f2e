#include "dsp/window.h"

#include <cmath>
#include <stdexcept>

namespace fuse::dsp {

namespace {
constexpr double kTau = 6.283185307179586476925286766559;
}

std::vector<float> make_window(WindowType type, std::size_t n) {
  std::vector<float> w(n, 1.0f);
  if (n <= 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / denom;
    double v = 1.0;
    switch (type) {
      case WindowType::kRect:
        v = 1.0;
        break;
      case WindowType::kHann:
        v = 0.5 - 0.5 * std::cos(kTau * t);
        break;
      case WindowType::kHamming:
        v = 0.54 - 0.46 * std::cos(kTau * t);
        break;
      case WindowType::kBlackman:
        v = 0.42 - 0.5 * std::cos(kTau * t) + 0.08 * std::cos(2.0 * kTau * t);
        break;
    }
    w[i] = static_cast<float>(v);
  }
  return w;
}

void apply_window(std::span<float> data, std::span<const float> window) {
  if (data.size() != window.size())
    throw std::invalid_argument("apply_window: size mismatch");
  for (std::size_t i = 0; i < data.size(); ++i) data[i] *= window[i];
}

float coherent_gain(std::span<const float> window) {
  if (window.empty()) return 1.0f;
  double acc = 0.0;
  for (const float v : window) acc += v;
  return static_cast<float>(acc / static_cast<double>(window.size()));
}

}  // namespace fuse::dsp
