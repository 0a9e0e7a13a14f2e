// Tests for the DSP kernels: FFT against the O(N^2) DFT oracle, window
// functions, fftshift, spectral-peak interpolation, the plan-based batched
// FFT (property tests + bit-identity against fft_inplace), and the CFAR
// detectors — including exact equivalence of the prefix-sum detectors
// against the reference implementations across edge configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "dsp/cfar.h"
#include "dsp/fft.h"
#include "dsp/plan.h"
#include "dsp/window.h"
#include "util/rng.h"

namespace {

using fuse::dsp::cfloat;

std::vector<cfloat> random_signal(std::size_t n, std::uint64_t seed) {
  fuse::util::Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
  return v;
}

void split(const std::vector<cfloat>& v, std::vector<float>& re,
           std::vector<float>& im) {
  re.resize(v.size());
  im.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    re[i] = v[i].real();
    im[i] = v[i].imag();
  }
}

// ------------------------------------------------------------------- FFT --

TEST(Fft, NextPow2) {
  EXPECT_EQ(fuse::dsp::next_pow2(1), 1u);
  EXPECT_EQ(fuse::dsp::next_pow2(2), 2u);
  EXPECT_EQ(fuse::dsp::next_pow2(3), 4u);
  EXPECT_EQ(fuse::dsp::next_pow2(64), 64u);
  EXPECT_EQ(fuse::dsp::next_pow2(65), 128u);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(fuse::dsp::is_pow2(1));
  EXPECT_TRUE(fuse::dsp::is_pow2(256));
  EXPECT_FALSE(fuse::dsp::is_pow2(0));
  EXPECT_FALSE(fuse::dsp::is_pow2(48));
}

TEST(Fft, NonPow2Throws) {
  std::vector<cfloat> v(6);
  EXPECT_THROW(fuse::dsp::fft_inplace(v), std::invalid_argument);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cfloat> v(16);
  v[0] = {1.0f, 0.0f};
  fuse::dsp::fft_inplace(v);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(x.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  std::vector<cfloat> v(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = 2.0 * M_PI * static_cast<double>(k0 * t) / n;
    v[t] = {static_cast<float>(std::cos(ang)),
            static_cast<float>(std::sin(ang))};
  }
  fuse::dsp::fft_inplace(v);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(v[k]), static_cast<float>(n), 1e-3f);
    } else {
      EXPECT_NEAR(std::abs(v[k]), 0.0f, 1e-3f);
    }
  }
}

class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  fuse::util::Rng rng(n);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
  const auto ref = fuse::dsp::dft_reference(v);
  auto got = v;
  fuse::dsp::fft_inplace(got);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), ref[k].real(), 1e-3f * static_cast<float>(n));
    EXPECT_NEAR(got[k].imag(), ref[k].imag(), 1e-3f * static_cast<float>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsDft,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  fuse::util::Rng rng(3 * n + 1);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
  auto w = v;
  fuse::dsp::fft_inplace(w, false);
  fuse::dsp::fft_inplace(w, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w[i].real(), v[i].real(), 1e-4f);
    EXPECT_NEAR(w[i].imag(), v[i].imag(), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 8, 64, 512));

TEST(Fft, ParsevalEnergyConservation) {
  const std::size_t n = 128;
  fuse::util::Rng rng(99);
  std::vector<cfloat> v(n);
  double time_energy = 0.0;
  for (auto& x : v) {
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
    time_energy += std::norm(x);
  }
  fuse::dsp::fft_inplace(v);
  double freq_energy = 0.0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy);
}

TEST(Fft, ZeroPaddingInFreeFunction) {
  std::vector<cfloat> v(48, cfloat{1.0f, 0.0f});
  const auto out = fuse::dsp::fft(v);
  EXPECT_EQ(out.size(), 64u);
}

TEST(Fft, FftshiftEven) {
  std::vector<int> v = {0, 1, 2, 3};
  fuse::dsp::fftshift(v);
  EXPECT_EQ(v, (std::vector<int>{2, 3, 0, 1}));
}

TEST(Fft, FftshiftOdd) {
  std::vector<int> v = {0, 1, 2, 3, 4};
  fuse::dsp::fftshift(v);
  EXPECT_EQ(v, (std::vector<int>{3, 4, 0, 1, 2}));
}

TEST(Fft, ParabolicPeakOffsetExactForParabola) {
  // Samples of y = 1 - (x - 0.3)^2 at x = -1, 0, 1.
  const float d = 0.3f;
  const auto y = [d](float x) { return 1.0f - (x - d) * (x - d); };
  EXPECT_NEAR(fuse::dsp::parabolic_peak_offset(y(-1), y(0), y(1)), d, 1e-5f);
}

TEST(Fft, ParabolicPeakOffsetClamped) {
  EXPECT_LE(std::fabs(fuse::dsp::parabolic_peak_offset(0.0f, 0.0f, 0.0f)),
            0.5f);
  EXPECT_LE(std::fabs(fuse::dsp::parabolic_peak_offset(1.0f, 1.0f, 1.01f)),
            0.5f);
}

// --------------------------------------------------------------- FftPlan --

// All power-of-two sizes a RadarConfig can reach on this codebase's
// configurations (range 256, Doppler 64, angle 64) plus the degenerate
// small sizes.
class FftPlanSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanSweep, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto v = random_signal(n, 7 * n + 1);
  const auto ref = fuse::dsp::dft_reference(v);
  std::vector<float> re, im;
  split(v, re, im);
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(re[k], ref[k].real(), 1e-3f * static_cast<float>(n));
    EXPECT_NEAR(im[k], ref[k].imag(), 1e-3f * static_cast<float>(n));
  }
}

TEST_P(FftPlanSweep, BitIdenticalToFftInplace) {
  const std::size_t n = GetParam();
  const auto v = random_signal(n, 13 * n + 5);
  for (const bool inverse : {false, true}) {
    auto oracle = v;
    fuse::dsp::fft_inplace(oracle, inverse);
    std::vector<float> re, im;
    split(v, re, im);
    fuse::dsp::FftPlan plan(n);
    plan.execute(re.data(), im.data(), inverse);
    for (std::size_t k = 0; k < n; ++k) {
      // Exact float equality: the plan must reproduce the legacy rounding
      // bit for bit (shared twiddle recurrence + identical butterflies).
      EXPECT_EQ(re[k], oracle[k].real()) << "n=" << n << " k=" << k;
      EXPECT_EQ(im[k], oracle[k].imag()) << "n=" << n << " k=" << k;
    }
  }
}

TEST_P(FftPlanSweep, RoundTripForwardInverse) {
  const std::size_t n = GetParam();
  const auto v = random_signal(n, 3 * n + 11);
  std::vector<float> re, im;
  split(v, re, im);
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data(), false);
  plan.execute(re.data(), im.data(), true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(re[i], v[i].real(), 1e-4f);
    EXPECT_NEAR(im[i], v[i].imag(), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPlanSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512));

TEST(FftPlan, NonPow2Throws) {
  EXPECT_THROW(fuse::dsp::FftPlan(6), std::invalid_argument);
  EXPECT_THROW(fuse::dsp::FftPlan(0), std::invalid_argument);
}

TEST(FftPlan, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 64;
  std::vector<float> re(n, 0.0f), im(n, 0.0f);
  re[0] = 1.0f;
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(re[k], 1.0f, 1e-5f);
    EXPECT_NEAR(im[k], 0.0f, 1e-5f);
  }
}

TEST(FftPlan, Linearity) {
  const std::size_t n = 128;
  const auto a = random_signal(n, 21);
  const auto b = random_signal(n, 22);
  std::vector<cfloat> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = a[i] + 2.0f * b[i];
  fuse::dsp::FftPlan plan(n);
  std::vector<float> are, aim, bre, bim, sre, sim;
  split(a, are, aim);
  split(b, bre, bim);
  split(sum, sre, sim);
  plan.execute(are.data(), aim.data());
  plan.execute(bre.data(), bim.data());
  plan.execute(sre.data(), sim.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(sre[k], are[k] + 2.0f * bre[k], 2e-4f * n);
    EXPECT_NEAR(sim[k], aim[k] + 2.0f * bim[k], 2e-4f * n);
  }
}

TEST(FftPlan, ParsevalEnergyConservation) {
  const std::size_t n = 256;
  const auto v = random_signal(n, 77);
  double time_energy = 0.0;
  for (const auto& x : v) time_energy += std::norm(x);
  std::vector<float> re, im;
  split(v, re, im);
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data());
  double freq_energy = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    freq_energy += static_cast<double>(re[k]) * re[k] +
                   static_cast<double>(im[k]) * im[k];
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy);
}

TEST(FftPlan, ScatterLoadFusesWindowPadAndPermutation) {
  // scatter_load + execute_loaded_many must equal windowing, zero-padding
  // and fft_inplace done by hand — bit for bit.
  const std::size_t count = 48, n = 64;
  const auto v = random_signal(count, 99);
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kHann, count);

  std::vector<cfloat> oracle(v.begin(), v.end());
  for (std::size_t s = 0; s < count; ++s) oracle[s] *= w[s];
  oracle.resize(n);
  fuse::dsp::fft_inplace(oracle);

  fuse::dsp::FftPlan plan(n);
  std::vector<float> re(n), im(n);
  plan.scatter_load(v.data(), count, w.data(), re.data(), im.data());
  plan.execute_loaded_many(re.data(), im.data(), 1);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(re[k], oracle[k].real());
    EXPECT_EQ(im[k], oracle[k].imag());
  }
}

TEST(FftPlan, ExecuteManyEqualsPerRow) {
  const std::size_t n = 32, rows = 5;
  fuse::dsp::FftPlan plan(n);
  std::vector<float> re(rows * n), im(rows * n);
  std::vector<std::vector<float>> ref_re(rows), ref_im(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto v = random_signal(n, 1000 + r);
    split(v, ref_re[r], ref_im[r]);
    std::copy(ref_re[r].begin(), ref_re[r].end(), re.begin() + r * n);
    std::copy(ref_im[r].begin(), ref_im[r].end(), im.begin() + r * n);
    plan.execute(ref_re[r].data(), ref_im[r].data());
  }
  plan.execute_many(re.data(), im.data(), rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(re[r * n + k], ref_re[r][k]);
      EXPECT_EQ(im[r * n + k], ref_im[r][k]);
    }
}

TEST(FftPlan, ScatterLoadCountBeyondSizeThrows) {
  fuse::dsp::FftPlan plan(8);
  const auto v = random_signal(9, 5);
  std::vector<float> re(8), im(8);
  EXPECT_THROW(plan.scatter_load(v.data(), 9, nullptr, re.data(), im.data()),
               std::invalid_argument);
}

TEST(Fft, PreallocatedOutMatchesReturningOverload) {
  const auto v = random_signal(48, 31);
  const auto ref = fuse::dsp::fft(v);
  std::vector<cfloat> out;
  fuse::dsp::fft(v, out);
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t k = 0; k < out.size(); ++k) EXPECT_EQ(out[k], ref[k]);

  // Steady-shape reuse: the second call must not reallocate.
  const cfloat* data_before = out.data();
  fuse::dsp::fft(v, out, true);
  EXPECT_EQ(out.data(), data_before);
  EXPECT_EQ(out.size(), 64u);
}

// --------------------------------------------------------------- windows --

class WindowSweep : public ::testing::TestWithParam<fuse::dsp::WindowType> {};

TEST_P(WindowSweep, SymmetricAndBounded) {
  const auto w = fuse::dsp::make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-6f);
    EXPECT_LE(w[i], 1.0f + 1e-6f);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-5f) << "asymmetric at " << i;
  }
}

TEST_P(WindowSweep, CoherentGainPositive) {
  const auto w = fuse::dsp::make_window(GetParam(), 64);
  const float g = fuse::dsp::coherent_gain(w);
  EXPECT_GT(g, 0.0f);
  EXPECT_LE(g, 1.0f + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WindowSweep,
                         ::testing::Values(fuse::dsp::WindowType::kRect,
                                           fuse::dsp::WindowType::kHann,
                                           fuse::dsp::WindowType::kHamming,
                                           fuse::dsp::WindowType::kBlackman));

TEST(Window, HannEndpointsAreZero) {
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kHann, 32);
  EXPECT_NEAR(w.front(), 0.0f, 1e-6f);
  EXPECT_NEAR(w.back(), 0.0f, 1e-6f);
}

TEST(Window, RectIsAllOnes) {
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kRect, 16);
  for (const float v : w) EXPECT_EQ(v, 1.0f);
}

TEST(Window, ApplyWindowMismatchThrows) {
  std::vector<float> data(8, 1.0f);
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kHann, 16);
  EXPECT_THROW(fuse::dsp::apply_window(data, w), std::invalid_argument);
}

// ------------------------------------------------------------------ CFAR --

TEST(Cfar, ScaleForPfaSanity) {
  // More training cells -> smaller multiplier for the same Pfa; smaller Pfa
  // -> larger multiplier.
  const float s16 = fuse::dsp::cfar_scale_for_pfa(16, 1e-4);
  const float s32 = fuse::dsp::cfar_scale_for_pfa(32, 1e-4);
  const float s16_tight = fuse::dsp::cfar_scale_for_pfa(16, 1e-6);
  EXPECT_GT(s16, s32);
  EXPECT_GT(s16_tight, s16);
  EXPECT_THROW(fuse::dsp::cfar_scale_for_pfa(0, 1e-4), std::invalid_argument);
  EXPECT_THROW(fuse::dsp::cfar_scale_for_pfa(8, 1.5), std::invalid_argument);
}

std::vector<float> noise_map(std::size_t n_range, std::size_t n_doppler,
                             fuse::util::Rng& rng) {
  // Exponentially distributed power (square-law detected Gaussian noise).
  std::vector<float> p(n_range * n_doppler);
  for (auto& v : p) v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  return p;
}

TEST(Cfar, FalseAlarmRateIsControlled) {
  // Pure noise: the empirical false-alarm rate should be near the design
  // Pfa (local-max gating only reduces it).
  fuse::util::Rng rng(11);
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-2);
  std::size_t alarms = 0, cells = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto map = noise_map(32, 64, rng);
    alarms += fuse::dsp::ca_cfar_2d(map, 32, 64, cfg).size();
    cells += map.size();
  }
  const double rate = static_cast<double>(alarms) / static_cast<double>(cells);
  EXPECT_LT(rate, 3e-2);  // not wildly above design
  EXPECT_GT(rate, 1e-4);  // not degenerate either
}

TEST(Cfar, WeakTargetBelowThresholdIgnored) {
  fuse::util::Rng rng(13);
  const std::size_t nr = 16, nd = 64;
  auto map = noise_map(nr, nd, rng);
  map[5 * nd + 30] = 1.5f;  // barely above mean noise
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-6);
  for (const auto& d : fuse::dsp::ca_cfar_2d(map, nr, nd, cfg))
    EXPECT_FALSE(d.row == 5 && d.col == 30);
}

TEST(Cfar, SnrReported) {
  const std::size_t nr = 8, nd = 64;
  std::vector<float> map(nr * nd, 1.0f);
  map[4 * nd + 32] = 100.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = 8.0f;
  const auto dets = fuse::dsp::ca_cfar_2d(map, nr, nd, cfg);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].row, 4u);
  EXPECT_EQ(dets[0].col, 32u);
  EXPECT_EQ(dets[0].power, 100.0f);
  EXPECT_NEAR(dets[0].snr, 100.0f, 1.0f);
}

TEST(Cfar, TwoDimensionalDetectsTargetAndPosition) {
  const std::size_t nr = 64, nd = 32;
  fuse::util::Rng rng(17);
  std::vector<float> map(nr * nd);
  for (auto& v : map)
    v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  map[20 * nd + 10] = 500.0f;
  map[45 * nd + 3] = 300.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-3);
  const auto dets = fuse::dsp::ca_cfar_2d(map, nr, nd, cfg);
  bool t1 = false, t2 = false;
  for (const auto& d : dets) {
    t1 |= d.row == 20 && d.col == 10;
    t2 |= d.row == 45 && d.col == 3;
  }
  EXPECT_TRUE(t1);
  EXPECT_TRUE(t2);
}

TEST(Cfar, TwoDimensionalMapSizeMismatchThrows) {
  std::vector<float> map(10);
  fuse::dsp::CfarConfig cfg;
  EXPECT_THROW(fuse::dsp::ca_cfar_2d(map, 4, 4, cfg), std::invalid_argument);
}

TEST(Cfar, TwoDimensionalEmitsSinglePeakPerTarget) {
  // A target smeared over a 2-cell plateau must yield exactly one detection
  // (the local-max tie-breaking rule).
  const std::size_t nr = 32, nd = 16;
  std::vector<float> map(nr * nd, 1.0f);
  map[10 * nd + 8] = 200.0f;
  map[10 * nd + 9] = 200.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = 10.0f;
  const auto dets = fuse::dsp::ca_cfar_2d(map, nr, nd, cfg);
  EXPECT_EQ(dets.size(), 1u);
}

// ------------------------------------- prefix-sum CFAR vs reference -------

void expect_same_detections(const std::vector<fuse::dsp::Detection2d>& ref,
                            const std::vector<fuse::dsp::Detection2d>& got,
                            const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].row, ref[i].row) << what << " det " << i;
    EXPECT_EQ(got[i].col, ref[i].col) << what << " det " << i;
    EXPECT_EQ(got[i].power, ref[i].power) << what << " det " << i;
    EXPECT_FLOAT_EQ(got[i].snr, ref[i].snr) << what << " det " << i;
  }
}

TEST(CfarEquivalence, TwoDimensionalAcrossShapes) {
  fuse::util::Rng rng(31);
  const struct {
    std::size_t nr, nd, guard, train;
  } shapes[] = {{64, 32, 2, 8}, {16, 4, 2, 8},  {8, 2, 1, 4},
                {1, 8, 2, 8},   {5, 1, 2, 8},   {32, 16, 0, 1},
                {4, 4, 3, 9},   {64, 32, 2, 0}};
  for (const auto& sh : shapes) {
    std::vector<float> map(sh.nr * sh.nd);
    for (auto& v : map)
      v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
    if (sh.nr > 2 && sh.nd > 2) {
      map[(sh.nr / 3) * sh.nd + sh.nd / 2] = 400.0f;
      map[(sh.nr - 1) * sh.nd + 0] = 300.0f;  // Doppler bin 0: wrapped window
    }
    fuse::dsp::CfarConfig cfg;
    cfg.guard_cells = sh.guard;
    cfg.train_cells = sh.train;
    cfg.threshold_scale = 4.0f;
    expect_same_detections(fuse::dsp::ca_cfar_2d_reference(map, sh.nr, sh.nd,
                                                           cfg),
                           fuse::dsp::ca_cfar_2d(map, sh.nr, sh.nd, cfg),
                           "2d");
  }
}

TEST(CfarEquivalence, TwoDimensionalDopplerWindowWrapsFullCircle) {
  // guard + train far beyond n_doppler: the circular window laps the ring
  // and revisits cells — the prefix path must count laps exactly like the
  // reference's repeated adds.
  fuse::util::Rng rng(37);
  const std::size_t nr = 8, nd = 4;
  std::vector<float> map(nr * nd);
  for (auto& v : map) v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  map[3 * nd + 1] = 200.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.guard_cells = 2;
  cfg.train_cells = 11;  // window spans 2 * 11 cells on a 4-cell ring
  cfg.threshold_scale = 3.0f;
  expect_same_detections(fuse::dsp::ca_cfar_2d_reference(map, nr, nd, cfg),
                         fuse::dsp::ca_cfar_2d(map, nr, nd, cfg), "wrap");
}

TEST(CfarEquivalence, TwoDimensionalAllZeroMap) {
  std::vector<float> map(32 * 16, 0.0f);
  fuse::dsp::CfarConfig cfg;
  EXPECT_TRUE(fuse::dsp::ca_cfar_2d(map, 32, 16, cfg).empty());
  EXPECT_TRUE(fuse::dsp::ca_cfar_2d_reference(map, 32, 16, cfg).empty());
}

TEST(CfarEquivalence, ScratchReuseIsAllocationFree) {
  fuse::util::Rng rng(41);
  std::vector<float> map(64 * 32);
  for (auto& v : map) v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  fuse::dsp::CfarConfig cfg;
  fuse::dsp::CfarScratch scratch;
  std::vector<fuse::dsp::Detection2d> dets;
  fuse::dsp::ca_cfar_2d(map, 64, 32, cfg, scratch, dets);
  const std::size_t grows = scratch.grow_events;
  for (int i = 0; i < 5; ++i)
    fuse::dsp::ca_cfar_2d(map, 64, 32, cfg, scratch, dets);
  EXPECT_EQ(scratch.grow_events, grows);
}

}  // namespace
