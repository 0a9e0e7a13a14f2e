// Cross-cutting property sweeps (parameterized gtest), complementing the
// per-module unit tests with invariants that must hold over whole
// configuration grids.

#include <gtest/gtest.h>

#include <cmath>

#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "dsp/cfar.h"
#include "dsp/fft.h"
#include "human/movements.h"
#include "radar/config.h"
#include "radar/fast_model.h"
#include "util/rng.h"

namespace {

// ------------------------------------------------ radar config monotonics --

class BandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthSweep, RangeResolutionScalesInversely) {
  fuse::radar::RadarConfig cfg = fuse::radar::default_iwr1443_config();
  const double base_res = cfg.range_resolution_m();
  cfg.bandwidth_hz = GetParam();
  // Keep the ADC window inside the (re-derived) ramp.
  const double ratio = 3.5e9 / GetParam();
  EXPECT_NEAR(cfg.range_resolution_m(), base_res * ratio,
              1e-6 + 0.01 * base_res * ratio);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandwidthSweep,
                         ::testing::Values(1.0e9, 2.0e9, 3.5e9, 4.0e9));

class ChirpCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChirpCountSweep, VelocityResolutionScalesInversely) {
  fuse::radar::RadarConfig cfg = fuse::radar::default_iwr1443_config();
  cfg.chirps_per_frame = GetParam();
  // v_res = lambda / (2 N Td): doubling N halves the resolution cell.
  const double expected =
      cfg.wavelength() /
      (2.0 * static_cast<double>(GetParam()) * cfg.doppler_chirp_period_s());
  EXPECT_NEAR(cfg.velocity_resolution_mps(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ChirpCounts, ChirpCountSweep,
                         ::testing::Values(16, 32, 64, 128));

// ------------------------------------------------------- CFAR Pfa sweep ---

class PfaSweep : public ::testing::TestWithParam<double> {};

TEST_P(PfaSweep, EmpiricalFalseAlarmRateTracksDesign) {
  const double pfa = GetParam();
  fuse::util::Rng rng(static_cast<std::uint64_t>(1.0 / pfa));
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, pfa);
  std::size_t alarms = 0, cells = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<float> map(32 * 64);
    for (auto& v : map)
      v = static_cast<float>(-std::log(std::max(1e-12,
                                                1.0 - rng.uniform())));
    alarms += fuse::dsp::ca_cfar_2d(map, 32, 64, cfg).size();
    cells += map.size();
  }
  const double rate = static_cast<double>(alarms) / static_cast<double>(cells);
  // Local-max gating only removes alarms, so rate <= ~Pfa (x3 slack), and
  // it must not collapse to zero for the looser settings.
  EXPECT_LT(rate, 3.0 * pfa + 1e-4);
  if (pfa >= 1e-2) {
    EXPECT_GT(rate, pfa / 20.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, PfaSweep,
                         ::testing::Values(1e-1, 1e-2, 1e-3));

// ----------------------------------------------- dataset label plausibility --

struct SubjectMovement {
  std::size_t subject;
  fuse::human::Movement movement;
};

class DatasetLabelSweep : public ::testing::TestWithParam<SubjectMovement> {};

TEST_P(DatasetLabelSweep, LabelsStayAnatomicallyPlausible) {
  const auto p = GetParam();
  fuse::data::BuilderConfig cfg;
  cfg.frames_per_sequence = 25;
  cfg.subjects = {p.subject};
  cfg.movements = {p.movement};
  const auto ds = fuse::data::build_dataset(cfg);
  const auto subject = fuse::human::make_subject(p.subject);
  for (const auto& f : ds.frames) {
    using fuse::human::Joint;
    // Head stays above the pelvis, everything above the floor, and the
    // whole skeleton within arm's reach of the standing spot.
    EXPECT_GT(f.label[Joint::kHead].z, f.label[Joint::kSpineBase].z - 0.1f);
    for (const auto& j : f.label.joints) {
      // The procedural FK lets a lunging back foot dip slightly below the
      // floor plane (no ground-contact constraint); bound the excursion.
      EXPECT_GT(j.z, -0.20f);
      EXPECT_LT(j.z, subject.body.height + 0.3f);
      EXPECT_NEAR(j.y, subject.style.distance_m, 1.2f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DatasetLabelSweep,
    ::testing::Values(
        SubjectMovement{0, fuse::human::Movement::kSquat},
        SubjectMovement{1, fuse::human::Movement::kLeftFrontLunge},
        SubjectMovement{2, fuse::human::Movement::kRightSideLunge},
        SubjectMovement{3, fuse::human::Movement::kRightLimbExtension},
        SubjectMovement{3, fuse::human::Movement::kBothUpperLimbExtension},
        SubjectMovement{0, fuse::human::Movement::kLeftLimbExtension}));

// --------------------------------------------- fusion/featurizer invariants --

class FusionInvariantSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusionInvariantSweep, FusedInputsAreFiniteAndBounded) {
  const std::size_t m = GetParam();
  fuse::data::BuilderConfig cfg;
  cfg.frames_per_sequence = 20;
  cfg.subjects = {1};
  const auto ds = fuse::data::build_dataset(cfg);
  const fuse::data::FusedDataset fused(ds, m);
  fuse::data::IndexSet all(ds.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  fuse::data::Featurizer feat;
  feat.fit(ds, all);
  const auto x = feat.make_inputs(fused, all);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(x[i]));
    ASSERT_LT(std::fabs(x[i]), 50.0f);  // standardized features stay O(1-10)
  }
  const auto y = feat.make_labels(fused, all);
  for (std::size_t i = 0; i < y.numel(); ++i)
    ASSERT_TRUE(std::isfinite(y[i]));
}

INSTANTIATE_TEST_SUITE_P(Windows, FusionInvariantSweep,
                         ::testing::Values(0, 1, 2, 4));

// ------------------------------------------------ fast model sanity sweep --

class RangeSweep : public ::testing::TestWithParam<float> {};

TEST_P(RangeSweep, DetectionRateFallsWithRange) {
  // Averaged over seeds, a fixed-RCS target is detected less often (or with
  // lower SNR) as it recedes — the radar-equation backbone of the model.
  const float y = GetParam();
  fuse::radar::RadarConfig cfg = fuse::radar::default_iwr1443_config();
  cfg.static_clutter_removal = false;
  fuse::radar::FastModelParams params;
  params.fade_probability = 0.0;
  const fuse::radar::FastPointCloudModel model(cfg, params);
  double snr_acc = 0.0;
  int hits = 0;
  for (int i = 0; i < 40; ++i) {
    fuse::util::Rng rng(1000 + i);
    fuse::radar::Scene scene = {{{0.0f, y, 0.0f}, {}, 0.01f}};
    const auto cloud = model.generate(scene, rng);
    if (!cloud.empty()) {
      snr_acc += cloud.points.front().intensity;
      ++hits;
    }
  }
  if (hits > 0) {
    const double mean_snr = snr_acc / hits;
    // SNR(dB) should be within a few dB of the r^-4 law prediction
    // relative to the 2 m anchor (~27 dB for rcs 0.01 at k = 1e6).
    const double predicted =
        10.0 * std::log10(1e6 * 0.01 / std::pow(static_cast<double>(y), 4));
    EXPECT_NEAR(mean_snr, predicted, 4.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RangeSweep,
                         ::testing::Values(1.5f, 2.0f, 3.0f, 4.5f));

}  // namespace
