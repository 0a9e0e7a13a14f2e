#pragma once
// Constant false alarm rate (CFAR) detection on the range-Doppler map.
//
// The IWR1443 firmware runs CFAR on the range-Doppler map to pick out real
// reflections against thermal noise.  This is the one detector the radar
// point-cloud pipeline runs: 2-D cell-averaging CFAR with a circular
// Doppler-axis training window and Doppler-neighbour local-maximum gating.
// Training runs along Doppler only because an extended body occupies many
// contiguous range bins: range-axis training cells would be contaminated by
// the body itself and suppress most of its cells.

#include <cstddef>
#include <span>
#include <vector>

namespace fuse::dsp {

struct CfarConfig {
  std::size_t guard_cells = 2;  ///< guard cells on each side of the CUT
  std::size_t train_cells = 8;  ///< training cells on each side
  /// Scaling of the noise estimate; threshold = scale * mean(train cells).
  /// For CA-CFAR with N training cells and desired false-alarm rate Pfa,
  /// scale = N * (Pfa^(-1/N) - 1); see cfar_scale_for_pfa().
  float threshold_scale = 8.0f;
};

/// Computes the CA-CFAR threshold multiplier achieving false-alarm
/// probability pfa with n training cells (square-law detector).
float cfar_scale_for_pfa(std::size_t n_train, double pfa);

/// Reusable scratch for the prefix-sum detector: the per-row prefix table
/// is rebuilt in place every row, so steady-shape call sequences never
/// allocate.  `grow_events` counts buffer growths (capacity increases) —
/// a steady-state frame loop must leave it unchanged.
struct CfarScratch {
  std::vector<double> prefix;  ///< per-row Doppler prefix sums
  std::size_t grow_events = 0;
};

struct Detection2d {
  std::size_t row = 0;  ///< range bin
  std::size_t col = 0;  ///< Doppler bin
  float power = 0.0f;
  float snr = 0.0f;
};

/// 2-D cell-averaging CFAR over a range-Doppler power map (row-major
/// [n_range, n_doppler]).  The cell under test (CUT) must exceed
/// threshold_scale times the mean of its Doppler-axis training cells,
/// offsets +-(guard+1 .. guard+train) around it.  The Doppler spectrum is
/// circular, so the window wraps and is never clipped.  A passing cell is
/// emitted only if it is a maximum along Doppler (a tie with the next bin
/// defers to it), which dedupes Doppler mainlobe smearing while keeping
/// extended-range bodies intact.
///
/// Each row's window sums come from a sliding prefix-sum table, so the
/// noise estimate is O(1) per cell.  When guard+train exceeds n_doppler
/// the window laps the ring and counts cells several times, just like the
/// reference.  Detection sets are bit-identical to ca_cfar_2d_reference()
/// whenever the window sums are exactly representable in double (always
/// the case for realistic power maps; the equivalence tests assert exact
/// equality).
std::vector<Detection2d> ca_cfar_2d(std::span<const float> power_map,
                                    std::size_t n_range,
                                    std::size_t n_doppler,
                                    const CfarConfig& cfg);

/// Allocation-free variant: detections are appended to a cleared `out`
/// and the prefix table lives in `scratch`.
void ca_cfar_2d(std::span<const float> power_map, std::size_t n_range,
                std::size_t n_doppler, const CfarConfig& cfg,
                CfarScratch& scratch, std::vector<Detection2d>& out);

/// Reference O(train_cells)-per-cell implementation (the pre-plan scalar
/// code), kept as the correctness oracle for the prefix-sum detector.
std::vector<Detection2d> ca_cfar_2d_reference(std::span<const float> power_map,
                                              std::size_t n_range,
                                              std::size_t n_doppler,
                                              const CfarConfig& cfg);

}  // namespace fuse::dsp
