#pragma once
// The MARS baseline CNN used (unchanged) by FUSE, as an nn::Sequential
// factory.
//
// Architecture (Section 4.1 of the paper): two 3x3 convolution layers with
// ReLU activations (16 and 32 filters), then two fully connected layers of
// 512 and 57 neurons; the 57 outputs are the x/y/z coordinates of 19 human
// joints.  On an 8x8 input grid this totals ~1.08 M parameters, matching
// the paper's 1,095,115 up to bias bookkeeping.  The input channel count is
// 5 * (2M + 1): frame fusion stacks constituent frames along channels and
// leaves the rest of the network untouched — which is exactly the paper's
// claim that fusion is a pure pre-processing step.
//
// The layer order and RNG draw order match the original hand-rolled model,
// so a fixed seed yields bit-identical parameters and outputs.  Most code
// builds it by name through nn::build_model("mars_cnn", cfg)
// (nn/registry.h); training loops and the serving runtime only ever see
// nn::Module.
//
// The result is a value type: copying it deep-copies all parameters, which
// is what the MAML inner loop uses to adapt a per-task clone.

#include <cstddef>

#include "nn/sequential.h"
#include "util/rng.h"

namespace fuse::nn {

/// in_channels = 5 * (2M + 1); grid is the 8x8 MARS feature map.  The
/// returned network is named "mars_cnn".
Sequential mars_cnn(std::size_t in_channels, fuse::util::Rng& rng,
                    std::size_t grid_h = 8, std::size_t grid_w = 8,
                    std::size_t conv1_filters = 16,
                    std::size_t conv2_filters = 32, std::size_t hidden = 512,
                    std::size_t outputs = 57);

}  // namespace fuse::nn
