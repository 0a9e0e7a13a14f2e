#pragma once
// Config-driven model construction: build networks by name.
//
//   auto model = fuse::nn::build_model("mars_cnn", {.seed = 7});
//
// The registry decouples "which architecture" from every subsystem above
// nn/: the pipeline, trainers and the serving runtime all consume
// nn::Module, so swapping the paper's CNN for a larger variant or an MLP
// baseline is a config string, not a code change.
//
// Built-in architectures:
//   mars_cnn        the paper's network (16/32 conv filters, 512 hidden)
//   mars_cnn_large  2x conv filters and hidden width (capacity/latency
//                   trade-off studies)
//   mars_mlp        flatten + 512/256 MLP — the "is the conv stack worth
//                   it" baseline
//
// The set is fixed at compile time: a new architecture is a new branch in
// build_model() plus its name in registered_models().  Every call returns
// an independent model, so concurrent builds need no locking.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fuse::nn {

/// Architecture-independent build knobs.  Width/depth specifics are fixed
/// per architecture name.
struct ModelConfig {
  std::size_t in_channels = 5;  ///< 5 * (2M + 1) when frames are stacked
  std::size_t grid_h = 8;       ///< MARS feature-map grid
  std::size_t grid_w = 8;
  std::size_t outputs = 57;     ///< 19 joints x 3 coordinates
  std::uint64_t seed = 0x5EEDULL;
};

/// Builds a built-in architecture; throws std::invalid_argument for an
/// unknown name (the message lists the known ones).
std::unique_ptr<Module> build_model(const std::string& name,
                                    const ModelConfig& cfg = {});

/// Sorted names of every built-in architecture.
std::vector<std::string> registered_models();

}  // namespace fuse::nn
