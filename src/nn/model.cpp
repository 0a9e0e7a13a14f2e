#include "nn/model.h"

#include "nn/layers.h"

namespace fuse::nn {

Sequential mars_cnn(std::size_t in_channels, fuse::util::Rng& rng,
                    std::size_t grid_h, std::size_t grid_w,
                    std::size_t conv1_filters, std::size_t conv2_filters,
                    std::size_t hidden, std::size_t outputs) {
  // Layer construction order fixes the RNG draw order (conv1, conv2, fc1,
  // fc2) — identical to the original hand-rolled model, so a fixed seed
  // yields bit-identical parameters and outputs.
  Sequential model("mars_cnn");
  model.add(Conv2d(in_channels, conv1_filters, 3, 1, rng));
  model.add(ReLU{});
  model.add(Conv2d(conv1_filters, conv2_filters, 3, 1, rng));
  model.add(ReLU{});
  model.add(Flatten{});
  model.add(Linear(conv2_filters * grid_h * grid_w, hidden, rng));
  model.add(ReLU{});
  model.add(Linear(hidden, outputs, rng));
  return model;
}

}  // namespace fuse::nn
