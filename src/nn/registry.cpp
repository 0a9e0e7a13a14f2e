#include "nn/registry.h"

#include <stdexcept>

#include "nn/layers.h"
#include "nn/model.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fuse::nn {

namespace {

std::unique_ptr<Module> build_mars_cnn(const ModelConfig& cfg,
                                       const std::string& name,
                                       std::size_t conv1, std::size_t conv2,
                                       std::size_t hidden) {
  fuse::util::Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>(mars_cnn(
      cfg.in_channels, rng, cfg.grid_h, cfg.grid_w, conv1, conv2, hidden,
      cfg.outputs));
  model->set_arch_name(name);
  return model;
}

std::unique_ptr<Module> build_mars_mlp(const ModelConfig& cfg) {
  fuse::util::Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>("mars_mlp");
  const std::size_t in_features =
      cfg.in_channels * cfg.grid_h * cfg.grid_w;
  model->add(Flatten{});
  model->add(Linear(in_features, 512, rng));
  model->add(ReLU{});
  model->add(Linear(512, 256, rng));
  model->add(ReLU{});
  model->add(Linear(256, cfg.outputs, rng));
  return model;
}

}  // namespace

std::unique_ptr<Module> build_model(const std::string& name,
                                    const ModelConfig& cfg) {
  // The paper's network (Section 4.1).
  if (name == "mars_cnn") return build_mars_cnn(cfg, name, 16, 32, 512);
  // Doubled conv filters and hidden width: the capacity end of the
  // capacity/latency trade-off the serving runtime can explore.
  if (name == "mars_cnn_large")
    return build_mars_cnn(cfg, name, 32, 64, 1024);
  // Conv-free baseline on the flattened grid.
  if (name == "mars_mlp") return build_mars_mlp(cfg);
  std::string known;
  for (const auto& k : registered_models())
    known += (known.empty() ? "" : ", ") + k;
  throw std::invalid_argument("build_model: unknown architecture '" + name +
                              "' (registered: " + known + ")");
}

std::vector<std::string> registered_models() {
  return {"mars_cnn", "mars_cnn_large", "mars_mlp"};
}

}  // namespace fuse::nn
