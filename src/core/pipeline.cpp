#include "core/pipeline.h"

#include <stdexcept>

#include "util/log.h"

namespace fuse::core {

using fuse::data::kChannelsPerFrame;

FusePipeline::FusePipeline(PipelineConfig cfg) : cfg_(std::move(cfg)) {}

void FusePipeline::prepare_data() {
  dataset_ = fuse::data::build_dataset(cfg_.data);
  fused_ = std::make_unique<fuse::data::FusedDataset>(dataset_,
                                                      cfg_.fusion_m);
  split_ = fuse::data::chrono_split(dataset_);
  featurizer_.fit(dataset_, split_.train);

  // Fusion pools points before featurization, so the model input is 8x8x5
  // regardless of M (the paper keeps the model identical across settings).
  fuse::nn::ModelConfig mcfg;
  mcfg.in_channels = kChannelsPerFrame;
  mcfg.seed = cfg_.seed;
  model_ = fuse::nn::build_model(cfg_.model_name, mcfg);
  predictor_ = Predictor(&featurizer_, cfg_.fusion_m);
  processor_ =
      std::make_unique<fuse::radar::Processor>(cfg_.data.radar);
  prepared_ = true;
}

void FusePipeline::require_prepared() const {
  if (!prepared_)
    throw std::logic_error("FusePipeline: call prepare_data() first");
}

TrainHistory FusePipeline::train_baseline() {
  require_prepared();
  Trainer trainer(model_.get(), cfg_.train);
  return trainer.fit(*fused_, featurizer_, split_.train);
}

MetaHistory FusePipeline::train_meta() {
  require_prepared();
  MetaTrainer meta(model_.get(), cfg_.meta);
  return meta.run(*fused_, featurizer_, split_.train);
}

MaeCm FusePipeline::evaluate_test() {
  require_prepared();
  return evaluate(*model_, *fused_, featurizer_, split_.test);
}

fuse::human::Pose
FusePipeline::predict_window(const std::vector<fuse::radar::PointCloud>& window) {
  require_prepared();
  if (window.empty())
    throw std::invalid_argument("predict_window: empty window");
  return predictor_.predict_window(*model_, window, model_->train_backend());
}

fuse::human::Pose FusePipeline::push_frame(const fuse::radar::PointCloud& cloud) {
  require_prepared();
  const std::size_t blocks = 2 * cfg_.fusion_m + 1;
  stream_buffer_.push_back(cloud);
  while (stream_buffer_.size() > blocks) stream_buffer_.pop_front();
  // Featurize straight out of the deque through the reusable scratch (the
  // workspace path: no per-frame pool/selection/batch allocations).
  if (stream_x_.empty()) stream_x_ = predictor_.alloc_batch(1);
  stream_ptrs_.clear();
  stream_ptrs_.reserve(stream_buffer_.size());
  for (const auto& c : stream_buffer_) stream_ptrs_.push_back(&c);
  predictor_.featurize_window(stream_ptrs_.data(), stream_ptrs_.size(),
                              stream_x_.data(), predict_scratch_);
  return predictor_.predict(*model_, stream_x_, model_->train_backend())
      .front();
}

fuse::human::Pose FusePipeline::push_cube(const fuse::radar::RadarCube& cube) {
  require_prepared();
  processor_->process(cube, frame_ws_, frame_scratch_);
  return push_frame(frame_scratch_.cloud);
}

}  // namespace fuse::core
