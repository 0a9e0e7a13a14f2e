#pragma once
// FusePipeline — the high-level public API of the library.
//
// Wraps the full FUSE flow for application code (the examples use only this
// facade): synthesize/ingest a dataset, fit featurization, train either the
// supervised baseline or the meta-learned FUSE model, and run streaming
// pose inference on incoming radar point clouds with multi-frame fusion.

#include <deque>
#include <memory>
#include <optional>

#include "core/finetune.h"
#include "core/meta.h"
#include "core/metrics.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "human/skeleton.h"
#include "nn/module.h"
#include "nn/registry.h"
#include "radar/processing.h"
#include "tensor/tensor.h"

namespace fuse::core {

struct PipelineConfig {
  fuse::data::BuilderConfig data;
  std::size_t fusion_m = 1;  ///< the paper's choice (fuse 3 frames)
  TrainConfig train;
  MetaConfig meta;
  /// Architecture built through nn::build_model at prepare_data() time.
  std::string model_name = "mars_cnn";
  std::uint64_t seed = 0x22050097ULL;
};

class FusePipeline {
 public:
  explicit FusePipeline(PipelineConfig cfg);

  // Not movable: predictor_ points at featurizer_, so a moved-from
  // pipeline would leave the copy with a dangling featurizer.
  FusePipeline(const FusePipeline&) = delete;
  FusePipeline& operator=(const FusePipeline&) = delete;
  FusePipeline(FusePipeline&&) = delete;
  FusePipeline& operator=(FusePipeline&&) = delete;

  /// Builds the synthetic MARS-like dataset and fits featurization on the
  /// chrono-split training portion.
  void prepare_data();

  /// Supervised baseline training on the chrono-split train set.
  TrainHistory train_baseline();

  /// Meta-training (Algorithm 1) on the chrono-split train set.
  MetaHistory train_meta();

  /// MAE on the chrono-split test set, in cm.
  MaeCm evaluate_test();

  /// Streaming inference: push one radar frame; returns the estimated pose
  /// once enough frames are buffered for the fusion window (always after
  /// the first frame — the window is clamped like the dataset pipeline).
  /// Inference runs at the model's train_backend(), the arithmetic that
  /// training and evaluate_test() use; pick another backend through
  /// predictor() directly.
  fuse::human::Pose push_frame(const fuse::radar::PointCloud& cloud);

  /// Raw-cube streaming inference: runs the full sensor-to-prediction path
  /// (range/Doppler FFTs, CFAR, angle estimation, then push_frame on the
  /// extracted point cloud) through the pipeline's reusable DSP workspace
  /// — the cube->cloud stage performs zero steady-state allocations.
  fuse::human::Pose push_cube(const fuse::radar::RadarCube& cube);

  /// The radar DSP front-end matching the dataset's radar configuration
  /// (valid after prepare_data(); the serving runtime borrows it for its
  /// own raw-cube ingestion).
  const fuse::radar::Processor& processor() const { return *processor_; }

  /// Estimates a pose from an explicit window of 2M+1 frames (at the
  /// model's train_backend(), like push_frame).
  fuse::human::Pose
  predict_window(const std::vector<fuse::radar::PointCloud>& window);

  /// Clears the streaming fusion buffer.  Call between subjects (or when a
  /// serving session is recycled): otherwise stale frames from the previous
  /// subject leak into the next fusion window.
  void reset_stream() { stream_buffer_.clear(); }

  /// The stateless featurize->predict component (valid after
  /// prepare_data()); the serving runtime shares it across sessions.
  const Predictor& predictor() const { return predictor_; }

  const fuse::data::Dataset& dataset() const { return dataset_; }
  const fuse::data::FusedDataset& fused() const { return *fused_; }
  const fuse::data::Featurizer& featurizer() const { return featurizer_; }
  const fuse::data::ChronoSplit& split() const { return split_; }
  fuse::nn::Module& model() { return *model_; }
  const fuse::nn::Module& model() const { return *model_; }
  const PipelineConfig& config() const { return cfg_; }

 private:
  void require_prepared() const;

  PipelineConfig cfg_;
  fuse::data::Dataset dataset_;
  std::unique_ptr<fuse::data::FusedDataset> fused_;
  fuse::data::Featurizer featurizer_;
  Predictor predictor_;
  fuse::data::ChronoSplit split_;
  std::unique_ptr<fuse::nn::Module> model_;
  std::deque<fuse::radar::PointCloud> stream_buffer_;
  std::unique_ptr<fuse::radar::Processor> processor_;
  fuse::radar::FrameWorkspace frame_ws_;      ///< raw-cube DSP scratch
  fuse::radar::ProcessedFrame frame_scratch_; ///< reused cube->cloud output
  PredictScratch predict_scratch_;            ///< streaming featurize scratch
  std::vector<const fuse::radar::PointCloud*> stream_ptrs_;  ///< reused
  fuse::tensor::Tensor stream_x_;             ///< reused [1,5,8,8] batch
  bool prepared_ = false;
};

}  // namespace fuse::core
