#include "serve/shard.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/finetune.h"
#include "data/featurize.h"
#include "util/fault.h"

namespace fuse::serve {

namespace {
constexpr std::size_t kBlockFloats = fuse::data::kChannelsPerFrame *
                                     fuse::data::kGridH * fuse::data::kGridW;

/// NaN/Inf input guard: one corrupt sample must never reach the fusion
/// window (where it would poison up to 2M+1 downstream frames) or the
/// adaptation buffer (where it would corrupt the per-user clone).
bool cloud_finite(const fuse::radar::PointCloud& cloud) {
  for (const auto& p : cloud.points)
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z) ||
        !std::isfinite(p.doppler) || !std::isfinite(p.intensity))
      return false;
  return true;
}

bool pose_finite(const fuse::human::Pose& pose) {
  for (const auto& j : pose.joints)
    if (!std::isfinite(j.x) || !std::isfinite(j.y) || !std::isfinite(j.z))
      return false;
  return true;
}
}  // namespace

Shard::Shard(const fuse::core::Predictor* predictor,
             const fuse::nn::Module* shared_model, const ServeConfig& cfg,
             std::size_t index)
    : predictor_(predictor),
      shared_model_(shared_model),
      cfg_(cfg),
      index_(index),
      detector_(cfg.overload) {
  // Per-shard clone store: shards must never share checkpoint files, so
  // each one owns `<dir>/shard_<k>`.  The 1-shard layout stays exactly
  // `<dir>` — backward compatible with checkpoints persisted before
  // sharding existed.
  if (!cfg_.clone_store.dir.empty() && cfg_.num_shards > 1)
    cfg_.clone_store.dir += "/shard_" + std::to_string(index_);
  clone_store_.configure(cfg_.clone_store, shared_model);
}

Shard::~Shard() { stop(); }

void Shard::wake() {
  if (!running_) return;
  // The flag is set under wake_mu_, so the scheduler cannot miss a frame
  // submitted between its last empty pass and its wait.
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    work_pending_ = true;
  }
  wake_cv_.notify_one();
}

void Shard::adopt_clones(
    const std::vector<std::shared_ptr<Session>>& sessions) {
  for (const auto& s : sessions)
    if (s->take_clone_handoff() && clone_store_.enabled() &&
        s->adapted_model() != nullptr)
      clone_store_.note_adapted(*s);
}

std::size_t Shard::run_pass(
    const std::vector<std::shared_ptr<Session>>& owned) {
  adopt_clones(owned);
  std::vector<Session*> sessions;
  sessions.reserve(owned.size());
  for (const auto& s : owned) sessions.push_back(s.get());
  // The pass runs lock-free into local telemetry; the cumulative stats are
  // only locked for the merge, so stats() never waits on an inference pass
  // and a snapshot always observes whole passes.
  PassRecord rec;
  const bool overload = cfg_.overload.enabled;
  const double t0 = overload ? mono_seconds() : 0.0;
  run_once(sessions, rec);
  if (overload) {
    // Feed the detector this pass's tick latency and the post-pass queue
    // backlog — the SHARD's own gauge, so a hot shard engages even when
    // the rest of the fleet is idle.  The level it returns is the rung the
    // NEXT pass runs at.  All on this shard's scheduling thread — the
    // detector itself is single-threaded state.
    const auto level = detector_.update(in_flight(), mono_seconds() - t0);
    overload_level_.store(static_cast<int>(level), std::memory_order_relaxed);
    overload_transitions_.store(detector_.transitions(),
                                std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  totals_.merge(rec);
  // Queue depth over time: one post-pass gauge sample per tick into the
  // bounded ring (the export shows the curve, not just the high-water
  // mark).
  depth_series_.record(in_flight());
  return rec.frames;
}

void Shard::featurize_current_window(Session& s, float* out) {
  const auto& win = s.window();
  window_ptrs_.clear();
  window_ptrs_.reserve(win.size());
  for (const auto& c : win) window_ptrs_.push_back(&c);
  predictor_->featurize_window(window_ptrs_.data(), window_ptrs_.size(), out,
                               feat_scratch_);
}

fuse::nn::Backend Shard::effective_backend(const Session& s) const {
  if (detector_.level() >= OverloadLevel::kDegradeBackend)
    return fuse::nn::Backend::kInt8;
  return s.config().backend.value_or(cfg_.backend);
}

void Shard::drop_clone(Session& s) {
  s.adapted_slot().reset();
  s.adapt_buffer().clear();
  s.clear_fresh_labeled();
  if (clone_store_.enabled()) clone_store_.forget(s.id());
}

void Shard::run_once(const std::vector<Session*>& sessions, PassRecord& rec) {
  // Per-stage recording folds to dead code when the telemetry layer is
  // compiled out, and to a single predictable branch per site when it is
  // merely disabled — the stats-idle zero-cost contract.
  const bool detail = detailed();
  // Clone-store pass bookkeeping first: advance the LRU clock and drain
  // forgets queued by close_session, so a closed session's checkpoint is
  // gone before anything below could resolve its id.
  const bool store = clone_store_.enabled();
  if (store) clone_store_.begin_pass();
  // Collection: at most one frame per session per round, until the batch
  // is full or every queue is empty.  Rounds start after the session that
  // gave the previous pass its last frame, so a batch that fills before a
  // round ends cannot keep serving the same sessions.  The window slides
  // and the sample is featurized immediately, in the session's FIFO order.
  struct Collected {
    Item item;
    std::vector<float> block;
  };
  const std::size_t max_batch = cfg_.max_batch;
  std::vector<Collected> collected;
  collected.reserve(max_batch);
  const std::size_t n = sessions.size();
  std::size_t start = 0;
  while (start < n && sessions[start]->id() < next_start_) ++start;
  bool any = true;
  while (any && collected.size() < max_batch) {
    any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (collected.size() >= max_batch) break;
      Session* s = sessions[(start + i) % n];
      // pop() consumes any pending recycle atomically with the queue
      // read, so a recycled session's streaming state is always reset
      // before the new subject's first frame touches the window.
      bool recycled = false;
      auto frame = s->pop(&recycled);
      if (recycled) {
        // The next subject must not inherit the previous subject's
        // adaptation: drop the checkpoint along with the in-RAM state.
        if (store) clone_store_.forget(s->id());
        s->reset_stream_state();
      }
      if (!frame) continue;
      any = true;
      next_start_ = s->id() + 1;
      // Injected latency spike: stalls the pass exactly where a real
      // scheduler hiccup (page fault, CPU contention) would, so chaos runs
      // exercise the overload detector's tick-latency signal.
      if (fuse::util::fault_fire(fuse::util::FaultPoint::kLatencySpike))
        std::this_thread::sleep_for(std::chrono::duration<double>(
            fuse::util::fault_spike_seconds()));
      // Rung 3 — deadline shedding: a frame that went stale in the queue
      // is dropped HERE, before the DSP/featurize/infer stages spend
      // anything on it.  Freshness wins over completeness under overload
      // (same rationale as DropPolicy::kDropOldest, applied server-side).
      if (detector_.level() >= OverloadLevel::kShedDeadline) {
        const double age = mono_seconds() - frame->t_enqueue;
        if (age > cfg_.overload.shed_deadline_s) {
          s->note_deadline_shed();
          if (detail) rec.telem.stages.record(Stage::kShed, age);
          continue;
        }
      }
      if (detail)
        rec.telem.stages.record(Stage::kQueueWait,
                                mono_seconds() - frame->t_enqueue);
      // A quarantined session serves from the shared meta-init: its clone
      // (possibly corrupted by the poison that got it quarantined) and
      // checkpoint are dropped, and rehydration is skipped below.
      const bool quarantined = s->quarantined();
      if (quarantined && s->adapted_model() != nullptr) drop_clone(*s);
      // Transparent rehydration: an evicted per-user clone is rebuilt
      // (meta-init + delta) before this frame can reach partitioning, so
      // eviction never silently downgrades a user to the shared model.
      if (store && !quarantined) {
        const double t_rehy = detail ? mono_seconds() : 0.0;
        if (clone_store_.ensure_resident(*s) && detail)
          rec.telem.stages.record(Stage::kRehydrate,
                                  mono_seconds() - t_rehy);
      }
      // Raw-cube ingestion: run the DSP front-end (range/Doppler FFTs,
      // CFAR, angles) through the shard's reusable workspace, then feed
      // the extracted point cloud into the fusion window exactly like a
      // point-cloud frame.  A cube frame on a shard with no processor is a
      // wiring bug — serving poses computed from an empty cloud would be
      // indistinguishable from a valid frame.
      const fuse::radar::PointCloud* cloud = &frame->cloud;
      if (frame->cube != nullptr) {
        if (cfg_.processor == nullptr)
          throw std::logic_error(
              "Shard: cube frame collected but no radar::Processor was "
              "configured");
        const double t_dsp = detail ? mono_seconds() : 0.0;
        cfg_.processor->process(*frame->cube, frame_ws_, cube_frame_);
        if (detail)
          rec.telem.stages.record(Stage::kDspCube, mono_seconds() - t_dsp);
        // The ~1.5 MB cube payload is dead once the cloud is extracted;
        // free it now rather than carrying it through partitioning and
        // the batched forward.
        frame->cube.reset();
        cloud = &cube_frame_.cloud;
      }
      // Input guard: a NaN/Inf frame is rejected BEFORE it can enter the
      // fusion window (where it would poison up to window_frames
      // downstream predictions).  Repeated offenders are quarantined.
      if (!cloud_finite(*cloud)) {
        if (s->note_non_finite(/*label=*/false) &&
            s->adapted_model() != nullptr)
          drop_clone(*s);
        continue;
      }
      const double t_feat = detail ? mono_seconds() : 0.0;
      s->advance_window(*cloud, predictor_->window_frames());
      Collected c;
      c.item.session = s;
      c.block.resize(kBlockFloats);
      featurize_current_window(*s, c.block.data());
      if (detail)
        rec.telem.stages.record(Stage::kFeaturize, mono_seconds() - t_feat);
      // Ground-truth labels feed the per-user adaptation buffer; the
      // sample x is exactly what inference sees (the fused window).  A
      // non-finite label is rejected the same way as a non-finite frame —
      // one bad label must never corrupt a per-user clone — and
      // quarantined sessions buffer nothing (adaptation is disabled).
      if (frame->label && s->config().adapt.enabled && !quarantined) {
        if (!pose_finite(*frame->label)) {
          if (s->note_non_finite(/*label=*/true) &&
              s->adapted_model() != nullptr)
            drop_clone(*s);
        } else {
          Session::LabeledSample ls;
          ls.x = c.block;
          const auto norm =
              predictor_->featurizer().normalize_pose(*frame->label);
          ls.y.assign(norm.begin(), norm.end());
          s->buffer_labeled(std::move(ls));
        }
      }
      c.item.frame = std::move(*frame);
      collected.push_back(std::move(c));
    }
  }
  if (collected.empty()) return;

  // Partition: shared-model frames batch together across sessions — one
  // batch per effective backend, so an int8 fleet and fp32 stragglers can
  // coexist in a single tick without cross-contaminating outputs.  A
  // session with an adapted clone predicts with its own parameters, so its
  // frames form a private batch.
  struct SharedGroup {
    fuse::nn::Backend backend;
    std::vector<Item> items;
    std::vector<std::vector<float>> blocks;
  };
  std::vector<SharedGroup> shared;
  std::vector<std::pair<Session*, std::vector<Item>>> adapted;
  std::vector<std::vector<std::vector<float>>> adapted_blocks;
  for (auto& c : collected) {
    Session* s = c.item.session;
    if (s->adapted_model() == nullptr) {
      const fuse::nn::Backend be = effective_backend(*s);
      std::size_t g = shared.size();
      for (std::size_t i = 0; i < shared.size(); ++i)
        if (shared[i].backend == be) g = i;
      if (g == shared.size()) shared.push_back(SharedGroup{be, {}, {}});
      shared[g].items.push_back(std::move(c.item));
      shared[g].blocks.push_back(std::move(c.block));
    } else {
      std::size_t g = adapted.size();
      for (std::size_t i = 0; i < adapted.size(); ++i)
        if (adapted[i].first == s) g = i;
      if (g == adapted.size()) {
        adapted.emplace_back(s, std::vector<Item>{});
        adapted_blocks.emplace_back();
      }
      adapted[g].second.push_back(std::move(c.item));
      adapted_blocks[g].push_back(std::move(c.block));
    }
  }

  const auto serve_group = [&](std::vector<Item>& items,
                               std::vector<std::vector<float>>& blocks,
                               const fuse::nn::Module& model,
                               fuse::nn::Backend backend, bool is_adapted) {
    if (items.empty()) return;
    fuse::tensor::Tensor x = predictor_->alloc_batch(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
      std::memcpy(x.data() + i * kBlockFloats, blocks[i].data(),
                  kBlockFloats * sizeof(float));
    const double t_infer = detail ? mono_seconds() : 0.0;
    const auto poses = predictor_->predict(model, x, backend);
    const double now = mono_seconds();
    if (detail) rec.telem.record_batch(backend, items.size(), now - t_infer);
    for (std::size_t i = 0; i < items.size(); ++i) {
      Session& s = *items[i].session;
      // A frame popped just before its session was recycled must not
      // touch the new subject's tracker (its result is discarded anyway).
      const bool stale = items[i].frame.epoch != s.current_epoch();
      PoseResult r;
      r.seq = items[i].frame.seq;
      r.raw = poses[i];
      r.tracked = (s.config().tracking && !stale)
                      ? s.tracker().update(poses[i])
                      : poses[i];
      r.latency_s = now - items[i].frame.t_enqueue;
      r.t_ready = now;
      r.adapted_model = is_adapted;
      rec.latency.record(r.latency_s);
      s.push_result(std::move(r), items[i].frame.epoch);
    }
    ++rec.batches;
    rec.frames += items.size();
  };

  for (auto& group : shared)
    serve_group(group.items, group.blocks, *shared_model_, group.backend,
                false);
  // An adapted clone carries no int8 state (clones drop it), so a kInt8
  // effective backend falls back to fp32 kGemm inside the layers.
  for (std::size_t g = 0; g < adapted.size(); ++g)
    serve_group(adapted[g].second, adapted_blocks[g],
                *adapted[g].first->adapted_model(),
                effective_backend(*adapted[g].first), true);

  // Online adaptation: at most one round per session per pass.
  for (Session* s : sessions) {
    const double t_adapt = detail ? mono_seconds() : 0.0;
    if (maybe_adapt(*s) && detail)
      rec.telem.stages.record(Stage::kAdapt, mono_seconds() - t_adapt);
  }

  // End of pass: evict LRU clones until the resident set fits the store's
  // RAM budget again (rehydration above may have overshot it briefly).
  if (store) clone_store_.enforce_budget(sessions);
}

bool Shard::maybe_adapt(Session& s) {
  const AdaptConfig& cfg = s.config().adapt;
  if (!cfg.enabled) return false;
  // Rung 1 — adaptation rounds are the most expensive optional work in a
  // pass; under overload they pause (the buffer keeps filling, so rounds
  // resume with fresh data once pressure clears).
  if (detector_.level() >= OverloadLevel::kPauseAdapt) return false;
  if (s.quarantined()) return false;
  auto& buffer = s.adapt_buffer();
  if (buffer.size() < cfg.min_samples) return false;
  // An evicted clone must come back BEFORE the first-round check below:
  // cloning the shared model for a session whose adapted clone sits on
  // disk would silently discard the user's adaptation (and the
  // round-cadence gate must see the true adapted state).
  const bool store = clone_store_.enabled();
  if (store) clone_store_.ensure_resident(s);
  if (s.fresh_labeled() < cfg.round_every && s.adapted_model() != nullptr)
    return false;

  // First round: clone the shared meta-initialization for this user.
  if (s.adapted_model() == nullptr) s.adapted_slot() = shared_model_->clone();

  fuse::tensor::Tensor x = predictor_->alloc_batch(buffer.size());
  fuse::tensor::Tensor y({buffer.size(), fuse::human::kNumCoords});
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    std::memcpy(x.data() + i * kBlockFloats, buffer[i].x.data(),
                kBlockFloats * sizeof(float));
    std::memcpy(y.data() + i * fuse::human::kNumCoords, buffer[i].y.data(),
                fuse::human::kNumCoords * sizeof(float));
  }
  float loss = 0.0f;
  for (std::size_t step = 0; step < cfg.steps_per_round; ++step)
    loss = fuse::core::sgd_step(*s.adapted_slot(), x, y, cfg.lr,
                                cfg.grad_clip);
  // A non-finite loss means the clone's parameters are compromised (every
  // buffered sample was finite, so this is numeric blow-up, not input
  // corruption): quarantine the session and discard the clone AND its
  // checkpoint — a poisoned delta must never survive to a warm restart.
  if (!std::isfinite(loss)) {
    s.note_adapt_failed();
    drop_clone(s);
    return false;
  }
  s.clear_fresh_labeled();
  s.note_adapt_round(loss);
  // The round moved the clone past its last checkpoint: register it with
  // the store (first round) and mark the on-disk delta stale.
  if (store) clone_store_.note_adapted(s);
  return true;
}

void Shard::start(std::function<std::size_t()> pass) {
  if (running_) return;
  pass_ = std::move(pass);
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { scheduler_loop(); });
}

void Shard::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  running_ = false;
}

void Shard::scheduler_loop() {
  for (;;) {
    if (pass_() > 0) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_requested_) {
      // Final sweep so frames submitted just before stop() are served.
      lock.unlock();
      while (pass_() > 0) {
      }
      return;
    }
    // An idle shard blocks here until a producer flags new work; the
    // predicate makes the untimed wait immune to lost notifies.
    wake_cv_.wait(lock, [this] { return work_pending_ || stop_requested_; });
    work_pending_ = false;
  }
}

void Shard::persist_clones(
    const std::vector<std::shared_ptr<Session>>& owned) {
  if (!clone_store_.enabled()) return;
  // The store's scheduler-thread contract holds here: no scheduler thread
  // is running, so this caller IS the scheduler side.  Queued forgets are
  // drained first so closed sessions never reach the manifest, and a
  // clone that migrated in after this shard's last pass is adopted.
  clone_store_.begin_pass();
  adopt_clones(owned);
  std::vector<Session*> sessions;
  sessions.reserve(owned.size());
  for (const auto& s : owned) sessions.push_back(s.get());
  clone_store_.persist(sessions);
}

void Shard::report(const std::vector<std::shared_ptr<Session>>& sessions,
                   ServeStats& out, PassRecord& totals) const {
  ShardStatsRow row;
  row.shard = index_;
  row.sessions = sessions.size();
  for (const auto& s : sessions) {
    out.per_session.push_back(s->stats_snapshot());
    row.frames_in += out.per_session.back().frames_in;
    row.frames_out += out.per_session.back().frames_out;
  }
  row.in_flight = in_flight();
  row.overload_level = overload_level_.load(std::memory_order_relaxed);
  row.overload_transitions =
      overload_transitions_.load(std::memory_order_relaxed);
  row.migrations_in = migrations_in_.load(std::memory_order_relaxed);
  row.migrations_out = migrations_out_.load(std::memory_order_relaxed);
  row.migration_failures =
      migration_failures_.load(std::memory_order_relaxed);
  out.clone_store += clone_store_.stats_snapshot();
  out.detailed = detailed();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    row.frames_in += retired_.frames_in;
    row.frames_out += retired_.frames_out;
    out += retired_;
    row.batches = totals_.batches;
    row.latency_p99_ms = totals_.latency.p99() * 1e3;
    row.queue_depth_series = depth_series_.snapshot();
    totals.merge(totals_);
  }
  out.per_shard.push_back(std::move(row));
}

void Shard::retire(const FrameCounters& counters) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  retired_ += counters;
}

void Shard::record_poll(const std::vector<PoseResult>& polled) {
  if (!detailed() || polled.empty()) return;
  const double now = mono_seconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const auto& r : polled)
    totals_.telem.stages.record(Stage::kResultPoll, now - r.t_ready);
}

void Shard::record_migration(double seconds) {
  if (!detailed()) return;
  std::lock_guard<std::mutex> lock(stats_mu_);
  totals_.telem.stages.record(Stage::kMigrate, seconds);
}

}  // namespace fuse::serve
