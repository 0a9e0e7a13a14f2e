#include "serve/shard.h"

#include <string>
#include <utility>

namespace fuse::serve {

Shard::Shard(const fuse::core::Predictor* predictor,
             const fuse::nn::Module* shared_model, const ServeConfig& cfg,
             std::size_t index)
    : cfg_(cfg),
      index_(index),
      scheduler_(predictor, shared_model, cfg.max_batch, cfg.backend,
                 cfg.processor) {
  // Per-shard clone store: shards must never share checkpoint files, so
  // each one owns `<dir>/shard_<k>`.  The 1-shard layout stays exactly
  // `<dir>` — backward compatible with checkpoints persisted before
  // sharding existed.
  if (!cfg_.clone_store.dir.empty() && cfg_.num_shards > 1)
    cfg_.clone_store.dir += "/shard_" + std::to_string(index_);
  scheduler_.set_detailed_stats(cfg_.detailed_stats);
  clone_store_.configure(cfg_.clone_store, shared_model);
  scheduler_.set_clone_store(&clone_store_);
  detector_ = OverloadDetector(cfg_.overload);
  scheduler_.set_shed_deadline(cfg_.overload.shed_deadline_s);
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
  scheduler_.run_once(sessions, rec);
  if (overload) {
    // Feed the detector this pass's tick latency and the post-pass queue
    // backlog — the SHARD's own gauge, not the global admission gauge, so
    // a hot shard engages even when the rest of the fleet is idle — then
    // arm the ladder rung the NEXT pass runs at.  All on this shard's
    // scheduling thread — the detector itself is single-threaded state.
    const auto level = detector_.update(
        shard_in_flight_.load(std::memory_order_relaxed),
        mono_seconds() - t0);
    scheduler_.set_overload_level(level);
    overload_level_.store(static_cast<int>(level), std::memory_order_relaxed);
    overload_transitions_.store(detector_.transitions(),
                                std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  totals_.merge(rec);
  // Queue depth over time: one post-pass gauge sample per tick into the
  // bounded ring (the export shows the curve, not just the high-water
  // mark).
  depth_series_.record(shard_in_flight_.load(std::memory_order_relaxed));
  return rec.frames;
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
  row.in_flight = shard_in_flight_.load(std::memory_order_relaxed);
  row.overload_level = overload_level_.load(std::memory_order_relaxed);
  row.overload_transitions =
      overload_transitions_.load(std::memory_order_relaxed);
  row.migrations_in = migrations_in_.load(std::memory_order_relaxed);
  row.migrations_out = migrations_out_.load(std::memory_order_relaxed);
  row.migration_failures =
      migration_failures_.load(std::memory_order_relaxed);
  out.clone_store += clone_store_.stats_snapshot();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    row.batches = totals_.batches;
    row.latency_p99_ms = totals_.latency.p99() * 1e3;
    row.queue_depth_series = depth_series_.snapshot();
    totals.merge(totals_);
  }
  out.per_shard.push_back(std::move(row));
}

void Shard::record_poll(const std::vector<PoseResult>& polled) {
  if (!(kTelemetryCompiled && cfg_.detailed_stats) || polled.empty()) return;
  const double now = mono_seconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const auto& r : polled)
    totals_.telem.stages.record(Stage::kResultPoll, now - r.t_ready);
}

void Shard::record_migration(double seconds) {
  if (!(kTelemetryCompiled && cfg_.detailed_stats)) return;
  std::lock_guard<std::mutex> lock(stats_mu_);
  totals_.telem.stages.record(Stage::kMigrate, seconds);
}

}  // namespace fuse::serve
