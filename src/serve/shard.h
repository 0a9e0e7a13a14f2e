#pragma once
// Shard — one scheduler shard of the serving plane (internal engine
// behind serve::Server; not part of the public API).
//
// A shard owns its pass (the micro-batcher below, with its private
// FrameWorkspace and featurize scratch), one clone-store instance, one
// OverloadDetector, its queued-frame gauge and — in threaded mode — one
// scheduler thread with its own wake condition variable.  It holds no
// sessions: the Server's registry does, and hands each pass the sessions
// placed on this shard, in id order.  With one shard the engine is
// bit-compatible with the pre-shard scheduler (the equivalence oracle).
//
// Batching policy (see DESIGN.md §2):
//  * one collection round pops at most one frame per session, repeated
//    until `max_batch` frames are gathered or every queue is empty — deep
//    queues cannot starve their neighbours — and each pass starts its
//    rounds after the session that gave the previous pass its last frame,
//    so sessions late in id order are not starved by a full batch either;
//  * frames of sessions serving the shared meta-model are batched together
//    (one batch per effective backend); a session with an adapted
//    per-user clone forms its own (small) batch, since its parameters
//    differ;
//  * each sample's fusion window is advanced and featurized at collection
//    time, in its session's FIFO order, so the maths are identical to the
//    single-session path and outputs are deterministic regardless of how
//    frames interleave across sessions.
// After the forward passes the shard runs at most one online-adaptation
// round per eligible session (labeled-frame buffer full enough), using the
// MAML inner update (core::sgd_step) on that session's clone.
//
// Gauge contract (see server.h): every accepted frame ticks ONE gauge, the
// gauge of the shard its session lives on.  It feeds the shard's overload
// detector, so a hot shard engages its degradation ladder regardless of
// how idle the other shards are; the server's global admission budget
// reads the sum of the shard gauges.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "nn/module.h"
#include "radar/processing.h"
#include "serve/clone_store/clone_store.h"
#include "serve/overload.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/stats.h"
#include "serve/telemetry.h"

namespace fuse::serve {

/// What one pass served, recorded lock-free by the pass; the shard merges
/// it into its cumulative record under its stats lock afterwards (so the
/// hot path never contends with readers).  `latency` (submit->result) is
/// always recorded; the per-stage/per-backend detail in `telem` only when
/// detailed stats are on and the layer is compiled in.
struct PassRecord {
  std::uint64_t batches = 0;  ///< batched forward passes run
  std::uint64_t frames = 0;   ///< frames served through them
  LatencyHistogram latency;
  Telemetry telem;

  void merge(const PassRecord& o) {
    batches += o.batches;
    frames += o.frames;
    latency.merge(o.latency);
    telem.merge(o.telem);
  }
};

class Shard {
 public:
  /// `predictor` and `shared_model` must outlive the shard (the model is
  /// only read).  `cfg` is the server-wide config: its max_batch, backend,
  /// processor (raw-cube DSP front-end; may be null), shed deadline and
  /// detailed_stats drive every pass.  With num_shards > 1 the shard
  /// rewrites its clone-store dir to `<dir>/shard_<index>` so stores
  /// never share checkpoint files.
  Shard(const fuse::core::Predictor* predictor,
        const fuse::nn::Module* shared_model, const ServeConfig& cfg,
        std::size_t index);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// One scheduling pass over `sessions` (this shard's, in id order):
  /// adopts migrated clones into the store, collects, batches, infers and
  /// adapts, feeds the overload detector and merges the pass telemetry.
  /// Returns frames served.  Only ever called by the thread that owns this
  /// shard's passes (the shard thread, or the synchronous caller).
  std::size_t run_pass(const std::vector<std::shared_ptr<Session>>& sessions);

  // ------------------------------------------------------------ threaded --
  /// Spawns the scheduler thread, which calls `pass` until it serves
  /// nothing, then sleeps until wake() or stop().
  void start(std::function<std::size_t()> pass);
  /// Runs `pass` until it serves nothing (frames submitted just before
  /// the call are served), then joins the thread.
  void stop();
  /// Flags pending work and wakes the scheduler thread; no-op when the
  /// thread is not running.  Any thread.
  void wake();

  // -------------------------------------------------------- warm restart --
  /// Checkpoints `sessions`' clones and writes this shard's manifest.
  /// Caller guarantees no scheduler thread runs.
  void persist_clones(const std::vector<std::shared_ptr<Session>>& sessions);

  // ----------------------------------------------------------- telemetry --
  /// Adds this shard to a stats snapshot: appends its summary row to
  /// out.per_shard and `sessions`' rows to out.per_session, adds its
  /// retired counters to out and its clone-store counters to
  /// out.clone_store, and merges its cumulative pass record (histograms
  /// whole, so merged quantiles stay exact) into `totals`.  Any thread.
  void report(const std::vector<std::shared_ptr<Session>>& sessions,
              ServeStats& out, PassRecord& totals) const;
  /// Keeps counters a session no longer reports — its whole record at
  /// close, the amounts a recycle zeroes — so the fleet counters never
  /// drop.  Any thread.
  void retire(const FrameCounters& counters);
  /// Records the result-poll stage (how long `polled` results sat waiting
  /// for the consumer).  Any thread.
  void record_poll(const std::vector<PoseResult>& polled);
  /// Records one migrate-stage sample (drain -> rebind wall time).
  void record_migration(double seconds);
  void note_migration_in() {
    migrations_in_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_migration_out() {
    migrations_out_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_migration_failure() {
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Mutated only from this shard's passes (clone_store.h contract).
  CloneStore& store() { return clone_store_; }
  /// This shard's queued-frame gauge, bound into its sessions.
  std::atomic<std::size_t>* gauge() { return &in_flight_; }
  /// Frames queued on this shard's sessions.  Any thread.
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  struct Item {
    Session* session = nullptr;
    Session::InFrame frame;
  };

  /// The collect -> partition -> infer -> adapt pass over `sessions`;
  /// `rec` receives the batch counts, one latency sample per served frame
  /// and, when detailed stats are on, the per-stage timings.
  void run_once(const std::vector<Session*>& sessions, PassRecord& rec);
  /// Runs one adaptation round on the session's clone if it is due;
  /// returns whether a round actually ran (for stage timing).
  bool maybe_adapt(Session& s);
  /// Featurizes the just-advanced window of `s` into `out` ([5*8*8]),
  /// through the pass's reusable featurize scratch.
  void featurize_current_window(Session& s, float* out);
  /// The backend a session's batched forwards run on: its config override
  /// when set, else cfg_.backend — EXCEPT at degradation rung 2+, where
  /// everything downgrades to int8 (adapted clones carry no int8 state,
  /// so theirs falls back to kGemm per layer).
  fuse::nn::Backend effective_backend(const Session& s) const;
  /// Per-stage recording: ServeConfig::detailed_stats, folded to a
  /// constant false when the telemetry layer is compiled out.  Off, a pass
  /// performs no extra clock reads or histogram increments (the stats-idle
  /// mode the bench's overhead gate measures against).
  bool detailed() const { return kTelemetryCompiled && cfg_.detailed_stats; }
  /// Quarantine teardown: the session's clone (and its checkpoint) is
  /// compromised or unwanted; from here on it serves the shared meta-init.
  void drop_clone(Session& s);
  /// Registers clones that migrated in since the last pass.
  void adopt_clones(const std::vector<std::shared_ptr<Session>>& sessions);
  void scheduler_loop();

  const fuse::core::Predictor* predictor_;
  const fuse::nn::Module* shared_model_;
  ServeConfig cfg_;  ///< server config with this shard's clone-store dir
  const std::size_t index_;
  std::atomic<std::size_t> in_flight_{0};
  CloneStore clone_store_;
  /// Pass-thread only; its level is the rung the next pass runs at, and
  /// level/transitions are mirrored into the atomics below for any-thread
  /// stats readers.
  OverloadDetector detector_;
  std::atomic<int> overload_level_{0};
  std::atomic<std::uint64_t> overload_transitions_{0};

  // Pass-thread scratch (passes never run concurrently): the DSP
  // workspace for raw-cube frames and the featurize scratch both recycle
  // their buffers, so a steady tick performs no DSP-side allocations.
  fuse::radar::FrameWorkspace frame_ws_;
  fuse::radar::ProcessedFrame cube_frame_;
  fuse::core::PredictScratch feat_scratch_;
  std::vector<const fuse::radar::PointCloud*> window_ptrs_;
  /// Id of the session collection starts at next pass: one past the last
  /// session served.  An id, not an index, so it survives open/close.
  SessionId next_start_ = 0;

  mutable std::mutex stats_mu_;
  PassRecord totals_;              ///< every pass so far, merged
  QueueDepthSeries depth_series_;  ///< one gauge sample per pass
  FrameCounters retired_;          ///< see retire()

  std::atomic<std::uint64_t> migrations_in_{0};
  std::atomic<std::uint64_t> migrations_out_{0};
  std::atomic<std::uint64_t> migration_failures_{0};

  std::function<std::size_t()> pass_;  ///< set by start()
  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> running_{false};
  bool stop_requested_ = false;  ///< guarded by wake_mu_
  bool work_pending_ = false;    ///< guarded by wake_mu_; set by wake()
};

}  // namespace fuse::serve
