#pragma once
// Shard — one scheduler shard of the serving plane (internal engine
// behind serve::Server; not part of the public API).
//
// A shard owns one Scheduler (and therefore one private FrameWorkspace /
// featurize scratch), one clone-store instance, one OverloadDetector,
// its queue-depth gauge and — in threaded mode — one scheduler thread
// with its own wake condition variable.  It holds no sessions: the
// Server's registry does, and hands each pass the sessions placed on
// this shard, in id order.  With one shard the engine is bit-compatible
// with the pre-shard scheduler (the equivalence oracle).
//
// Gauge contract (see server.h): every accepted frame ticks TWO gauges —
// the server-global admission gauge (bounds total queued frames for
// max_in_flight) and the gauge of the shard the session lives on, which
// is what feeds the shard's overload detector, so a hot shard engages
// its degradation ladder regardless of how idle the other shards are.

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
#include "serve/clone_store/clone_store.h"
#include "serve/overload.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/stats.h"
#include "serve/telemetry.h"

namespace fuse::serve {

class Shard {
 public:
  /// `cfg` is the server-wide config; with num_shards > 1 the shard
  /// rewrites its clone-store dir to `<dir>/shard_<index>` so stores
  /// never share checkpoint files.
  Shard(const fuse::core::Predictor* predictor,
        const fuse::nn::Module* shared_model, const ServeConfig& cfg,
        std::size_t index);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// One scheduling pass over `sessions` (this shard's, in id order):
  /// adopts migrated clones into the store, runs the scheduler, feeds the
  /// overload detector and merges the pass telemetry.  Returns frames
  /// served.  Only ever called by the thread that owns this shard's
  /// passes (the shard thread, or the synchronous caller).
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
  /// clone-store counters to out.clone_store, and merges its cumulative
  /// pass record (histograms whole, so merged quantiles stay exact) into
  /// `totals`.  Any thread.
  void report(const std::vector<std::shared_ptr<Session>>& sessions,
              ServeStats& out, PassRecord& totals) const;
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
  /// This shard's queued frames: feeds the shard's overload detector.
  std::atomic<std::size_t>* gauge() { return &shard_in_flight_; }

 private:
  /// Registers clones that migrated in since the last pass.
  void adopt_clones(const std::vector<std::shared_ptr<Session>>& sessions);
  void scheduler_loop();

  ServeConfig cfg_;  ///< server config with this shard's clone-store dir
  const std::size_t index_;
  std::atomic<std::size_t> shard_in_flight_{0};
  CloneStore clone_store_;
  Scheduler scheduler_;
  /// Pass-thread only; level/transitions are mirrored into the atomics
  /// below for any-thread stats readers.
  OverloadDetector detector_;
  std::atomic<int> overload_level_{0};
  std::atomic<std::uint64_t> overload_transitions_{0};

  mutable std::mutex stats_mu_;
  PassRecord totals_;              ///< every pass so far, merged
  QueueDepthSeries depth_series_;  ///< one gauge sample per pass

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
