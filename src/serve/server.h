#pragma once
// serve::Server — the sharded multi-session streaming serving runtime
// (API v2; DESIGN.md §10 has the old -> new migration table from the
// retired SessionManager surface).
//
// Sessions are placed across `ServeConfig::num_shards` independent
// scheduler shards.  Each shard owns its own scheduler thread, frame
// workspace, clone-store instance and overload detector, so
// batching/adaptation work scales with cores instead of capping at one.
//
// One session registry: the server owns every open session in a single
// id -> Session map, and each Session records the shard it lives on.
// Submits, polls, recycles and closes reach the session directly; a
// shard's pass takes the registry's sessions placed on it, in id order.
// A session starts on its home shard `(id - 1) % num_shards`
// (deterministic, stable across close_session/recycle_session); only a
// migration changes its shard.  The 1-shard configuration is
// bit-compatible with the pre-shard scheduler (the equivalence oracle —
// one shard runs exactly the old single-thread engine).
//
// One migration path: migrate_session(id, shard) marks the session with
// its target — submits to it return SubmitResult::kMigrating from that
// instant (retry-after semantics) — and the move runs at the start of
// the source shard's next pass, on the thread that owns the session's
// scheduler-side state: drain the queue, round-trip the adapted clone
// through the delta codec (nn/delta.h — the same checkpoint format
// eviction uses), swap the session's shard and gauge, replay the drained
// frames and wake the target.  Synchronous callers return at once and the
// move commits inside the next run_once()/drain(); threaded callers wake
// the source shard and wait for the outcome.  Setting
// ServeConfig::rebalance_every arms the built-in load balancer: every N
// synchronous ticks the deepest-backlog session on the hottest shard is
// migrated to the coldest shard when the depth imbalance exceeds
// rebalance_ratio.  Migrated placements persist with the clones (a
// `shard_map` file next to the per-shard stores) and are re-installed by
// restore_clones(); changing num_shards itself remains an offline
// re-shard (tools/reshard, serve/reshard.h).
//
// In-flight gauge / overload-detector contract (multi-shard): each shard
// keeps ONE gauge of the frames queued on its sessions, and an accepted
// frame ticks only that one.
//  * admission (`max_in_flight`) is GLOBAL — the gate reads the sum of
//    the shard gauges, so the budget bounds total server memory against a
//    hostile burst no matter how it hashes.  A migration adds its backlog
//    to the target gauge before it leaves the source, so a concurrent sum
//    can over-count for an instant (a refusal at the budget edge) but
//    never under-count;
//  * overload detection is PER-SHARD — each shard's detector reads its
//    own gauge, so a hot shard engages its degradation ladder
//    (pause-adapt -> int8 -> shed) even while its neighbours sit idle, and
//    an idle fleet can never mask one overloaded shard.  The merged
//    stats() reports the max rung across shards.
//
// Two serving modes, as before:
//  * synchronous — run_once()/drain() step every shard from the calling
//    thread in shard order; fully deterministic, used by tests/benches;
//  * threaded — start() spawns one scheduler thread per shard; producers
//    call submit_frame/submit_cube from any thread.
//
// Model ownership: the server borrows the shared model and only ever
// calls its const infer() path, so training code may hold the same
// object as long as it does not mutate parameters while the server runs.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "nn/module.h"
#include "radar/processing.h"
#include "serve/clone_store/clone_store.h"
#include "serve/overload.h"
#include "serve/session.h"
#include "serve/stats.h"
#include "serve/telemetry.h"

namespace fuse::serve {

class Shard;

struct ServeConfig {
  std::size_t max_sessions = 64;   ///< across all shards
  std::size_t max_batch = 16;      ///< frames per batched forward pass
  /// Scheduler shards.  Sessions start on their home shard
  /// ((id - 1) % num_shards; migrate_session may move them) and each
  /// shard runs its own scheduler thread with private workspace, clone
  /// store and overload detector.  1 (default) reproduces the pre-shard
  /// single-thread engine bit-for-bit.
  std::size_t num_shards = 1;
  /// Inference compute backend for batched forward passes.  The GEMM
  /// backend amortises the conv weight panel across the whole batch;
  /// kInt8 additionally serves calibrated models (nn::calibrate on the
  /// shared model first) with quarter-bandwidth int8 weights —
  /// uncalibrated models fall back to kGemm per layer.  Individual
  /// sessions may override this via SessionConfig::backend.
  fuse::nn::Backend backend = fuse::nn::Backend::kGemm;
  /// Radar DSP front-end for raw-cube ingestion (submit_cube): when set,
  /// each shard runs cube -> point cloud -> features -> NN per tick
  /// through its own reusable FrameWorkspace.  Borrowed; must outlive the
  /// server.  Null disables submit_cube (it returns kNoProcessor).
  const fuse::radar::Processor* processor = nullptr;
  /// Per-stage/per-backend telemetry recording (serve/telemetry.h).  Off
  /// = stats-idle: only the always-on submit->poll latency histogram and
  /// the plain counters are maintained, with zero extra clock reads on
  /// the scheduler hot path (the bench's overhead gate compares the two).
  /// Moot when the layer is compiled out (FUSE_SERVE_TELEMETRY=0).
  bool detailed_stats = true;
  /// Adapted-clone lifecycle (serve/clone_store): set clone_store.dir to
  /// bound the RAM of per-user adapted clones — idle clones are delta-
  /// checkpointed against the shared meta-init and evicted LRU under
  /// max_resident_clones / ram_budget_bytes, then transparently
  /// rehydrated (bit-exact in fp32 mode) when their session is next
  /// served or adapted.  Empty dir (default) keeps every clone resident.
  /// With num_shards > 1 each shard keeps its own store instance under
  /// `<dir>/shard_<k>` (budgets apply per shard); a warm restart must use
  /// the same num_shards the checkpoints were persisted with — changing
  /// the shard count is an offline re-shard (tools/reshard).
  CloneStoreConfig clone_store;
  /// Global admission budget: total queued frames across every session on
  /// every shard.  A submit over it is refused at the door
  /// (kAdmissionRejected; the session's admission_rejected counter), so a
  /// hostile arrival burst can bound neither memory nor queue latency.
  /// The gate reads the sum of the shards' relaxed queue gauges, so a
  /// concurrent burst can overshoot by at most the number of producer
  /// threads.  0 = unlimited.
  std::size_t max_in_flight = 0;
  /// Overload detector feeding the graceful-degradation ladder
  /// (serve/overload.h): pause adaptation -> downgrade to int8 -> shed by
  /// deadline, with hysteresis.  One detector per shard, fed by that
  /// shard's own queue depth (see the contract at the top of this
  /// header).  Disabled by default.
  OverloadConfig overload;
  /// Load-balancer hook in the synchronous scheduler tick: every
  /// `rebalance_every` run_once() calls the server compares per-shard
  /// queue backlogs and migrates the deepest-backlog session from the
  /// hottest shard to the coldest when hot exceeds cold by more than
  /// `rebalance_ratio` (and by at least one whole queue's worth of
  /// frames).  0 (default) disables the hook; threaded deployments drive
  /// migrate_session() from their own balancer instead.
  std::size_t rebalance_every = 0;
  double rebalance_ratio = 2.0;
  SessionConfig session;           ///< defaults for open_session()

  /// Consolidated ServeConfig + nested SessionConfig validation; throws
  /// std::invalid_argument naming the offending field.  The Server
  /// constructor calls this; open_session(SessionConfig) re-validates its
  /// per-session override.
  void validate() const;
};

/// Validates a per-session configuration (also covers ServeConfig::
/// session via ServeConfig::validate); throws std::invalid_argument.
void validate_session_config(const SessionConfig& cfg);

class Server {
 public:
  /// `predictor` (fitted) and `shared_model` must outlive the server.
  /// Validates `cfg` (ServeConfig::validate).
  Server(const fuse::core::Predictor* predictor,
         const fuse::nn::Module* shared_model, ServeConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ------------------------------------------------------------- shards --
  std::size_t num_shards() const { return shards_.size(); }
  /// The shard session `id` lives on: the shard recorded on the open
  /// session, else (an id that is not open) its home shard
  /// (id - 1) % num_shards — where open_session would place it.  Stable
  /// across close_session/recycle_session and across warm restarts with
  /// the same num_shards (restore_clones re-installs migrated placements
  /// from the persisted shard map).
  std::size_t shard_of(SessionId id) const;

  /// Moves the session to `target_shard`: drains its queue, round-trips
  /// the adapted clone through the delta codec, rebinds session + gauge
  /// on the target and replays the drained frames there.  Submits return
  /// kMigrating from this call until the move resolves.  The move runs at
  /// the start of the source shard's next pass: synchronous callers get
  /// true and the move commits inside the next run_once()/drain();
  /// threaded callers wait for it.  Returns false when the session or
  /// target does not exist, or (threaded) the move was rolled back
  /// (injected mid-migration faults; the session then still serves
  /// intact on its source shard) or the session was closed first.  A
  /// same-shard target is a no-op returning true.
  bool migrate_session(SessionId id, std::size_t target_shard);

  // ------------------------------------------------------------ sessions --
  /// Opens a session with the server's default session config.
  SessionId open_session();
  /// Validates `cfg` (validate_session_config).  Ids are allocated
  /// sequentially from 1, so consecutive opens round-robin the shards.
  SessionId open_session(SessionConfig cfg);
  /// Closes and destroys the session; unpolled results are discarded.  Its
  /// counters stay in stats()' fleet totals and its shard's row.
  void close_session(SessionId id);
  /// Recycles the session for a new subject: queue, results and sequence
  /// numbers clear immediately; fusion window, tracker, adaptation buffer
  /// and per-user model reset on its shard's next pass (safe while the
  /// shard threads are running).  Results of frames in flight at the time
  /// of the call are discarded.  The session stays on the same shard.  The
  /// non-finite counts it zeroes stay in stats()' fleet totals.
  void recycle_session(SessionId id);
  std::size_t session_count() const;

  // ------------------------------------------------------------- frames --
  /// Enqueues a frame (any thread).  A non-null `label` marks the frame
  /// as ground-truth-labeled and feeds the session's online adaptation.
  SubmitResult submit_frame(SessionId id, const fuse::radar::PointCloud& cloud,
                            const fuse::human::Pose* label = nullptr);

  /// Enqueues a raw radar cube (any thread); the DSP front-end runs on
  /// the owning shard's scheduler thread when the frame is collected, so
  /// producers pay only the copy.  Throws std::invalid_argument (from
  /// Processor::check_shape, on the calling thread, before the session is
  /// looked up or any counter moves) when the cube is not the processor's
  /// configured frame shape.
  SubmitResult submit_cube(SessionId id, fuse::radar::RadarCube cube,
                           const fuse::human::Pose* label = nullptr);

  /// Moves out the session's finished results (any thread).
  std::vector<PoseResult> poll_results(SessionId id);

  // -------------------------------------------------------- synchronous --
  /// One scheduling pass per shard, in shard order (deterministic);
  /// returns frames served.  Do not mix with start().
  std::size_t run_once();
  /// Runs passes until every shard's queues are empty; returns served.
  std::size_t drain();

  // ------------------------------------------------------------ threaded --
  /// Spawns one scheduler thread per shard.
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // ----------------------------------------------------------- telemetry --
  /// Merged snapshot across every shard: counters (those of closed
  /// sessions and recycled subjects included, so they never drop; a
  /// snapshot that starts after a close or recycle returns counts its
  /// amounts once, one that overlaps it may count them twice or not at
  /// all), end-to-end latency
  /// quantiles (merged at histogram level, so quantiles are exact, not
  /// averages of quantiles), per-stage and per-backend detail, per-shard
  /// rows, per-session rows (sorted by id).  overload_level is the max
  /// rung across shards.  Derived metrics are computed here at read time;
  /// callable from any thread.
  ServeStats stats() const;
  /// Snapshot of one shard only (shard < num_shards()); its per_shard
  /// vector carries the single row for `shard`.
  ServeStats stats(std::size_t shard) const;
  /// stats() serialized as structured JSON (serve::stats_to_json) — the
  /// live-query payload used by examples/clinic_server and the bench's
  /// SERVE_stats.json artifact.
  std::string stats_json() const { return stats_to_json(stats()); }

  // -------------------------------------------------------- warm restart --
  /// Checkpoints every session's adapted clone to its shard's clone store
  /// and writes per-shard manifests plus the `shard_map` file (migrated
  /// placements), so a new process pointed at the same clone_store.dir
  /// (and the same num_shards) can restore_clones().  Requires a
  /// configured store and a stopped server (throws std::logic_error
  /// otherwise); no-op when the store is disabled.
  void persist_clones();
  /// Re-creates one session (with `scfg`, under its original id and on
  /// the shard whose store holds its checkpoint) per clone checkpoint in
  /// each shard's manifest, re-installing migrated placements from the
  /// persisted shard map.  Call on a fresh server before start(); throws
  /// std::logic_error while running, or when the layout on disk belongs
  /// to a different num_shards (run tools/reshard first — re-sharding is
  /// a data migration, not a restart).  A torn/corrupt shard-map file is
  /// tolerated: the placement found on disk is the truth and off-home
  /// ids are re-pinned where their checkpoints live.  Returns the
  /// restored session ids, sorted.
  std::vector<SessionId> restore_clones(const SessionConfig& scfg);

 private:
  std::size_t home_shard(SessionId id) const {
    return id == 0 ? 0 : (id - 1) % shards_.size();
  }
  std::shared_ptr<Session> find(SessionId id) const;
  /// Frames queued across every shard: the sum of the shard gauges.
  std::size_t in_flight() const;
  /// The registry's sessions placed on shard `k`, in id order.
  std::vector<std::shared_ptr<Session>> sessions_on(std::size_t k) const;
  /// The submit prefix shared by submit_frame/submit_cube: routing, the
  /// migrating check, admission and the corrupt-label fault, then
  /// `enqueue(session, label)` and a wake of the session's shard.
  template <class Enqueue>
  SubmitResult submit(SessionId id, const fuse::human::Pose* label,
                      Enqueue&& enqueue);
  /// One pass of shard `k`: executes the moves requested for its
  /// sessions, then runs the shard's pass over the sessions it still
  /// owns.  Called by shard k's thread or the synchronous caller.
  std::size_t pass(std::size_t k);
  /// Executes the move requested for `s`, if any; `s` lives on shard `k`
  /// (the calling pass's shard).  Returns true when the session left `k`.
  bool execute_move(Session& s, std::size_t k);
  /// Wakes threaded migrate_session callers to re-check their move.
  void notify_moves();
  /// The load-balancer hook (see ServeConfig::rebalance_every).
  void maybe_rebalance();

  const fuse::core::Predictor* predictor_;
  const fuse::nn::Module* shared_model_;
  ServeConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The session registry: every open session, ordered by id.  The lock
  /// also guards id allocation (and with it the max_sessions cap) and is
  /// held when a migration commits a session's new shard, so a close and
  /// a commit are always ordered.  Declared after shards_, so every
  /// Session (which points at its shard's gauge and drains it on
  /// destruction) is destroyed first.
  mutable std::mutex registry_mu_;
  std::map<SessionId, std::shared_ptr<Session>> registry_;
  SessionId next_id_ = 1;

  /// Threaded migrate_session callers wait here for their move to
  /// resolve, the session to close or the server to stop.
  std::mutex moves_mu_;
  std::condition_variable moves_cv_;

  std::size_t ticks_ = 0;  ///< run_once calls (drives the rebalance hook)

  std::atomic<bool> running_{false};
};

}  // namespace fuse::serve
