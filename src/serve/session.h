#pragma once
// One streaming serving session: a bounded input queue with an explicit
// drop policy on the producer side, and the per-subject streaming state
// (fusion window, pose tracker, optional per-user fine-tuned model) on the
// scheduler side.
//
// Thread contract: producer-facing methods (enqueue, take_results, the
// queue counters) are mutex-protected and may be called from any thread;
// everything in the "scheduler side" section is only ever touched by the
// scheduler thread of the shard the session is placed on, so it needs no
// locking.  A migration hands that ownership to another shard's thread
// (serve/server.h).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/tracking.h"
#include "human/skeleton.h"
#include "nn/module.h"
#include "radar/point_cloud.h"
#include "radar/simulator.h"
#include "serve/stats.h"

namespace fuse::serve {

using SessionId = std::size_t;

/// Why a submit_frame/submit_cube call did (not) enqueue its frame.  The
/// old bool collapsed "queue full", "admission refused" and "no such
/// session" into one false; callers that only care use accepted().
enum class SubmitResult {
  kAccepted,           ///< enqueued for serving
  /// Enqueued, but the session is quarantined: it will be served from
  /// the shared meta-init with adaptation disabled.  An *accepted*
  /// variant — the frame still produces a result — carried in the code
  /// so producers can surface the sensor problem.
  kQuarantined,
  kQueueFull,          ///< bounded queue full under DropPolicy::kDropNewest
  kAdmissionRejected,  ///< global max_in_flight budget exhausted
  kUnknownSession,     ///< no session with that id
  kNoProcessor,        ///< submit_cube without a ServeConfig::processor
  /// The session is mid-move to another shard (its queue is being drained
  /// for replay there); retry after the move commits — one scheduler tick.
  kMigrating,
};

/// True when the frame was enqueued and will produce a result.
constexpr bool accepted(SubmitResult r) {
  return r == SubmitResult::kAccepted || r == SubmitResult::kQuarantined;
}

const char* submit_result_name(SubmitResult r);

/// What to do when a frame arrives and the session's input queue is full.
enum class DropPolicy {
  /// Evict the oldest queued frame (keep the stream fresh — default for
  /// live monitoring, where a stale pose is worse than a skipped one).
  kDropOldest,
  /// Reject the incoming frame (keep history — for offline replay).
  kDropNewest,
};

/// Per-user online adaptation from the meta-initialization (Section 4.3 of
/// the paper, run incrementally at serving time on therapist-labeled
/// frames).
struct AdaptConfig {
  bool enabled = false;
  std::size_t min_samples = 16;      ///< labeled frames before round 1
  std::size_t buffer_capacity = 64;  ///< ring buffer of recent labeled frames
  std::size_t round_every = 8;       ///< fresh labeled frames between rounds
  std::size_t steps_per_round = 2;   ///< SGD steps per adaptation round
  float lr = 0.02f;                  ///< MAML inner rate (MetaConfig::alpha)
  float grad_clip = 10.0f;
};

struct SessionConfig {
  std::size_t queue_capacity = 16;
  DropPolicy drop_policy = DropPolicy::kDropOldest;
  std::size_t results_capacity = 1024;  ///< unpolled results kept
  bool tracking = true;
  fuse::core::TrackerConfig tracker;
  AdaptConfig adapt;
  /// Per-session inference backend override; nullopt serves with
  /// ServeConfig::backend.  Lets read-only sessions serve the quantized
  /// int8 model while adapting neighbours stay on fp32 in the same
  /// scheduler tick — sessions with different effective backends form
  /// separate micro-batches.  (An adapted clone is never quantized, so
  /// kInt8 on such a session falls back to kGemm per layer; sgd_step
  /// always runs the fp32 training backend.)
  std::optional<fuse::nn::Backend> backend;
  /// Quarantine threshold: after this many rejected non-finite inputs
  /// (frames + labels) the session is served from the shared meta-init
  /// with adaptation disabled, so a sensor streaming garbage can never
  /// poison its per-user clone or the shared micro-batch.  A non-finite
  /// adaptation loss quarantines immediately.  0 disables quarantine.
  std::size_t quarantine_after = 16;
};

/// One pose result fanned back to a session after a batched forward pass.
struct PoseResult {
  std::uint64_t seq = 0;      ///< per-session frame sequence number
  fuse::human::Pose raw;      ///< CNN estimate
  fuse::human::Pose tracked;  ///< after temporal filtering (== raw when off)
  double latency_s = 0.0;     ///< enqueue -> result, seconds
  double t_ready = 0.0;       ///< mono_seconds stamp at result delivery
                              ///< (feeds the result-poll stage telemetry)
  bool adapted_model = false; ///< predicted by the per-user clone
};

class Session {
 public:
  /// `shard` is the shard the session starts on (see shard()) and `gauge`
  /// that shard's queued-frame gauge: every accepted frame increments it,
  /// every pop/clear/destruction decrements it, always under mu_ so the
  /// gauge tracks the queue exactly.  The atomic must outlive the session.
  Session(SessionId id, SessionConfig cfg, std::size_t shard,
          std::atomic<std::size_t>* gauge)
      : id_(id), cfg_(std::move(cfg)), shard_(shard), in_flight_(gauge) {
    tracker_ = fuse::core::PoseTracker(cfg_.tracker);
    stats_.id = id_;
    stats_.adapt_state = initial_adapt_state();
  }
  ~Session() {
    // Queued frames die with the session: release their admission slots.
    sub_in_flight(queue_.size());
  }

  SessionId id() const { return id_; }
  const SessionConfig& config() const { return cfg_; }

  // ------------------------------------------------------ producer side --
  struct InFrame {
    fuse::radar::PointCloud cloud;
    /// Raw-cube ingestion: when set, the scheduler runs the DSP front-end
    /// (cube -> point cloud) on its own thread at collection time and
    /// `cloud` above is ignored.
    std::unique_ptr<fuse::radar::RadarCube> cube;
    std::optional<fuse::human::Pose> label;  ///< ground truth, if supplied
    double t_enqueue = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;  ///< recycle epoch at enqueue time
  };

  /// Enqueues a frame; applies the drop policy when the queue is full.
  /// Returns kQueueFull iff the *incoming* frame was rejected
  /// (kDropNewest), kMigrating (frame not enqueued) while a move is
  /// pending — tested under the same lock as the push, so no frame can
  /// land on a queue a move has already drained — else kAccepted or
  /// kQuarantined.
  SubmitResult enqueue(const fuse::radar::PointCloud& cloud,
                       const fuse::human::Pose* label, double now_s);

  /// Enqueues a raw radar cube (same drop policy and results); the DSP
  /// front-end runs on the scheduler thread when the frame is collected.
  SubmitResult enqueue_cube(fuse::radar::RadarCube cube,
                            const fuse::human::Pose* label, double now_s);

  /// Moves out every finished result (FIFO).
  std::vector<PoseResult> take_results();

  std::size_t queue_depth() const;

  // ----------------------------------------------------- scheduler side --
  /// Pops the oldest queued frame, if any.  `recycled` is set when a
  /// recycle request is being consumed by this pop: the flag and the queue
  /// are read under one lock, so any popped frame enqueued after a recycle
  /// request is guaranteed to be preceded by `*recycled == true` (i.e. the
  /// caller resets the streaming state before the frame is processed).
  std::optional<InFrame> pop(bool* recycled);

  /// Slides the fusion window by one frame (bounded at 2M+1 entries).
  void advance_window(const fuse::radar::PointCloud& cloud,
                      std::size_t window_frames);
  const std::deque<fuse::radar::PointCloud>& window() const { return window_; }

  fuse::core::PoseTracker& tracker() { return tracker_; }

  /// Delivers one finished result (bounded; evicts oldest beyond capacity).
  /// `epoch` is the source frame's recycle epoch: results computed from
  /// frames of a recycled-away subject are silently discarded.
  void push_result(PoseResult r, std::uint64_t epoch);

  /// The model this session predicts with: its adapted clone once online
  /// adaptation has run, else nullptr (= use the shared model).
  const fuse::nn::Module* adapted_model() const { return adapted_.get(); }
  std::unique_ptr<fuse::nn::Module>& adapted_slot() { return adapted_; }

  /// Labeled-sample ring buffer feeding adaptation rounds.
  struct LabeledSample {
    std::vector<float> x;  ///< featurized [5*8*8] block
    std::vector<float> y;  ///< normalized [57] label
  };
  std::deque<LabeledSample>& adapt_buffer() { return adapt_buffer_; }
  void buffer_labeled(LabeledSample s);

  /// Labeled samples buffered since the last adaptation round (gates the
  /// round cadence; scheduler-thread only).
  std::size_t fresh_labeled() const { return fresh_labeled_; }
  void clear_fresh_labeled() { fresh_labeled_ = 0; }

  /// Records a finished adaptation round (for telemetry).
  void note_adapt_round(float loss);

  /// Records that the clone store made this session's adapted clone
  /// resident again (eviction or warm restart), so the stats read
  /// kAdapted even on a freshly restored Session that has never run a
  /// round in this process.
  void note_rehydrated();

  /// Recycle for a new subject (any thread): immediately clears the
  /// producer-side state (queue, results, sequence numbers, counters) and
  /// marks the scheduler-side state (fusion window, tracker, adaptation
  /// buffer, per-user model) for reset, which the scheduler applies at the
  /// start of its next pass — so recycling never races a running pass.
  /// The session id and configuration survive.  Results of frames already
  /// in flight when recycle is requested are discarded on delivery.
  /// Returns the counter amounts the recycle zeroed (the previous
  /// subject's non-finite counts), for the caller to retire.
  FrameCounters request_recycle();

  /// Scheduler side: clears the streaming state (fusion window, tracker,
  /// adaptation buffer, per-user model) after pop() reported a recycle.
  void reset_stream_state();

  /// Current recycle epoch (stale in-flight frames carry an older one).
  std::uint64_t current_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recycle_epoch_;
  }

  /// Counter snapshot (locks the producer mutex).
  SessionStats stats_snapshot() const;

  // ------------------------------------------------- robustness (PR 8) --
  /// Producer side: the manager's admission gate refused this frame.
  void note_admission_rejected();
  /// Scheduler side: a queued frame went stale past the shed deadline and
  /// was dropped before the DSP/featurize/infer stages.
  void note_deadline_shed();
  /// A NaN/Inf input frame (cloud or DSP'd cube), or with `label` a
  /// NaN/Inf ground-truth label, was rejected; counts toward quarantine.
  /// Returns true when this rejection newly quarantined the session.
  bool note_non_finite(bool label);
  /// An adaptation round produced a non-finite loss: quarantine NOW —
  /// the clone is compromised and must be discarded by the caller.
  void note_adapt_failed();
  /// Quarantined sessions serve from the shared meta-init with adaptation
  /// disabled (recycle lifts the quarantine with the rest of the state).
  bool quarantined() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.quarantined;
  }

  // ------------------------------------------- placement and migration --
  // The session records the shard it lives on; serve::Server's registry
  // reads it to route submits and to hand each shard its sessions.  A
  // move is requested from any thread and executed by the source shard's
  // pass (the owner of the scheduler-side state); see Server.
  static constexpr std::size_t kNoMove = static_cast<std::size_t>(-1);

  /// The shard this session lives on.  Changed only by move_to().
  std::size_t shard() const { return shard_.load(std::memory_order_acquire); }

  /// True from request_move() until finish_move() of the last requested
  /// move: submits answer kMigrating in between.
  bool migrating() const {
    std::lock_guard<std::mutex> lock(mu_);
    return migrating_;
  }
  /// Producer side: a submit arrived mid-move and was bounced.
  void note_migration_rejected();

  /// Marks a move to `target` (any thread; the latest request wins if
  /// the previous one has not started).
  void request_move(std::size_t target);
  /// Owner pass: takes the requested target (kNoMove when there is none).
  std::size_t take_move();
  /// Owner pass: the taken move committed or rolled back.  Submits
  /// reopen unless another move was requested meanwhile.
  void finish_move();

  /// Migration driver: empties the queue, returning the frames for replay
  /// on the target shard.  They keep their gauge slots while held, so the
  /// gauges never lose sight of them.  Enqueue stamps (t_enqueue/seq/
  /// epoch) are preserved.
  std::deque<InFrame> drain_queue();
  /// Migration driver: re-enqueues previously drained frames at the FRONT
  /// of the queue (they predate anything submitted since); their gauge
  /// slots are still held.  Capacity is not re-checked: the queue was
  /// just drained and submits were refused since.
  void requeue(std::deque<InFrame> frames);
  /// Migration commit: places the session on `shard` and repoints the
  /// gauge at that shard's, moving the queued frames' counts (requeue the
  /// held backlog first) from the old gauge to the new — added to the new
  /// one first, so a concurrent sum of the shard gauges can over-count for
  /// an instant but never under-count.
  void move_to(std::size_t shard, std::atomic<std::size_t>* gauge);

  /// Scheduler side: set by the source shard when the session's adapted
  /// clone moves with it; the target shard registers the clone with its
  /// own store on its next pass (or persist) and clears the flag.
  void hand_off_clone() { clone_handoff_ = true; }
  bool take_clone_handoff() { return std::exchange(clone_handoff_, false); }

 private:
  /// Shared enqueue tail: stamps the frame and applies the drop policy.
  SubmitResult enqueue_frame(InFrame f, double now_s);

  /// kCollecting when adaptation is enabled, else kShared: the state of a
  /// fresh or recycled session.
  AdaptState initial_adapt_state() const {
    return cfg_.adapt.enabled ? AdaptState::kCollecting : AdaptState::kShared;
  }
  /// Serves from the shared meta-init from now on (caller holds mu_).
  void quarantine() {
    stats_.quarantined = true;
    stats_.adapt_state = AdaptState::kShared;
  }

  /// Ticks the bound gauge by +n / -n (callers hold mu_ or are the
  /// destructor).
  void add_in_flight(std::size_t n) {
    if (n != 0) in_flight_->fetch_add(n, std::memory_order_relaxed);
  }
  void sub_in_flight(std::size_t n) {
    if (n != 0) in_flight_->fetch_sub(n, std::memory_order_relaxed);
  }

  const SessionId id_;
  const SessionConfig cfg_;

  mutable std::mutex mu_;  ///< guards queue_, results_ and stats_
  std::deque<InFrame> queue_;
  std::deque<PoseResult> results_;
  std::uint64_t next_seq_ = 0;
  /// Every counter, the quarantine flag and the adaptation state as
  /// stats_snapshot() reports them (queue_depth is filled at snapshot).
  SessionStats stats_;
  bool migrating_ = false;
  std::size_t move_target_ = kNoMove;  ///< requested, not yet taken
  /// Written under mu_ and the server's registry lock; atomic so routing
  /// can read it without either.
  std::atomic<std::size_t> shard_;
  /// The queued-frame gauge of the shard the session lives on (see the
  /// constructor); repointed by move_to().
  std::atomic<std::size_t>* in_flight_;
  bool recycle_pending_ = false;
  std::uint64_t recycle_epoch_ = 0;  ///< bumped per recycle request

  // Scheduler-thread-only state.
  std::deque<fuse::radar::PointCloud> window_;
  fuse::core::PoseTracker tracker_;
  std::unique_ptr<fuse::nn::Module> adapted_;
  std::deque<LabeledSample> adapt_buffer_;
  std::size_t fresh_labeled_ = 0;
  bool clone_handoff_ = false;
};

}  // namespace fuse::serve
