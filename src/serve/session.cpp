#include "serve/session.h"

#include <algorithm>
#include <utility>

namespace fuse::serve {

const char* submit_result_name(SubmitResult r) {
  switch (r) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kQuarantined: return "quarantined";
    case SubmitResult::kQueueFull: return "queue_full";
    case SubmitResult::kAdmissionRejected: return "admission_rejected";
    case SubmitResult::kUnknownSession: return "unknown_session";
    case SubmitResult::kNoProcessor: return "no_processor";
    case SubmitResult::kMigrating: return "migrating";
  }
  return "?";
}

SubmitResult Session::enqueue(const fuse::radar::PointCloud& cloud,
                              const fuse::human::Pose* label, double now_s) {
  InFrame f;
  f.cloud = cloud;
  if (label) f.label = *label;
  return enqueue_frame(std::move(f), now_s);
}

SubmitResult Session::enqueue_cube(fuse::radar::RadarCube cube,
                                   const fuse::human::Pose* label,
                                   double now_s) {
  InFrame f;
  f.cube = std::make_unique<fuse::radar::RadarCube>(std::move(cube));
  if (label) f.label = *label;
  return enqueue_frame(std::move(f), now_s);
}

SubmitResult Session::enqueue_frame(InFrame f, double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (migrating_) {
    ++stats_.migration_rejected;
    return SubmitResult::kMigrating;
  }
  bool evicted = false;
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.frames_dropped;
    if (cfg_.drop_policy == DropPolicy::kDropNewest) {
      ++stats_.queue_rejected;
      return SubmitResult::kQueueFull;
    }
    ++stats_.queue_evicted;
    queue_.pop_front();  // kDropOldest: evict to keep the stream fresh
    evicted = true;      // net in-flight change is zero: -1 evicted, +1 new
  }
  f.t_enqueue = now_s;
  f.seq = next_seq_++;
  f.epoch = recycle_epoch_;
  queue_.push_back(std::move(f));
  stats_.queue_depth_hwm = std::max(stats_.queue_depth_hwm, queue_.size());
  ++stats_.frames_in;
  // An eviction nets zero queued frames (-1 evicted, +1 new), so the
  // gauges only tick on a genuine depth increase.
  if (!evicted) add_in_flight(1);
  // Quarantined sessions still serve (from the shared meta-init), so the
  // frame IS enqueued — the code just surfaces the sensor problem.
  return stats_.quarantined ? SubmitResult::kQuarantined
                            : SubmitResult::kAccepted;
}

std::vector<PoseResult> Session::take_results() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoseResult> out(results_.begin(), results_.end());
  results_.clear();
  return out;
}

std::size_t Session::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::optional<Session::InFrame> Session::pop(bool* recycled) {
  std::lock_guard<std::mutex> lock(mu_);
  *recycled = recycle_pending_;
  recycle_pending_ = false;
  if (queue_.empty()) return std::nullopt;
  InFrame f = std::move(queue_.front());
  queue_.pop_front();
  sub_in_flight(1);
  return f;
}

void Session::advance_window(const fuse::radar::PointCloud& cloud,
                             std::size_t window_frames) {
  window_.push_back(cloud);
  while (window_.size() > window_frames) window_.pop_front();
}

void Session::push_result(PoseResult r, std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != recycle_epoch_) {  // stale subject: discard
    ++stats_.results_stale;
    return;
  }
  if (results_.size() >= cfg_.results_capacity) {
    results_.pop_front();
    ++stats_.results_evicted;
  }
  results_.push_back(std::move(r));
  ++stats_.frames_out;
}

void Session::buffer_labeled(LabeledSample s) {
  adapt_buffer_.push_back(std::move(s));
  while (adapt_buffer_.size() > cfg_.adapt.buffer_capacity)
    adapt_buffer_.pop_front();
  ++fresh_labeled_;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.adapt_buffered = adapt_buffer_.size();
}

void Session::note_adapt_round(float loss) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.adapt_state == AdaptState::kCollecting)
    stats_.adapt_state = AdaptState::kAdapted;
  ++stats_.adapt_rounds;
  stats_.last_adapt_loss = loss;
}

void Session::note_rehydrated() {
  // A quarantined or non-adapting session stays kShared.
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.adapt_state == AdaptState::kCollecting)
    stats_.adapt_state = AdaptState::kAdapted;
}

FrameCounters Session::request_recycle() {
  std::lock_guard<std::mutex> lock(mu_);
  sub_in_flight(queue_.size());
  queue_.clear();
  results_.clear();
  next_seq_ = 0;  // the new subject's stream counts from zero
  recycle_pending_ = true;
  ++recycle_epoch_;
  stats_.queue_depth_hwm = 0;  // describes the new subject only
  // Quarantine and the counters that gate it describe the previous
  // subject's sensor, not the session slot: the new subject starts clean.
  FrameCounters zeroed;
  zeroed.non_finite_frames = std::exchange(stats_.non_finite_frames, 0);
  zeroed.non_finite_labels = std::exchange(stats_.non_finite_labels, 0);
  stats_.quarantined = false;
  stats_.adapt_state = initial_adapt_state();
  stats_.adapt_buffered = 0;
  stats_.adapt_rounds = 0;
  stats_.last_adapt_loss = 0.0f;
  return zeroed;
}

void Session::reset_stream_state() {
  // Safe without locking: this runs on the scheduler thread, the sole
  // owner of the streaming state below.
  window_.clear();
  tracker_.reset();
  adapted_.reset();
  adapt_buffer_.clear();
  fresh_labeled_ = 0;
}

void Session::note_migration_rejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.migration_rejected;
}

std::deque<Session::InFrame> Session::drain_queue() {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<InFrame> out;
  out.swap(queue_);
  return out;
}

void Session::requeue(std::deque<InFrame> frames) {
  if (frames.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames.rbegin(); it != frames.rend(); ++it)
    queue_.push_front(std::move(*it));
  stats_.queue_depth_hwm = std::max(stats_.queue_depth_hwm, queue_.size());
}

void Session::move_to(std::size_t shard, std::atomic<std::size_t>* gauge) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_.store(shard, std::memory_order_release);
  const std::size_t n = queue_.size();
  std::atomic<std::size_t>* from = std::exchange(in_flight_, gauge);
  add_in_flight(n);  // target first: a concurrent sum never under-counts
  if (n != 0) from->fetch_sub(n, std::memory_order_relaxed);
}

void Session::request_move(std::size_t target) {
  std::lock_guard<std::mutex> lock(mu_);
  migrating_ = true;
  move_target_ = target;
}

std::size_t Session::take_move() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(move_target_, kNoMove);
}

void Session::finish_move() {
  std::lock_guard<std::mutex> lock(mu_);
  migrating_ = move_target_ != kNoMove;
}

void Session::note_admission_rejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.admission_rejected;
}

void Session::note_deadline_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.deadline_shed;
}

bool Session::note_non_finite(bool label) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(label ? stats_.non_finite_labels : stats_.non_finite_frames);
  if (stats_.quarantined || cfg_.quarantine_after == 0 ||
      stats_.non_finite_frames + stats_.non_finite_labels <
          cfg_.quarantine_after)
    return false;
  quarantine();
  return true;
}

void Session::note_adapt_failed() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cfg_.quarantine_after != 0) quarantine();
  if (stats_.adapt_state == AdaptState::kAdapted)
    stats_.adapt_state = AdaptState::kCollecting;
  stats_.adapt_buffered = 0;
}

SessionStats Session::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats s = stats_;
  s.queue_depth = queue_.size();
  return s;
}

}  // namespace fuse::serve
