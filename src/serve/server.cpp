#include "serve/server.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "nn/delta.h"
#include "serve/shard.h"
#include "serve/telemetry.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/log.h"

namespace fuse::serve {

void validate_session_config(const SessionConfig& cfg) {
  if (cfg.queue_capacity == 0)
    throw std::invalid_argument(
        "SessionConfig: queue_capacity must be >= 1");
  if (cfg.results_capacity == 0)
    throw std::invalid_argument(
        "SessionConfig: results_capacity must be >= 1");
  if (cfg.adapt.enabled) {
    if (cfg.adapt.min_samples == 0)
      throw std::invalid_argument(
          "SessionConfig: adapt.min_samples must be >= 1 when adaptation "
          "is enabled");
    if (cfg.adapt.buffer_capacity < cfg.adapt.min_samples)
      throw std::invalid_argument(
          "SessionConfig: adapt.buffer_capacity must hold at least "
          "adapt.min_samples labeled frames");
    if (cfg.adapt.round_every == 0 || cfg.adapt.steps_per_round == 0)
      throw std::invalid_argument(
          "SessionConfig: adapt.round_every and adapt.steps_per_round "
          "must be >= 1");
  }
}

void ServeConfig::validate() const {
  if (max_sessions == 0)
    throw std::invalid_argument("ServeConfig: max_sessions must be >= 1");
  if (max_batch == 0)
    throw std::invalid_argument("ServeConfig: max_batch must be >= 1");
  if (num_shards == 0)
    throw std::invalid_argument("ServeConfig: num_shards must be >= 1");
  if (num_shards > max_sessions)
    throw std::invalid_argument(
        "ServeConfig: num_shards exceeds max_sessions (shards beyond the "
        "session cap can never receive a session)");
  if (rebalance_every != 0 && rebalance_ratio < 1.0)
    throw std::invalid_argument(
        "ServeConfig: rebalance_ratio must be >= 1 when the rebalance "
        "hook is armed");
  validate_session_config(session);
}

Server::Server(const fuse::core::Predictor* predictor,
               const fuse::nn::Module* shared_model, ServeConfig cfg)
    : predictor_(predictor),
      shared_model_(shared_model),
      cfg_(std::move(cfg)) {
  if (!predictor_ || !predictor_->valid())
    throw std::invalid_argument("serve::Server: predictor not fitted");
  if (!shared_model_)
    throw std::invalid_argument("serve::Server: null shared model");
  cfg_.validate();
  shards_.reserve(cfg_.num_shards);
  for (std::size_t k = 0; k < cfg_.num_shards; ++k)
    shards_.push_back(
        std::make_unique<Shard>(predictor_, shared_model_, cfg_, k));
}

Server::~Server() { stop(); }

// ----------------------------------------------------------- registry --

std::shared_ptr<Session> Server::find(SessionId id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Session>> Server::sessions_on(
    std::size_t k) const {
  std::vector<std::shared_ptr<Session>> out;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [id, s] : registry_)
    if (s->shard() == k) out.push_back(s);
  return out;
}

std::size_t Server::in_flight() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh->in_flight();
  return n;
}

SessionId Server::open_session() { return open_session(cfg_.session); }

SessionId Server::open_session(SessionConfig scfg) {
  validate_session_config(scfg);
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (registry_.size() >= cfg_.max_sessions)
    throw std::runtime_error("serve::Server: max_sessions reached");
  const SessionId id = next_id_++;
  const std::size_t k = home_shard(id);
  registry_.emplace(id, std::make_shared<Session>(id, std::move(scfg), k,
                                                  shards_[k]->gauge()));
  FUSE_LOG_DEBUG("serve: opened session %zu on shard %zu", id, k);
  return id;
}

void Server::close_session(SessionId id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(id);
    if (it == registry_.end()) return;
    s = std::move(it->second);
    registry_.erase(it);
    // The session's history stays in the fleet counters, on the shard it
    // was on: a move commits under this lock, so the shard is final, and
    // a snapshot that no longer finds the session finds its record.
    shards_[s->shard()]->retire(s->stats_snapshot());
  }
  // A move that committed before the erase already handed the clone to
  // the target.  Scheduler-side cleanup (entry + checkpoint file) happens
  // at the start of that shard's next pass; until then the store never
  // dereferences the session.
  shards_[s->shard()]->store().request_forget(id);
  notify_moves();  // a threaded mover waiting on this session gives up
}

void Server::recycle_session(SessionId id) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const auto it = registry_.find(id);
  // The non-finite counts the recycle zeroes stay in the fleet counters.
  if (it != registry_.end())
    shards_[it->second->shard()]->retire(it->second->request_recycle());
}

std::size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return registry_.size();
}

namespace {
/// Sensor-corruption fault: poke a quiet NaN into the payload.  The
/// scheduler's input guards, not the producer, must catch it — exactly as
/// with a real glitching sensor.
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
}  // namespace

template <class Enqueue>
SubmitResult Server::submit(SessionId id, const fuse::human::Pose* label,
                            Enqueue&& enqueue) {
  const auto s = find(id);
  if (!s) return SubmitResult::kUnknownSession;
  if (s->migrating()) {
    // Mid-move: the queue is being drained for replay on the target shard;
    // enqueueing here would strand the frame.  Retry-after semantics — the
    // producer resubmits once the move commits (one scheduler pass).
    // Session::enqueue re-tests this under the queue lock.
    s->note_migration_rejected();
    return SubmitResult::kMigrating;
  }
  // Admission gate: the GLOBAL in-flight budget.
  if (cfg_.max_in_flight != 0 && in_flight() >= cfg_.max_in_flight) {
    s->note_admission_rejected();
    return SubmitResult::kAdmissionRejected;
  }
  fuse::human::Pose bad_label;
  if (label != nullptr &&
      fuse::util::fault_fire(fuse::util::FaultPoint::kCorruptLabel)) {
    bad_label = *label;
    bad_label.joints[0].x = kNaN;
    label = &bad_label;
  }
  const SubmitResult r = enqueue(*s, label);
  // An accepted enqueue read the shard after the last move resolved (the
  // session lock orders them), so this wakes the shard that serves it.
  shards_[s->shard()]->wake();
  return r;
}

SubmitResult Server::submit_frame(SessionId id,
                                  const fuse::radar::PointCloud& cloud,
                                  const fuse::human::Pose* label) {
  return submit(id, label, [&](Session& s, const fuse::human::Pose* l) {
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kCorruptCloud)) {
      fuse::radar::PointCloud bad = cloud;
      if (bad.points.empty()) bad.points.emplace_back();
      bad.points[0].y = kNaN;
      return s.enqueue(bad, l, mono_seconds());
    }
    return s.enqueue(cloud, l, mono_seconds());
  });
}

SubmitResult Server::submit_cube(SessionId id, fuse::radar::RadarCube cube,
                                 const fuse::human::Pose* label) {
  if (cfg_.processor == nullptr)  // no DSP front-end wired
    return SubmitResult::kNoProcessor;
  // Shape check on the producer's thread, before routing or any counter:
  // a misfit cube would otherwise throw inside the shard pass.
  cfg_.processor->check_shape(cube);
  return submit(id, label, [&](Session& s, const fuse::human::Pose* l) {
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kCorruptCube) &&
        cube.n_virtual() > 0)
      cube.at(0, 0, 0) = {kNaN, kNaN};
    return s.enqueue_cube(std::move(cube), l, mono_seconds());
  });
}

std::vector<PoseResult> Server::poll_results(SessionId id) {
  const auto s = find(id);
  if (!s) return {};
  auto out = s->take_results();
  // Result-poll stage, recorded on the consumer thread into the session's
  // current shard.
  shards_[s->shard()]->record_poll(out);
  return out;
}

// ------------------------------------------------- placement / migration --

std::size_t Server::shard_of(SessionId id) const {
  const auto s = find(id);
  return s ? s->shard() : home_shard(id);
}

void Server::notify_moves() {
  // Taking the lock orders this notify after any waiter's predicate check.
  { std::lock_guard<std::mutex> lock(moves_mu_); }
  moves_cv_.notify_all();
}

bool Server::migrate_session(SessionId id, std::size_t target_shard) {
  if (target_shard >= shards_.size()) return false;
  const auto s = find(id);
  if (!s) return false;
  if (s->shard() == target_shard) return true;
  s->request_move(target_shard);
  if (!running()) return true;  // commits inside the next run_once()/drain()
  shards_[s->shard()]->wake();
  std::unique_lock<std::mutex> lock(moves_mu_);
  moves_cv_.wait(lock, [&] {
    return !s->migrating() || find(id) != s || !running();
  });
  if (find(id) != s) return false;  // closed: nothing moved
  // Settled: committed iff the session now lives on the target.  Stopped
  // first: the move stays requested and commits in the next
  // run_once()/drain().
  return s->migrating() || s->shard() == target_shard;
}

bool Server::execute_move(Session& s, std::size_t k) {
  const std::size_t target = s.take_move();
  if (target == Session::kNoMove) return false;
  if (target == k) {
    s.finish_move();  // moved back before running: just reopen submits
    notify_moves();
    return false;
  }
  Shard& from = *shards_[k];
  Shard& to = *shards_[target];
  const double t0 = mono_seconds();
  auto frames = s.drain_queue();
  // An evicted clone must travel with the session: pull it resident
  // before the codec round-trip.
  if (from.store().enabled()) from.store().ensure_resident(s);
  bool ok;
  if (s.adapted_model() != nullptr) {
    // Checkpoint through the delta codec — the same format eviction and
    // warm restart use — so the target adopts exactly the state a crash
    // recovery would restore (bit-exact in fp32 mode).
    ok = !fuse::util::fault_fire(fuse::util::FaultPoint::kMigrationKill);
    if (ok) {
      const auto delta = fuse::nn::extract_delta(
          *s.adapted_model(), *shared_model_, cfg_.clone_store.delta);
      ok = !fuse::util::fault_fire(
          fuse::util::FaultPoint::kTargetShardCrash);
      if (ok) {
        s.adapted_slot() =
            fuse::nn::rehydrate_from_delta(*shared_model_, delta);
        s.hand_off_clone();  // the target's store adopts it
      }
    }
  } else {
    // A bare (un-adapted) move can still be killed mid-flight.
    ok = !fuse::util::fault_fire(fuse::util::FaultPoint::kMigrationKill) &&
         !fuse::util::fault_fire(fuse::util::FaultPoint::kTargetShardCrash);
  }
  bool committed = false;
  {
    // Commit point, under the registry lock: it is ordered against
    // close_session, and the target's pass cannot pick the session up
    // before its backlog is back and submits have reopened.
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(s.id());
    committed = ok && it != registry_.end() && it->second.get() == &s;
    // Replay the drained backlog in order: on the target, or back on the
    // source after a crash (or a close) mid-move.  Requeued first, so the
    // commit moves its gauge slots to the target with the rest.
    s.requeue(std::move(frames));
    if (committed) s.move_to(target, to.gauge());
    s.finish_move();
  }
  if (!ok) {
    from.note_migration_failure();
    from.record_migration(mono_seconds() - t0);
  }
  notify_moves();
  if (!committed) return false;
  if (from.store().enabled()) from.store().forget(s.id());
  from.note_migration_out();
  to.note_migration_in();
  from.record_migration(mono_seconds() - t0);
  to.wake();  // an idle target would otherwise leave the backlog queued
  return true;
}

std::size_t Server::pass(std::size_t k) {
  auto owned = sessions_on(k);
  bool moved = false;
  for (const auto& s : owned) moved |= execute_move(*s, k);
  if (moved)
    std::erase_if(owned, [k](const auto& s) { return s->shard() != k; });
  return shards_[k]->run_pass(owned);
}

void Server::maybe_rebalance() {
  if (cfg_.rebalance_every == 0 || shards_.size() < 2) return;
  if (++ticks_ % cfg_.rebalance_every != 0) return;
  std::size_t hot = 0, cold = 0;
  std::size_t hot_depth = 0;
  std::size_t cold_depth = std::numeric_limits<std::size_t>::max();
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::size_t d = shards_[k]->in_flight();
    if (d > hot_depth) hot = k, hot_depth = d;
    if (d < cold_depth) cold = k, cold_depth = d;
  }
  // Move only on a real imbalance: ratio over the (floored) cold depth
  // AND at least one queue's worth of absolute gap, so near-idle noise
  // never triggers churn.
  if (hot == cold) return;
  const auto floor_cold = std::max<std::size_t>(cold_depth, 1);
  if (static_cast<double>(hot_depth) <
          cfg_.rebalance_ratio * static_cast<double>(floor_cold) ||
      hot_depth - cold_depth < cfg_.session.queue_capacity)
    return;
  std::shared_ptr<Session> pick;
  std::size_t pick_depth = 0;
  for (const auto& s : sessions_on(hot)) {
    const std::size_t depth = s->queue_depth();
    if (depth > pick_depth) pick = s, pick_depth = depth;
  }
  if (pick) pick->request_move(cold);  // runs at the top of hot's pass
}

std::size_t Server::run_once() {
  maybe_rebalance();
  std::size_t served = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k) served += pass(k);
  return served;
}

std::size_t Server::drain() {
  // Drain shard by shard.  A move executed by a later shard's pass can
  // requeue frames onto an earlier, already drained shard, so repeat
  // until no frame is queued anywhere.
  std::size_t total = 0;
  do {
    for (std::size_t k = 0; k < shards_.size(); ++k)
      while (const std::size_t served = pass(k)) total += served;
  } while (in_flight() != 0);
  return total;
}

void Server::start() {
  if (running_.exchange(true)) return;
  for (std::size_t k = 0; k < shards_.size(); ++k)
    shards_[k]->start([this, k] { return pass(k); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  for (auto& sh : shards_) sh->stop();
  notify_moves();
}

namespace {

/// Parsed `<dir>/shard_map` — the persisted placement table.  The file
/// records the store's shard count plus every off-home (migrated)
/// session's pinned shard:
///
///   FUSESHMAP1
///   shards <N>
///   <id> <shard>          (one line per migrated session)
///
/// kMissing = pre-migration store (pure-hash placement required);
/// kInvalid = torn/corrupt write (the on-disk placement is the truth).
struct ShardMapFile {
  enum class Status { kMissing, kInvalid, kValid };
  Status status = Status::kMissing;
  std::size_t shards = 0;
  std::unordered_map<SessionId, std::size_t> overrides;
};

std::string shard_map_path(const std::string& dir) {
  return dir + "/shard_map";
}

ShardMapFile read_shard_map(const std::string& dir) {
  ShardMapFile map;
  std::ifstream in(shard_map_path(dir));
  if (!in.is_open()) return map;  // kMissing
  map.status = ShardMapFile::Status::kInvalid;  // until fully parsed
  std::string magic;
  if (!std::getline(in, magic) || magic != "FUSESHMAP1") return map;
  std::string key;
  std::size_t shards = 0;
  if (!(in >> key >> shards) || key != "shards" || shards == 0) return map;
  SessionId id = 0;
  std::size_t shard = 0;
  std::unordered_map<SessionId, std::size_t> overrides;
  while (in >> id >> shard) {
    if (shard >= shards) return map;  // torn/garbage tail
    overrides.emplace(id, shard);
  }
  if (!in.eof()) return map;  // stopped on a malformed line, not EOF
  map.status = ShardMapFile::Status::kValid;
  map.shards = shards;
  map.overrides = std::move(overrides);
  return map;
}

[[noreturn]] void throw_reshard_needed(const std::string& dir,
                                       const std::string& detail) {
  throw std::logic_error(
      "serve::Server::restore_clones: the clone store at '" + dir +
      "' was persisted under a different shard layout (" + detail +
      ") — changing num_shards is an offline data migration: run "
      "`tools/reshard --to <num_shards> " + dir + "` first");
}

}  // namespace

void Server::persist_clones() {
  if (running())
    throw std::logic_error("Server::persist_clones: stop() the server first");
  for (std::size_t k = 0; k < shards_.size(); ++k)
    shards_[k]->persist_clones(sessions_on(k));
  const std::string& dir = cfg_.clone_store.dir;
  if (dir.empty() || shards_.size() < 2) return;
  // Persist the placement table next to the per-shard stores so migrated
  // sessions restore onto the shard that holds their checkpoint.  The
  // `shards` header doubles as the topology stamp restore_clones checks.
  std::string payload = "FUSESHMAP1\nshards " +
                        std::to_string(shards_.size()) + "\n";
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [id, s] : registry_)
      if (s->shard() != home_shard(id))  // off-home sessions only
        payload += std::to_string(id) + " " + std::to_string(s->shard()) +
                   "\n";
  }
  const std::string path = shard_map_path(dir);
  if (fuse::util::fault_fire(fuse::util::FaultPoint::kTornShardMap)) {
    // Simulated crash mid-write: only a prefix of the map reaches disk.
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
    return;
  }
  try {
    fuse::util::write_file_atomic(path, payload);
  } catch (const std::exception& e) {
    // Same best-effort contract as clone checkpoints: a failed map write
    // leaves the previous generation in place (stale beats absent).
    FUSE_LOG_DEBUG("serve: shard_map write failed: %s", e.what());
  }
}

std::vector<SessionId> Server::restore_clones(const SessionConfig& scfg) {
  if (running())
    throw std::logic_error("Server::restore_clones: call before start()");
  validate_session_config(scfg);
  std::vector<SessionId> out;
  std::lock_guard<std::mutex> lock(registry_mu_);
  const std::string& dir = cfg_.clone_store.dir;
  ShardMapFile map;
  if (!dir.empty()) {
    map = read_shard_map(dir);
    if (map.status == ShardMapFile::Status::kValid &&
        map.shards != shards_.size())
      throw_reshard_needed(dir, "shard_map says shards=" +
                                    std::to_string(map.shards) +
                                    ", this server runs " +
                                    std::to_string(shards_.size()));
    // Layout sanity independent of the map file (covers torn maps and
    // pre-map stores): leftover shard dirs beyond our count, or a flat
    // single-shard store under a multi-shard server (and vice versa),
    // mean the data belongs to a different topology.
    const std::filesystem::path root(dir);
    for (std::size_t k = shards_.size(); ; ++k) {
      const auto shard_dir = root / ("shard_" + std::to_string(k));
      std::error_code ec;
      if (!std::filesystem::is_directory(shard_dir, ec)) break;
      if (dir_has_store_data(shard_dir))
        throw_reshard_needed(dir, "checkpoints present in shard_" +
                                      std::to_string(k) + " beyond this "
                                      "server's " +
                                      std::to_string(shards_.size()) +
                                      " shards");
    }
    if (shards_.size() > 1 && dir_has_store_data(root))
      throw_reshard_needed(dir, "flat single-shard checkpoints under a " +
                                    std::to_string(shards_.size()) +
                                    "-shard server");
    if (shards_.size() == 1 && dir_has_store_data(root / "shard_0"))
      throw_reshard_needed(dir,
                           "sharded checkpoints under a 1-shard server");
  }
  std::unordered_set<SessionId> seen;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    // Registers the shard store's checkpoints; their sessions are
    // re-created below, on shard k.
    const auto ids = shards_[k]->store().restore();
    for (const SessionId id : ids) {
      if (!seen.insert(id).second)
        throw_reshard_needed(dir, "session " + std::to_string(id) +
                                      " has checkpoints on two shards "
                                      "(mixed layout)");
      if (registry_.count(id))
        throw std::logic_error("Server::restore_clones: session id " +
                               std::to_string(id) + " already open");
      if (home_shard(id) != k) {
        // Off-home checkpoint: legal only when the placement table pins
        // it here (a migrated session) or the table was torn — then the
        // on-disk placement is the best available truth.
        bool pinned = false;
        switch (map.status) {
          case ShardMapFile::Status::kValid: {
            const auto it = map.overrides.find(id);
            pinned = it != map.overrides.end() && it->second == k;
            break;
          }
          case ShardMapFile::Status::kInvalid:
            pinned = true;
            break;
          case ShardMapFile::Status::kMissing:
            pinned = false;
            break;
        }
        if (!pinned)
          throw_reshard_needed(
              dir, "checkpoint for session " + std::to_string(id) +
                       " found on shard " + std::to_string(k) +
                       " but hashes to shard " +
                       std::to_string(home_shard(id)) +
                       " with no shard_map entry");
      }
      registry_.emplace(
          id, std::make_shared<Session>(id, scfg, k, shards_[k]->gauge()));
      // Fresh ids must never collide with a restored one.
      next_id_ = std::max(next_id_, id + 1);
      out.push_back(id);
    }
  }
  if (registry_.size() > cfg_.max_sessions)
    throw std::runtime_error("serve::Server: max_sessions reached");
  std::sort(out.begin(), out.end());
  FUSE_LOG_DEBUG("serve: restored %zu clone sessions across %zu shards",
                 out.size(), shards_.size());
  return out;
}

namespace {

/// Completes a snapshot whose per-shard and per-session rows, retired
/// counters and clone store the shards' report() calls filled in: sums and
/// maxima over those rows, then the read-time rates and quantiles from the
/// merged pass record.
ServeStats derive_stats(ServeStats out, const PassRecord& totals) {
  // Per-session rows sorted by id across shards (ids interleave between
  // shards).
  std::sort(out.per_session.begin(), out.per_session.end(),
            [](const SessionStats& a, const SessionStats& b) {
              return a.id < b.id;
            });
  out.sessions = out.per_session.size();
  for (const auto& ss : out.per_session) {
    out += ss;
    out.queue_depth_hwm = std::max(out.queue_depth_hwm, ss.queue_depth_hwm);
    if (ss.quarantined) ++out.quarantined_sessions;
  }
  out.shards = out.per_shard.size();
  for (const auto& row : out.per_shard) {
    out.in_flight += row.in_flight;
    out.overload_level = std::max(out.overload_level, row.overload_level);
    out.overload_transitions += row.overload_transitions;
    // Each completed move is one adoption, so Σ in = completed moves.
    out.migrations += row.migrations_in;
    out.migration_failures += row.migration_failures;
  }
  // Queue drops over frames offered (accepted + rejected): the serving
  // plane's backpressure ratio, gated by bench/check_regression.py.
  const auto offered = out.frames_in + out.queue_rejected;
  out.drop_rate = offered ? static_cast<double>(out.frames_dropped) /
                                static_cast<double>(offered)
                          : 0.0;
  // Scheduler-side deadline sheds over the same denominator (gated
  // separately from drop_rate: sheds only exist at degradation rung 3).
  out.shed_rate = offered ? static_cast<double>(out.deadline_shed) /
                                static_cast<double>(offered)
                          : 0.0;
  out.overload_level_name =
      overload_level_name(static_cast<OverloadLevel>(out.overload_level));
  out.batches = totals.batches;
  out.mean_batch = out.batches ? static_cast<double>(totals.frames) /
                                     static_cast<double>(out.batches)
                               : 0.0;
  out.latency_p50_ms = totals.latency.p50() * 1e3;
  out.latency_p95_ms = totals.latency.p95() * 1e3;
  out.latency_p99_ms = totals.latency.p99() * 1e3;
  out.latency_mean_ms = totals.latency.mean() * 1e3;
  out.latency_max_ms = totals.latency.max() * 1e3;
  // Derived per-stage and per-backend views, computed at read time from
  // the merged histograms (never on the hot path).
  out.stages.reserve(kNumStages);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto stage = static_cast<Stage>(i);
    out.stages.push_back(
        snapshot_stage(stage, totals.telem.stages.histogram(stage)));
  }
  out.backends.reserve(kNumBackends);
  for (std::size_t i = 0; i < kNumBackends; ++i)
    out.backends.push_back(
        snapshot_backend(backend_from_index(i), totals.telem.backends[i]));
  return out;
}

}  // namespace

ServeStats Server::stats() const {
  ServeStats out;
  PassRecord totals;
  for (std::size_t k = 0; k < shards_.size(); ++k)
    shards_[k]->report(sessions_on(k), out, totals);
  return derive_stats(std::move(out), totals);
}

ServeStats Server::stats(std::size_t shard) const {
  if (shard >= shards_.size())
    throw std::out_of_range("serve::Server::stats: shard index " +
                            std::to_string(shard) + " out of range");
  ServeStats out;
  PassRecord totals;
  shards_[shard]->report(sessions_on(shard), out, totals);
  return derive_stats(std::move(out), totals);
}

}  // namespace fuse::serve
