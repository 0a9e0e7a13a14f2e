#include "serve/reshard.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/delta.h"
#include "serve/clone_store/clone_store.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/log.h"

namespace fs = std::filesystem;

namespace fuse::serve {
namespace {

constexpr const char* kJournalMagic = "FUSERESHARD1";
constexpr const char* kManifestMagic = "FUSECLONES1";
constexpr const char* kShardMapMagic = "FUSESHMAP1";

std::size_t home_shard(SessionId id, std::size_t shards) {
  return id == 0 ? 0 : (id - 1) % shards;
}

/// Shard k's directory under `layout_shards` total (flat for 1 shard —
/// the clone store's own layout rule, see Shard's dir rewrite).
fs::path shard_dir(const std::string& dir, std::size_t k,
                   std::size_t layout_shards) {
  if (layout_shards <= 1) return fs::path(dir);
  return fs::path(dir) / ("shard_" + std::to_string(k));
}

fs::path clone_path(const std::string& dir, std::size_t k,
                    std::size_t layout_shards, SessionId id) {
  return shard_dir(dir, k, layout_shards) /
         ("clone_" + std::to_string(id) + ".delta");
}

fs::path manifest_path(const std::string& dir, std::size_t k,
                       std::size_t layout_shards) {
  return shard_dir(dir, k, layout_shards) / "clones.manifest";
}

fs::path journal_path(const std::string& dir) {
  return fs::path(dir) / "reshard.journal";
}

fs::path shard_map_path(const std::string& dir) {
  return fs::path(dir) / "shard_map";
}

/// One planned checkpoint move; src == dst paths means "kept in place".
struct Move {
  SessionId id = 0;
  std::size_t src = 0;  ///< shard index in the OLD layout
  std::size_t dst = 0;  ///< shard index in the NEW layout
};

struct Journal {
  enum class Status { kMissing, kInvalid, kValid };
  enum class Phase { kPlan, kCopied };
  Status status = Status::kMissing;
  Phase phase = Phase::kPlan;
  std::size_t from = 0;
  std::size_t to = 0;
  std::vector<Move> moves;
};

Journal read_journal(const std::string& dir) {
  Journal j;
  std::ifstream in(journal_path(dir));
  if (!in.is_open()) return j;  // kMissing
  j.status = Journal::Status::kInvalid;  // until fully parsed
  std::string magic, key, phase;
  if (!std::getline(in, magic) || magic != kJournalMagic) return j;
  if (!(in >> key >> j.from) || key != "from" || j.from == 0) return j;
  if (!(in >> key >> j.to) || key != "to" || j.to == 0) return j;
  if (!(in >> key >> phase) || key != "phase") return j;
  if (phase == "plan")
    j.phase = Journal::Phase::kPlan;
  else if (phase == "copied")
    j.phase = Journal::Phase::kCopied;
  else
    return j;
  Move m;
  while (in >> m.id >> m.src >> m.dst) {
    if (m.src >= j.from || m.dst >= j.to) return j;  // garbage tail
    j.moves.push_back(m);
  }
  if (!in.eof()) return j;  // stopped on a malformed line
  j.status = Journal::Status::kValid;
  return j;
}

/// Writes the journal atomically.  The kTornShardMap fault models a
/// crash mid-write: a prefix reaches disk and the process dies.
void write_journal(const std::string& dir, const Journal& j,
                   Journal::Phase phase) {
  std::string payload = std::string(kJournalMagic) + "\nfrom " +
                        std::to_string(j.from) + "\nto " +
                        std::to_string(j.to) + "\nphase " +
                        (phase == Journal::Phase::kPlan ? "plan" : "copied") +
                        "\n";
  for (const auto& m : j.moves)
    payload += std::to_string(m.id) + " " + std::to_string(m.src) + " " +
               std::to_string(m.dst) + "\n";
  const std::string path = journal_path(dir).string();
  if (fuse::util::fault_fire(fuse::util::FaultPoint::kTornShardMap)) {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
    throw std::runtime_error(
        "reshard: injected crash — torn journal write at " + path);
  }
  fuse::util::write_file_atomic(path, payload);
}

/// Migrated-placement pins from the old layout's shard_map (PR 10 live
/// migration): duplicate-id resolution prefers the pinned shard.
std::unordered_map<SessionId, std::size_t> read_shard_map_pins(
    const std::string& dir, std::size_t from) {
  std::unordered_map<SessionId, std::size_t> pins;
  if (from <= 1) return pins;
  std::ifstream in(shard_map_path(dir));
  if (!in.is_open()) return pins;
  std::string magic, key;
  std::size_t shards = 0;
  if (!std::getline(in, magic) || magic != kShardMapMagic) return pins;
  if (!(in >> key >> shards) || key != "shards" || shards != from)
    return pins;  // torn or for a different topology: ignore
  SessionId id = 0;
  std::size_t shard = 0;
  while (in >> id >> shard)
    if (shard < from) pins.emplace(id, shard);
  return pins;
}

bool decodes_cleanly(const fs::path& path, const fuse::nn::Module* base) {
  try {
    const auto delta = fuse::nn::ParamDelta::load_file(path.string());
    if (base != nullptr && delta.arch != base->arch_name()) return false;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::size_t autodetect_from(const std::string& dir) {
  // A bare shard_k directory is not layout evidence: a sharded server
  // pointed at this store creates its shards' (empty) store directories
  // on construction, before restore_clones() can refuse the layout.
  // Only directories actually holding a manifest or checkpoints count.
  std::size_t from = 1;
  for (std::size_t k = 0; fs::is_directory(shard_dir(dir, k, 2)); ++k)
    if (dir_has_store_data(shard_dir(dir, k, 2))) from = k + 1;
  return from;
}

/// Enumerates every usable checkpoint in the old layout and plans its
/// new-layout home.  Duplicate ids (possible after a crash between a
/// live migration's copy and delete) resolve shard_map pin > old home
/// shard > lowest shard index.
std::vector<Move> plan_moves(const std::string& dir, std::size_t from,
                             std::size_t to, const fuse::nn::Module* base,
                             std::size_t* skipped) {
  // id -> old shards that hold a file for it (std::map: deterministic
  // journal order).
  std::map<SessionId, std::set<std::size_t>> found;
  for (std::size_t k = 0; k < from; ++k) {
    const fs::path d = shard_dir(dir, k, from);
    std::set<SessionId> candidates;
    {
      std::ifstream is(manifest_path(dir, k, from));
      std::string magic;
      if (is && std::getline(is, magic) && magic == kManifestMagic) {
        SessionId id = 0;
        while (is >> id) candidates.insert(id);
      }
    }
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(d, ec)) {
      SessionId id = 0;
      if (e.is_regular_file() &&
          parse_clone_filename(e.path().filename().string(), &id))
        candidates.insert(id);
    }
    for (const SessionId id : candidates)
      if (fs::exists(clone_path(dir, k, from, id))) found[id].insert(k);
  }
  const auto pins = read_shard_map_pins(dir, from);
  std::vector<Move> moves;
  for (const auto& [id, shards] : found) {
    // Candidate order: shard_map pin > old home shard > the rest.  The
    // first copy that decodes wins — a torn stray left by an interrupted
    // copy must not shadow a clean source elsewhere.
    std::vector<std::size_t> order;
    const auto push = [&](std::size_t k) {
      if (shards.count(k) != 0 &&
          std::find(order.begin(), order.end(), k) == order.end())
        order.push_back(k);
    };
    if (const auto pin = pins.find(id); pin != pins.end())
      push(pin->second);
    push(home_shard(id, from));
    for (const std::size_t k : shards) push(k);
    const auto src =
        std::find_if(order.begin(), order.end(), [&](std::size_t k) {
          return decodes_cleanly(clone_path(dir, k, from, id), base);
        });
    if (src == order.end()) {
      ++*skipped;
      FUSE_LOG_WARN("reshard: skipping undecodable checkpoint for session "
                    "%zu (no shard holds a clean copy)",
                    id);
      continue;
    }
    moves.push_back(Move{id, *src, home_shard(id, to)});
  }
  return moves;
}

void copy_checkpoints(const std::string& dir, const Journal& j) {
  for (const auto& m : j.moves) {
    const fs::path src = clone_path(dir, m.src, j.from, m.id);
    const fs::path dst = clone_path(dir, m.dst, j.to, m.id);
    if (src == dst) continue;
    // Resume idempotency: a destination that already decodes was copied
    // by the interrupted run.
    if (fs::exists(dst) && decodes_cleanly(dst, nullptr)) continue;
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kMigrationKill))
      throw std::runtime_error(
          "reshard: injected crash — killed mid-copy of session " +
          std::to_string(m.id));
    std::ifstream in(src, std::ios::binary);
    if (!in.is_open())
      throw std::runtime_error("reshard: cannot read " + src.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    fs::create_directories(dst.parent_path());
    fuse::util::write_file_atomic(dst.string(), buf.str());
  }
}

void verify_destinations(const std::string& dir, const Journal& j,
                         const fuse::nn::Module* base) {
  for (const auto& m : j.moves) {
    const fs::path dst = clone_path(dir, m.dst, j.to, m.id);
    if (!decodes_cleanly(dst, base))
      throw std::runtime_error(
          "reshard: verify failed — destination checkpoint for session " +
          std::to_string(m.id) + " does not decode (" + dst.string() +
          "); the old layout is intact, re-run to retry");
  }
}

/// Post-commit: write the new layout's manifests and shard_map.
void publish_new_layout(const std::string& dir, const Journal& j) {
  std::vector<std::vector<SessionId>> by_shard(j.to);
  for (const auto& m : j.moves) by_shard[m.dst].push_back(m.id);
  for (std::size_t k = 0; k < j.to; ++k) {
    std::sort(by_shard[k].begin(), by_shard[k].end());
    fs::create_directories(shard_dir(dir, k, j.to));
    std::string manifest = std::string(kManifestMagic) + "\n";
    for (const SessionId id : by_shard[k])
      manifest += std::to_string(id) + "\n";
    fuse::util::write_file_atomic(manifest_path(dir, k, j.to).string(),
                                  manifest);
  }
  std::error_code ec;
  if (j.to > 1) {
    // Fresh topology stamp; every session now sits at its new home, so
    // the placement table starts empty.
    fuse::util::write_file_atomic(
        shard_map_path(dir).string(),
        std::string(kShardMapMagic) + "\nshards " + std::to_string(j.to) +
            "\n");
  } else {
    fs::remove(shard_map_path(dir), ec);  // flat stores carry no map
  }
}

/// Post-publish: delete everything the new layout does not reference.
/// Every removal tolerates "already gone" (a crash mid-sweep resumes
/// here), and nothing here can un-publish the new layout.
void sweep_old_layout(const std::string& dir, const Journal& j) {
  std::error_code ec;
  for (const auto& m : j.moves) {
    const fs::path src = clone_path(dir, m.src, j.from, m.id);
    if (src != clone_path(dir, m.dst, j.to, m.id)) fs::remove(src, ec);
  }
  // Old shard dirs beyond the new count (and, for a previously flat
  // store, the flat manifest) — including any stale/undecodable files
  // the plan skipped, which must not shadow the new layout.
  for (std::size_t k = (j.to > 1 ? j.to : 0); k < j.from; ++k)
    if (j.from > 1) fs::remove_all(shard_dir(dir, k, j.from), ec);
  if (j.from == 1 && j.to > 1) {
    fs::remove(manifest_path(dir, 0, 1), ec);
    for (const auto& e : fs::directory_iterator(dir, ec)) {
      SessionId id = 0;
      if (e.is_regular_file() &&
          parse_clone_filename(e.path().filename().string(), &id))
        fs::remove(e.path(), ec);
    }
  }
  // Stale files in kept dirs that the new manifests do not list would
  // resurface through the manifest-loss directory-scan fallback.
  if (j.from > 1 && j.to > 1) {
    std::set<std::pair<std::size_t, SessionId>> keep;
    for (const auto& m : j.moves) keep.emplace(m.dst, m.id);
    for (std::size_t k = 0; k < std::min(j.from, j.to); ++k) {
      for (const auto& e :
           fs::directory_iterator(shard_dir(dir, k, j.to), ec)) {
        SessionId id = 0;
        if (e.is_regular_file() &&
            parse_clone_filename(e.path().filename().string(), &id) &&
            keep.count({k, id}) == 0)
          fs::remove(e.path(), ec);
      }
    }
  }
  fs::remove(journal_path(dir), ec);
}

}  // namespace

ReshardReport reshard(const ReshardConfig& cfg) {
  if (cfg.dir.empty())
    throw std::invalid_argument("reshard: dir must be set");
  if (cfg.to == 0)
    throw std::invalid_argument("reshard: to must be >= 1");
  if (!fs::is_directory(cfg.dir))
    throw std::invalid_argument("reshard: no clone store at '" + cfg.dir +
                                "'");
  ReshardReport report;
  Journal j = read_journal(cfg.dir);
  if (j.status == Journal::Status::kInvalid) {
    // Torn journal write: the run died before its plan committed, so the
    // old layout is untouched — discard and start fresh.
    std::error_code ec;
    fs::remove(journal_path(cfg.dir), ec);
    j.status = Journal::Status::kMissing;
  }
  if (j.status == Journal::Status::kValid) {
    if (j.to != cfg.to)
      throw std::runtime_error(
          "reshard: an interrupted re-shard to " + std::to_string(j.to) +
          " shards is journaled at '" + cfg.dir +
          "' — re-run with --to " + std::to_string(j.to) +
          " to finish it first");
    report.resumed = true;
  } else {
    j.from = cfg.from != 0 ? cfg.from : autodetect_from(cfg.dir);
    j.to = cfg.to;
    j.moves = plan_moves(cfg.dir, j.from, j.to, cfg.base, &report.skipped);
    write_journal(cfg.dir, j, Journal::Phase::kPlan);
    j.phase = Journal::Phase::kPlan;
  }
  report.from = j.from;
  report.to = j.to;
  for (const auto& m : j.moves) {
    if (clone_path(cfg.dir, m.src, j.from, m.id) ==
        clone_path(cfg.dir, m.dst, j.to, m.id))
      ++report.clones_kept;
    else
      ++report.clones_moved;
  }
  if (j.phase == Journal::Phase::kPlan) {
    copy_checkpoints(cfg.dir, j);
    verify_destinations(cfg.dir, j, cfg.base);
    write_journal(cfg.dir, j, Journal::Phase::kCopied);  // COMMIT POINT
  }
  publish_new_layout(cfg.dir, j);
  sweep_old_layout(cfg.dir, j);
  FUSE_LOG_DEBUG("reshard: %zu -> %zu shards, moved %zu, kept %zu, "
                 "skipped %zu%s",
                 report.from, report.to, report.clones_moved,
                 report.clones_kept, report.skipped,
                 report.resumed ? " (resumed)" : "");
  return report;
}

}  // namespace fuse::serve
