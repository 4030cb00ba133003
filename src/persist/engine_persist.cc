// DaisyEngine's durable-persistence surface: EnablePersistence /
// Checkpoint / Open and the WAL append hook. Lives in persist/ so the
// engine core stays free of on-disk format knowledge; these are member
// functions because they capture and restore private engine state.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "clean/daisy_engine.h"
#include "common/logger.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "persist/env.h"
#include "persist/format.h"
#include "persist/io_util.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace daisy {

namespace {

std::string SeqName(const char* prefix, uint64_t seq, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%06" PRIu64 "%s", prefix, seq, suffix);
  return buf;
}

std::string SnapshotPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + SeqName("snapshot-", seq, ".dsnap");
}

std::string WalPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + SeqName("wal-", seq, ".dwal");
}

bool IsTmpName(const std::string& name) {
  const std::string suffix = ".tmp";
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Parses "snapshot-NNNNNN.dsnap" into NNNNNN; nullopt for other names.
bool ParseSnapshotSeq(const std::string& name, uint64_t* seq) {
  const std::string prefix = "snapshot-";
  const std::string suffix = ".dsnap";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

}  // namespace

DaisyEngine::~DaisyEngine() = default;
DaisyEngine::DaisyEngine(DaisyEngine&&) noexcept = default;
DaisyEngine& DaisyEngine::operator=(DaisyEngine&&) noexcept = default;

Result<persist::GroupCommitQueue::TicketPtr> DaisyEngine::LogWalLocked(
    const std::string& payload) {
  if (wal_ == nullptr || wal_replay_) {
    return persist::GroupCommitQueue::TicketPtr();
  }
  if (wal_queue_ != nullptr) {
    // Group commit: queue the record while still holding the exclusive
    // lock (queue order == epoch order == replay order) and let the
    // caller wait for the shared fsync after unlocking. A poisoned queue
    // hands back an already-failed ticket; AwaitWalTicket degrades.
    return wal_queue_->Enqueue(payload);
  }
  const Status appended = wal_->AppendBatch({payload});
  // The operation already applied in memory; only its durability failed.
  // Degrade instead of fail-stopping: reads keep serving the (intact)
  // in-memory state, writers are rejected until TryRecover() re-arms
  // persistence by snapshotting the current state — which makes this
  // operation durable after all. Without a recovery, a restart loses it
  // (it was never acknowledged as durable to the caller — the error
  // propagates out of the operation).
  if (!appended.ok()) return DegradeLocked(appended);
  return persist::GroupCommitQueue::TicketPtr();
}

Status DaisyEngine::AwaitWalTicket(
    const persist::GroupCommitQueue::TicketPtr& ticket) {
  if (ticket == nullptr) return Status::OK();
  const Status committed = wal_queue_->Wait(ticket);
  if (committed.ok()) return Status::OK();
  // Every op in the failed batch lands here (and so do enqueuers that hit
  // the poisoned queue): the first one through transitions the machine,
  // the rest see the transition already made — DegradeLocked is
  // idempotent. None of them is acked; their in-memory effects stay,
  // exactly like a failed sync append.
  WriterLock lock(&*mu_);
  return DegradeLocked(committed);
}

persist::WalCommitStats DaisyEngine::WalStats() const {
  ReaderLock lock(&*mu_);
  // With group commit the leader mutates the writer's counters outside
  // mu_; read them through the queue, which waits out an in-flight
  // leader. In sync mode mu_ alone serializes the writer.
  if (wal_queue_ != nullptr) return wal_queue_->Stats();
  return wal_ != nullptr ? wal_->stats() : persist::WalCommitStats{};
}

void DaisyEngine::SweepOrphanTmpFilesLocked() {
  // `*.tmp` files are atomic-write staging files whose rename never
  // happened (crash or injected fault mid-WriteFileAtomic). They are
  // never part of any generation; removing them is always safe.
  Result<std::vector<std::string>> names =
      persist::ListDirectory(persist_dir_, env_);
  if (!names.ok()) return;
  bool removed = false;
  for (const std::string& name : names.value()) {
    if (!IsTmpName(name)) continue;
    if (persist::RemoveFileIfExists(persist_dir_ + "/" + name, env_).ok()) {
      removed = true;
    }
  }
  // The sweep itself is best-effort; so is making it durable.
  if (removed) (void)persist::SyncDirectory(persist_dir_, env_);
}

Status DaisyEngine::WriteSnapshotLocked(const std::string& path) {
  persist::EngineSnapshotView view;
  view.epoch = epoch_;
  view.options.mode =
      options_.mode == DaisyOptions::Mode::kIncremental ? 0 : 1;
  view.options.accuracy_threshold = options_.accuracy_threshold;
  view.options.theta_partitions = options_.theta_partitions;
  view.options.use_statistics_pruning = options_.use_statistics_pruning;
  view.options.optimizer = options_.optimizer;
  for (const std::string& name : db_->TableNames()) {
    DAISY_ASSIGN_OR_RETURN(const Table* table,
                           static_cast<const Database*>(db_)->GetTable(name));
    view.tables.push_back(table);
  }
  view.constraints = &constraints_;
  view.provenance = &provenance_;
  for (auto& [name, state] : rules_) {
    persist::RuleSnapshot rs;
    rs.rule = name;
    rs.op = state.op->ExportPersistState();
    rs.cost = state.cost.ledger();
    if (state.theta != nullptr) {
      rs.has_theta = true;
      rs.theta = state.theta->ExportState();
    }
    view.rules.push_back(std::move(rs));
  }
  return persist::WriteSnapshot(path, view, env_);
}

Status DaisyEngine::EnablePersistence(const std::string& dir,
                                      persist::Env* env) {
  WriterLock lock(&*mu_);
  if (!prepared_) return Status::Internal("Prepare() must be called first");
  if (!persist_dir_.empty()) {
    return Status::AlreadyExists("persistence already enabled at " +
                                 persist_dir_);
  }
  env_ = env != nullptr ? env : persist::Env::Default();
  DAISY_RETURN_IF_ERROR(persist::EnsureDirectory(dir, env_));
  DAISY_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         persist::ListDirectory(dir, env_));
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSnapshotSeq(name, &seq)) {
      return Status::AlreadyExists(
          dir + " already holds " + name +
          " — recover it with DaisyEngine::Open instead");
    }
  }
  const uint64_t seq = 1;
  DAISY_RETURN_IF_ERROR(WriteSnapshotLocked(SnapshotPath(dir, seq)));
  DAISY_ASSIGN_OR_RETURN(
      wal_, persist::WalWriter::Create(WalPath(dir, seq), env_));
  DAISY_RETURN_IF_ERROR(persist::SyncDirectory(dir, env_));
  persist_dir_ = dir;
  persist_seq_ = seq;
  if (options_.group_commit) {
    wal_queue_ = std::make_unique<persist::GroupCommitQueue>(wal_.get());
  }
  return Status::OK();
}

Status DaisyEngine::RotateGenerationLocked() {
  // Drain the group-commit queue before any snapshot I/O: an in-flight
  // leader runs outside mu_, and the Env contract requires serialized
  // calls. Holding mu_ exclusively guarantees no new enqueue can race the
  // drain. Flush failures don't block the rotation — pending records that
  // could not commit fail their (unacked) ops, while their in-memory
  // effects are captured by the snapshot about to be written.
  if (wal_queue_ != nullptr) (void)wal_queue_->Flush();
  const uint64_t next = persist_seq_ + 1;
  const std::string snap_path = SnapshotPath(persist_dir_, next);
  const std::string next_wal_path = WalPath(persist_dir_, next);
  // Order matters for crash safety: the new snapshot and its (empty) WAL
  // become durable before anything of generation N disappears, so a crash
  // at any point leaves at least one complete generation on disk. Open()
  // prefers the newest parseable snapshot.
  Status rotated = WriteSnapshotLocked(snap_path);
  std::unique_ptr<persist::WalWriter> next_wal;
  if (rotated.ok()) {
    Result<std::unique_ptr<persist::WalWriter>> created =
        persist::WalWriter::Create(next_wal_path, env_);
    if (created.ok()) {
      next_wal = std::move(created).value();
      rotated = persist::SyncDirectory(persist_dir_, env_);
    } else {
      rotated = created.status();
    }
  }
  if (!rotated.ok()) {
    // Best-effort: remove the partial next generation so the engine keeps
    // serving generation N cleanly. Leftovers are harmless — a complete
    // orphan snapshot N+1 already contains every wal-N effect (it was
    // written from the state that includes them), and a torn one is
    // impossible (WriteFileAtomic renames) — only `.tmp` staging files
    // can linger, and the orphan sweep collects those.
    (void)persist::RemoveFileIfExists(next_wal_path, env_);
    (void)persist::RemoveFileIfExists(snap_path, env_);
    (void)persist::SyncDirectory(persist_dir_, env_);
    return rotated;
  }
  // Commit point: generation `next` is fully durable. Serve from it
  // before touching the old generation — deleting generation N is
  // best-effort cleanup (an orphaned old generation is harmless; Open
  // prefers the newest parseable snapshot).
  wal_ = std::move(next_wal);
  // Re-arm group commit on the fresh log: the queue is idle (flushed
  // above, enqueues excluded by mu_), so swapping the writer and clearing
  // any poison is safe.
  if (wal_queue_ != nullptr) wal_queue_->Reset(wal_.get());
  const uint64_t old = persist_seq_;
  persist_seq_ = next;
  // Old-generation cleanup is best-effort: generation N+1 is already
  // durable, so a leftover N pair only wastes disk; recovery always picks
  // the highest complete generation.
  (void)persist::RemoveFileIfExists(WalPath(persist_dir_, old), env_);
  (void)persist::RemoveFileIfExists(SnapshotPath(persist_dir_, old), env_);
  (void)persist::SyncDirectory(persist_dir_, env_);
  SweepOrphanTmpFilesLocked();
  return Status::OK();
}

Status DaisyEngine::Checkpoint() {
  WriterLock lock(&*mu_);
  if (wal_ == nullptr) {
    return Status::Internal("Checkpoint() requires EnablePersistence/Open");
  }
  DAISY_RETURN_IF_ERROR(CheckWritableLocked());
  Timer timer;
  Status rotated = RotateGenerationLocked();
  // A checkpoint that cannot complete leaves generation N serving, but
  // the I/O layer just proved itself unreliable: degrade and let
  // TryRecover() probe it back to health.
  if (!rotated.ok()) return DegradeLocked(rotated);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("daisy_persist_checkpoints_total",
                 "Completed checkpoint rotations")
      ->Increment();
  reg.GetHistogram("daisy_persist_checkpoint_duration_us",
                   /*first_bound=*/256, /*num_buckets=*/16,
                   "Checkpoint (snapshot + WAL rotation) wall time")
      ->Observe(static_cast<uint64_t>(timer.ElapsedMillis() * 1000.0));
  return Status::OK();
}

Status DaisyEngine::TryRecover() {
  WriterLock lock(&*mu_);
  if (health_ == EngineHealth::kHealthy) {
    return Status::InvalidArgument("engine is healthy — nothing to recover");
  }
  if (health_ == EngineHealth::kFailed) {
    return Status::Internal("engine failed (unrecoverable): " +
                            health_cause_.ToString());
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < next_recover_at_) {
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             next_recover_at_ - now)
                             .count();
    return Status::ResourceExhausted(
        "recovery attempt inside backoff window; retry in " +
        std::to_string(wait_ms) + " ms");
  }
  ++recover_attempts_;
  MetricsRegistry::Global()
      .GetCounter("daisy_persist_recover_attempts_total",
                  "TryRecover() attempts admitted past the backoff gate")
      ->Increment();
  SweepOrphanTmpFilesLocked();
  // Re-arm on a fresh generation: snapshotting the current in-memory
  // state also makes the operation whose durability failure degraded us
  // durable after all.
  Status rotated = RotateGenerationLocked();
  if (!rotated.ok()) {
    recover_backoff_ms_ =
        recover_backoff_ms_ == 0
            ? options_.recover_backoff_ms
            : std::min(recover_backoff_ms_ * 2, options_.recover_backoff_max_ms);
    next_recover_at_ = now + std::chrono::milliseconds(recover_backoff_ms_);
    return rotated;
  }
  TransitionLocked(EngineHealth::kHealthy, Status::OK());
  return Status::OK();
}

Status DaisyEngine::RestoreEngineState(const persist::EngineSnapshot& snap) {
  WriterLock lock(&*mu_);
  if (snap.rules.size() != rules_.size()) {
    return Status::InvalidArgument(
        "snapshot has state for " + std::to_string(snap.rules.size()) +
        " rules, engine prepared " + std::to_string(rules_.size()));
  }
  for (const persist::RuleSnapshot& rs : snap.rules) {
    auto it = rules_.find(rs.rule);
    if (it == rules_.end()) {
      return Status::InvalidArgument("snapshot names unknown rule '" +
                                     rs.rule + "'");
    }
    RuleState& state = it->second;
    if (rs.has_theta != (state.theta != nullptr)) {
      return Status::InvalidArgument("snapshot and engine disagree on the "
                                     "detector kind of rule '" +
                                     rs.rule + "'");
    }
    DAISY_RETURN_IF_ERROR(state.op->ImportPersistState(rs.op));
    state.cost.RestoreLedger(rs.cost);
    if (state.theta != nullptr) {
      DAISY_RETURN_IF_ERROR(state.theta->ImportState(rs.theta));
    }
  }
  for (const auto& [table, records] : snap.provenance) {
    if (!db_->HasTable(table)) {
      return Status::InvalidArgument("snapshot provenance names unknown "
                                     "table '" + table + "'");
    }
    provenance_[table].RestoreRecords(records);
  }
  epoch_ = snap.epoch;
  return Status::OK();
}

Result<std::unique_ptr<DaisyEngine>> DaisyEngine::Open(const std::string& dir,
                                                       Database* db,
                                                       DaisyOptions options,
                                                       persist::Env* env) {
  if (!db->TableNames().empty()) {
    return Status::InvalidArgument(
        "DaisyEngine::Open requires an empty Database");
  }
  persist::Env* e = env != nullptr ? env : persist::Env::Default();
  DAISY_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         persist::ListDirectory(dir, e));
  // Sweep atomic-write staging files orphaned by a crash before their
  // rename; they are never part of any generation.
  bool swept = false;
  for (const std::string& name : names) {
    if (!IsTmpName(name)) continue;
    if (persist::RemoveFileIfExists(dir + "/" + name, e).ok()) swept = true;
  }
  // The sweep itself is best-effort; so is making it durable.
  if (swept) (void)persist::SyncDirectory(dir, e);
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSnapshotSeq(name, &seq)) seqs.push_back(seq);
  }
  if (seqs.empty()) {
    return Status::NotFound("no daisy snapshot in " + dir);
  }
  std::sort(seqs.begin(), seqs.end());

  // Newest parseable snapshot wins; a corrupt newest generation (torn
  // Checkpoint, disk damage) falls back to its predecessor, whose WAL is
  // only deleted after the successor is fully durable.
  persist::EngineSnapshot snap;
  uint64_t seq = 0;
  Status last_error = Status::OK();
  bool loaded = false;
  for (size_t i = seqs.size(); i-- > 0 && !loaded;) {
    Result<persist::EngineSnapshot> parsed =
        persist::ReadSnapshot(SnapshotPath(dir, seqs[i]), e);
    if (parsed.ok()) {
      snap = std::move(parsed).value();
      seq = seqs[i];
      loaded = true;
    } else {
      last_error = parsed.status();
    }
  }
  if (!loaded) {
    return Status::IOError("no loadable snapshot in " + dir + ": " +
                           last_error.ToString());
  }

  for (Table& table : snap.tables) {
    DAISY_RETURN_IF_ERROR(db->AddTable(std::move(table)));
  }
  snap.tables.clear();
  ConstraintSet constraints;
  for (DenialConstraint& dc : snap.constraints) {
    DAISY_RETURN_IF_ERROR(constraints.Add(std::move(dc)));
  }
  snap.constraints.clear();

  // The semantics-affecting options travel with the state: replaying the
  // WAL under a different mode/threshold/pruning config would diverge
  // from the engine that wrote it. The caller's perf knobs (thread
  // counts, group commit) are kept — results are deterministic
  // across those by contract.
  options.mode = snap.options.mode == 0 ? DaisyOptions::Mode::kIncremental
                                        : DaisyOptions::Mode::kAdaptive;
  options.accuracy_threshold = snap.options.accuracy_threshold;
  options.theta_partitions = snap.options.theta_partitions;
  options.use_statistics_pruning = snap.options.use_statistics_pruning;
  options.optimizer = snap.options.optimizer;
  auto engine =
      std::make_unique<DaisyEngine>(db, std::move(constraints), options);
  engine->env_ = e;
  DAISY_RETURN_IF_ERROR(engine->Prepare());
  DAISY_RETURN_IF_ERROR(engine->RestoreEngineState(snap));

  // Replay the delta log through the regular machinery. A missing WAL is a
  // crash between a Checkpoint's snapshot rename and its WAL creation —
  // equivalent to an empty log.
  const std::string wal_path = WalPath(dir, seq);
  Result<persist::WalContents> wal = persist::ReadWal(wal_path, e);
  uint64_t valid_bytes = 0;
  bool have_wal_file = wal.ok();
  if (!have_wal_file && wal.status().code() != StatusCode::kNotFound) {
    return wal.status();
  }
  if (have_wal_file && !wal.value().header_valid) {
    // Crash inside the WAL creation of EnablePersistence/Checkpoint: the
    // log is empty; recreate it below with a fresh header.
    have_wal_file = false;
  }
  if (have_wal_file) {
    engine->wal_replay_ = true;
    uint64_t replayed = 0;
    for (const std::string& payload : wal.value().payloads) {
      DAISY_ASSIGN_OR_RETURN(persist::WalRecord record,
                             persist::DecodeWalRecord(payload));
      Status applied = Status::OK();
      switch (record.type) {
        case persist::kWalAppendRows:
          applied = engine->AppendRows(record.table, std::move(record.rows))
                        .status();
          break;
        case persist::kWalDeleteRows:
          applied = engine->DeleteRows(record.table, std::move(record.ids))
                        .status();
          break;
        case persist::kWalQuery:
          applied = engine->Query(record.stmt).status();
          break;
        case persist::kWalCleanAll:
          applied = engine->CleanAllRemaining();
          break;
        case persist::kWalImportProvenance: {
          ProvenanceStore store;
          store.RestoreRecords(std::move(record.provenance));
          applied = engine->ImportProvenance(record.table, store);
          break;
        }
        default:
          applied = Status::Internal("unreplayable WAL record type " +
                                     std::to_string(record.type));
      }
      if (!applied.ok()) {
        engine->wal_replay_ = false;
        return Status::Internal("WAL replay of " + wal_path +
                                " failed: " + applied.ToString());
      }
      ++replayed;
    }
    engine->wal_replay_ = false;
    valid_bytes = wal.value().valid_bytes;
    MetricsRegistry::Global()
        .GetCounter("daisy_persist_recovery_replayed_records_total",
                    "WAL records replayed by Open() recovery")
        ->Increment(replayed);
    if (replayed > 0) {
      LogInfo("persist", "WAL replay complete",
              {{"path", wal_path}, {"records", std::to_string(replayed)}});
    }
  }

  if (have_wal_file) {
    DAISY_ASSIGN_OR_RETURN(engine->wal_, persist::WalWriter::OpenForAppend(
                                             wal_path, valid_bytes, e));
  } else {
    DAISY_ASSIGN_OR_RETURN(engine->wal_,
                           persist::WalWriter::Create(wal_path, e));
    DAISY_RETURN_IF_ERROR(persist::SyncDirectory(dir, e));
  }
  engine->persist_dir_ = dir;
  engine->persist_seq_ = seq;
  if (engine->options_.group_commit) {
    engine->wal_queue_ =
        std::make_unique<persist::GroupCommitQueue>(engine->wal_.get());
  }
  return engine;
}

}  // namespace daisy
