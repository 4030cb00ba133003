// Versioned binary snapshots of the full engine state (see
// persist/format.h for the framing).
//
// The table section is columnar: per column a dictionary of distinct
// original values (exact-type equality — int 5 and double 5.0 keep their
// own entries, unlike the Equals-unified ColumnCache codes) plus one u32
// code per physical row, followed by the sparse list of probabilistic
// cells with their candidate sets, the tombstone log, and the ingest
// counters. Dead rows are serialized like live ones — their storage is
// provenance and row ids must stay stable across a restart.
//
// The state sections capture what a restarted engine cannot cheaply
// re-derive: per-rule checked bitmaps and pending ingest work, theta-join
// coverage + maintained violation sets, cost-model ledgers, and the full
// ProvenanceStore. FD group state and statistics are deliberately NOT
// serialized: FdDeltaDetector's maintained state is bit-identical to a
// fresh build over the restored rows (the PR 3 differential invariant), so
// Prepare() reconstructs them in O(n) with no detection or repair work.

#ifndef DAISY_PERSIST_SNAPSHOT_H_
#define DAISY_PERSIST_SNAPSHOT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clean/clean_operators.h"
#include "clean/cost_model.h"
#include "common/binary_io.h"
#include "common/status.h"
#include "constraints/constraint_set.h"
#include "persist/env.h"
#include "detect/theta_join.h"
#include "repair/provenance.h"
#include "storage/table.h"

namespace daisy {
namespace persist {

/// Per-rule persisted cleaning state, keyed by rule name.
struct RuleSnapshot {
  std::string rule;
  CleanSelectPersistState op;
  CostModel::Ledger cost;
  bool has_theta = false;
  ThetaPersistState theta;  ///< meaningful only when has_theta
};

/// The semantics-affecting engine options, persisted so recovery replays
/// the WAL under the exact configuration that produced it (the perf-only
/// knobs — thread counts, group commit — are free to differ; results
/// are deterministic across them by contract). Mirrors the corresponding
/// DaisyOptions fields; kept as a separate struct so the persist layer
/// does not depend on the engine header.
struct PersistedEngineOptions {
  uint8_t mode = 1;  ///< 0 = kIncremental, 1 = kAdaptive
  double accuracy_threshold = 0.5;
  uint64_t theta_partitions = 16;
  bool use_statistics_pruning = true;
  /// v2+: cost-based optimizer (cleanσ placement changes which rows a WAL
  /// query marks checked, so replay must run under the same flag). v1
  /// snapshots default it to true, the engine default.
  bool optimizer = true;
};

/// The complete deserialized engine state of one snapshot file.
struct EngineSnapshot {
  uint64_t epoch = 0;
  PersistedEngineOptions options;
  /// Reconstructed tables, in serialized (name) order, with tombstones and
  /// ingest counters restored and cells carrying their candidate sets.
  std::vector<Table> tables;
  std::vector<DenialConstraint> constraints;
  std::vector<RuleSnapshot> rules;
  /// table name -> raw repair records.
  std::map<std::string,
           std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>>
      provenance;
};

/// Write-side view over live engine state (no copies of table data).
struct EngineSnapshotView {
  uint64_t epoch = 0;
  PersistedEngineOptions options;
  std::vector<const Table*> tables;
  const ConstraintSet* constraints = nullptr;
  std::vector<RuleSnapshot> rules;  ///< exported state (owned copies)
  const std::map<std::string, ProvenanceStore>* provenance = nullptr;
};

/// Serializes `view` to `path` atomically: the bytes are written to
/// `path.tmp`, fsync'd, renamed over `path`, and the directory entry is
/// fsync'd — a crash mid-write never leaves a half snapshot under the
/// final name.
Status WriteSnapshot(const std::string& path, const EngineSnapshotView& view,
                     Env* env = nullptr);

/// Parses and validates a snapshot file (magic, version, per-section CRCs,
/// internal consistency of every decoded structure).
Result<EngineSnapshot> ReadSnapshot(const std::string& path,
                                    Env* env = nullptr);

// Record-payload helpers shared with the WAL encoding.
void EncodeProvenanceRecords(
    const std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>& recs,
    BinaryWriter* w);
Result<std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>>
DecodeProvenanceRecords(BinaryReader* r);

}  // namespace persist
}  // namespace daisy

#endif  // DAISY_PERSIST_SNAPSHOT_H_
