// Row-store table over probabilistic cells.
//
// Rows have stable ids (their position; a deleted row becomes a tombstone,
// its id is never reused, matching the paper's in-place probabilistic
// updates). The original cell values survive every repair as provenance, so
// late-arriving rules can re-derive fixes from the raw data (Table 7
// experiment).
//
// Ingest is transactional and delta-aware: AppendRows/DeleteRows apply one
// batch atomically and return a TableDelta naming the affected row ids;
// whoever applies the batch pushes that delta into the derived state built
// over the table (the engine: every rule's detectors), which keeps its
// coverage and catches up in O(delta). Nothing polls the table for it.
//
// The derived column cache (storage/column_cache.h) is write-through: every
// write below updates it itself, so it is never stale.
//
//  * Appends (all three paths) extend every built column, once per call.
//  * Repairs never touch originals: SetCandidates replaces a cell's
//    candidate set and flips that row's probabilistic bit in O(1).
//  * Deletes only flip the live mask; the cache keeps tombstoned rows.
//  * mutable_cell (data generators only) drops the cache; the next access
//    builds a new one under a new ColumnCache::id().

#ifndef DAISY_STORAGE_TABLE_H_
#define DAISY_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/cell.h"
#include "storage/schema.h"

namespace daisy {

class ColumnCache;

/// Stable row identifier within one table.
using RowId = size_t;

/// One tuple: a cell per schema column.
struct Row {
  std::vector<Cell> cells;
};

/// One transactional ingest batch: the rows it appended (a contiguous,
/// ascending id range) and the rows it tombstoned (ascending). Consumers
/// apply deltas in generation order to maintain derived state in O(delta).
struct TableDelta {
  uint64_t generation = 0;  ///< table delta generation after this batch
  std::vector<RowId> appended;
  std::vector<RowId> deleted;

  bool empty() const { return appended.empty() && deleted.empty(); }

  /// Writer sequence number of the DaisyEngine ingest call that applied
  /// this batch (see QueryReport::epoch). 0 when the batch was applied
  /// through the plain Table API.
  uint64_t engine_epoch = 0;
};

/// The ingest-visibility pin a query takes at open: row ids below
/// `num_rows` existed when the snapshot was taken, and the version pair
/// identifies the exact ingest state. Scans iterate only up to the pinned
/// bound, and Plan::Execute verifies the pair did not move during the run —
/// a concurrent ingest slipping past the engine's writer lock is reported
/// as an Internal error instead of silently producing a torn scan.
struct TableSnapshot {
  uint64_t append_version = 0;
  uint64_t delta_generation = 0;
  size_t num_rows = 0;  ///< physical row-id bound at pin time
};

/// A named relation with probabilistic cells.
///
/// `mutable_cell` drops the derived columnar projections (see
/// storage/column_cache.h); handing out the reference counts as an edit of
/// an original — do not stash it and write through it across reads of the
/// cache. Candidate writes go through SetCandidates instead.
class Table {
 public:
  Table();
  Table(std::string name, Schema schema);
  ~Table();

  // Copies and moves drop the derived column cache (it holds a pointer to
  // the source table); a new one is built on the next columns() access.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// Physical row count, tombstones included (row ids range over it).
  size_t num_rows() const { return rows_.size(); }
  /// Rows not deleted yet — the logical relation size.
  size_t num_live_rows() const { return rows_.size() - num_dead_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// False once the row was deleted. Tombstoned cells stay readable (their
  /// storage is never reclaimed) but no query/detector visits them.
  bool is_live(RowId r) const {
    return r >= live_.size() || live_[r] != 0;
  }

  const Row& row(RowId r) const { return rows_[r]; }
  const Cell& cell(RowId r, size_t c) const { return rows_[r].cells[c]; }
  /// Original-value edit access (data generators). Drops the column cache.
  Cell& mutable_cell(RowId r, size_t c) {
    DropCache();
    return rows_[r].cells[c];
  }

  /// Replaces the candidate set of cell (r, c); an empty vector reverts the
  /// cell to its clean original. The vector is stored as given (callers
  /// normalize first). Originals are untouched: if the column is built in
  /// the cache, its probabilistic bit flips in place in O(1).
  /// Writer-exclusive, like every table mutation.
  void SetCandidates(RowId r, size_t c, std::vector<Candidate> cands);

  /// Moves once per appended row (all append paths).
  uint64_t append_version() const { return append_version_; }

  /// Moves on every ingest batch (append or delete).
  uint64_t delta_generation() const { return delta_generation_; }

  /// Pins the current ingest state (see TableSnapshot). Queries take one
  /// per table at open so a concurrent ingest never makes rows appear (or
  /// vanish) mid-scan.
  TableSnapshot Snapshot() const {
    return {append_version_, delta_generation_, rows_.size()};
  }

  /// Every tombstoned row id, in deletion order. Grows monotonically;
  /// persisted by snapshots. Consumers of deletions take the TableDelta
  /// instead (lint rule ingest-poll).
  const std::vector<RowId>& deleted_rows_log() const { return deleted_log_; }

  /// Lazily-built columnar projections of this table (flat typed arrays,
  /// dictionary codes, sorted indexes). Logically const: derived data only.
  /// Safe to call from concurrent reader threads under the engine's shared
  /// lock: the first creation is mutex-guarded and the cache itself
  /// publishes built columns atomically (see storage/column_cache.h).
  ColumnCache& columns() const;

  /// Appends a tuple of deterministic values. Fails on arity mismatch, on a
  /// non-null value whose type class disagrees with the schema, and on a
  /// NaN double (NaN has no place in Value::Compare's total order).
  Status AppendRow(std::vector<Value> values);

  /// Appends a pre-built (possibly probabilistic) row without type checks.
  RowId AppendRowUnchecked(Row row);

  /// Transactional batch append: every row is validated as in AppendRow
  /// before any row is applied, so a failure leaves the table untouched.
  /// On success returns the delta describing the new contiguous id range.
  Result<TableDelta> AppendRows(std::vector<std::vector<Value>> rows);

  /// Transactional batch delete: every id must be in range, live, and
  /// distinct, or the whole batch is rejected. Rows become tombstones —
  /// ids stay stable and storage is retained as provenance. Tables managed
  /// by a DaisyEngine must be deleted from through DaisyEngine::DeleteRows,
  /// which hands the delta to the rules' detectors and retracts repairs
  /// whose evidence the deletion removed.
  Result<TableDelta> DeleteRows(std::vector<RowId> ids);

  void Reserve(size_t n) { rows_.reserve(n); }

  /// All live row ids, ascending.
  std::vector<RowId> AllRowIds() const;

  /// Number of cells that currently carry candidate sets.
  size_t CountProbabilisticCells() const;

  /// Sum of candidate-set widths over all cells — the footprint of the
  /// probabilistic version (the paper reports this as dataset growth).
  size_t TotalCandidateWidth() const;

  /// Reverts every cell to its original value (drops all repairs) through
  /// SetCandidates.
  void ResetToOriginal();

  /// Snapshot-recovery hook: installs the ingest history of a persisted
  /// table after its rows were re-appended (AppendRowUnchecked). The ids
  /// in `deleted_log` become tombstones in log order, and the two ingest
  /// counters are set to the persisted values so post-recovery deltas
  /// continue the original numbering. Any derived column cache is dropped.
  /// Fails (leaving the table untouched) on an out-of-range or duplicate
  /// deleted id.
  Status RestorePersistedState(std::vector<RowId> deleted_log,
                               uint64_t append_version,
                               uint64_t delta_generation);

  /// Loads rows from a CSV file with the given schema. If `has_header`,
  /// the first row is skipped after validating column names.
  static Result<Table> FromCsv(const std::string& path,
                               const std::string& name, const Schema& schema,
                               bool has_header);

  /// Writes the table (most-probable values) plus a header row to CSV.
  Status ToCsv(const std::string& path) const;

  /// Debug string with up to `max_rows` rows rendered.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Arity, type-class and NaN check shared by AppendRow and AppendRows.
  Status CheckRow(const std::vector<Value>& values) const;
  /// Write-through append step: extends the built cache columns over the
  /// rows just appended (no-op without a cache).
  void ExtendCache();
  /// Drops the derived cache: unpublishes the lock-free pointer, then
  /// destroys the cache under the creation mutex. Callers run with
  /// exclusive access to the table (assignment, restore, original edits),
  /// but the lock keeps the cache_ contract uniform and is uncontended
  /// there.
  void DropCache() const;
  void BumpAppend() {
    ++append_version_;
    ++delta_generation_;
  }

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  uint64_t append_version_ = 0;       ///< rows appended
  uint64_t delta_generation_ = 0;     ///< ingest batches applied
  std::vector<uint8_t> live_;         ///< tombstone mask; empty = all live
  size_t num_dead_ = 0;               ///< count of tombstoned rows
  std::vector<RowId> deleted_log_;    ///< tombstoned ids, deletion order
  /// Derived, built on demand. Guarded by cache_mu_ for creation/reset;
  /// readers reach the object lock-free through cache_ptr_ once published.
  mutable std::unique_ptr<ColumnCache> cache_ DAISY_GUARDED_BY(cache_mu_);
  /// Published pointer to cache_ for lock-free reads once created; the
  /// mutex only serializes the first (lazy) creation. Neither member is
  /// copied or moved with the table — the copy/move paths reset both.
  mutable std::atomic<ColumnCache*> cache_ptr_{nullptr};
  mutable Mutex cache_mu_;
};

}  // namespace daisy

#endif  // DAISY_STORAGE_TABLE_H_
