// The cleaning operators woven into the query plan (Definitions 1-3).
//
// CleanSelect (cleanσ) takes a select operator's dirty result, relaxes it
// (Algorithm 1 for FDs; partial theta-join for general DCs), detects and
// repairs violations in the relaxed scope, updates the table in place, and
// returns the corrected qualifying row set — which may now include tuples
// whose candidate values qualify (Example 3).
//
// CleanJoin (clean⋈) cleans each join side's qualifying part with
// CleanSelect and relies on Lemma 5: the updated join over the cleaned
// parts needs no further violation checks.
//
// Ingest reaches a CleanSelect only through ApplyDelta, in the engine's
// writer section that applied the batch, right after the rule's detector
// took the same delta (FdDeltaDetector / ThetaJoinDetector::ApplyDelta).
// Nothing here polls the table for rows it was not told about.

#ifndef DAISY_CLEAN_CLEAN_OPERATORS_H_
#define DAISY_CLEAN_CLEAN_OPERATORS_H_

#include <memory>
#include <vector>

#include "clean/statistics.h"
#include "constraints/denial_constraint.h"
#include "detect/theta_join.h"
#include "query/ast.h"
#include "relax/relaxation.h"
#include "repair/provenance.h"
#include "storage/table.h"

namespace daisy {

/// Knobs shared by the cleaning operators.
struct CleaningOptions {
  /// Estimated-accuracy threshold below which a DC query falls back to full
  /// cleaning (Algorithm 2 / Fig. 10).
  double accuracy_threshold = 0.5;
  /// Skip cleaning when the result provably touches no dirty group.
  bool use_statistics_pruning = true;
};

/// Counters reported by one cleanσ invocation.
struct CleanSelectResult {
  std::vector<RowId> final_rows;   ///< corrected qualifying rows
  size_t extra_tuples = 0;         ///< |E(Q)|: relaxation extras
  size_t errors_fixed = 0;         ///< ε_i: tuples repaired
  size_t relax_iterations = 0;
  size_t detect_ops = 0;           ///< comparisons performed
  size_t tuples_scanned = 0;       ///< unseen tuples visited by relaxation
  /// Ingested rows this invocation accounted for: DC rules pay the
  /// DetectDelta pass here, FD rules consult the delta-maintained group
  /// statistics. Surfaced by EXPLAIN as "delta rows checked: N".
  size_t delta_rows_checked = 0;
  double estimated_accuracy = 1.0; ///< DC path only
  bool used_full_clean = false;    ///< DC accuracy fallback fired
  bool pruned = false;             ///< statistics pruning skipped cleaning
};

/// The persistable slice of one CleanSelect: everything that accrues across
/// queries and cannot be re-derived from the table alone. Snapshotted by
/// the persistence layer; the lazily built relaxation index is excluded
/// (its delta-maintained state is bit-identical to a fresh build).
struct CleanSelectPersistState {
  std::vector<uint8_t> checked;        ///< one byte per row, 1 = checked
  std::vector<RowId> pending_rows;     ///< ingested, not yet settled
  std::vector<TableDelta> pending_deltas;  ///< DC rules: queued batches
};

/// cleanσ bound to one table and one rule. The per-rule checked bookkeeping
/// lives here and persists across queries (Section 4.3: "Daisy maintains
/// information about the already checked tuples by each rule").
class CleanSelect {
 public:
  /// For general (non-FD) DCs pass a persistent ThetaJoinDetector; FDs pass
  /// nullptr. `table`, `dc`, `provenance`, `stats`, `theta` must outlive
  /// the operator.
  CleanSelect(Table* table, const DenialConstraint* dc,
              ProvenanceStore* provenance, const Statistics* stats,
              ThetaJoinDetector* theta);

  /// Runs relax -> detect -> repair -> update for a select result.
  /// `filter` is the query's predicate on this table (nullable); it is
  /// re-applied to relaxation extras to admit new probabilistic qualifiers.
  Result<CleanSelectResult> Run(const Expr* filter,
                                const std::vector<RowId>& dirty_result,
                                const CleaningOptions& options);

  /// Cleans everything not yet checked (the cost-model switch target).
  Result<CleanSelectResult> CleanRemaining();

  /// Folds one ingest batch into the per-rule bookkeeping — every batch on
  /// the table must come through here: appended rows join as unchecked,
  /// deleted rows become trivially checked, and `stale_rows` (live members
  /// of violating FD groups whose membership the batch changed — see
  /// FdDeltaDetector::ApplyDelta) lose their checked status so the next
  /// touching query re-repairs them against the new data. FD rules also
  /// extend the correlation index; DC rules queue the delta for a
  /// DetectDelta pass on the next Run.
  void ApplyDelta(const TableDelta& delta,
                  const std::vector<RowId>& stale_rows);

  /// Fraction of rows already checked by this rule.
  double checked_fraction() const;
  bool fully_checked() const { return checked_count_ == checked_.size(); }

  /// True when a Run() in the current state cannot mutate anything — every
  /// row checked, no ingest work pending, and (for general DCs) the
  /// detector fully covered. The engine's shared read path requires every
  /// cleanσ of a plan to be quiescent; Run() then takes its pruned fast
  /// paths, which are pure reads (the detector calls they make are const).
  bool quiescent() const {
    if (!fully_checked() || !pending_deltas_.empty() ||
        !pending_rows_.empty()) {
      return false;
    }
    return theta_ == nullptr || theta_->FullyChecked();
  }

  /// Captures the cross-query bookkeeping for a snapshot (see
  /// CleanSelectPersistState).
  CleanSelectPersistState ExportPersistState() const;

  /// Restores a previously exported state onto a freshly prepared operator
  /// whose table already holds the snapshotted rows. Fails if the bitmap
  /// does not match the table's physical row count.
  Status ImportPersistState(const CleanSelectPersistState& state);

 private:
  Result<CleanSelectResult> RunFd(const Expr* filter,
                                  const std::vector<RowId>& dirty_result,
                                  const CleaningOptions& options);
  Result<CleanSelectResult> RunDc(const Expr* filter,
                                  const std::vector<RowId>& dirty_result,
                                  const CleaningOptions& options);
  void MarkChecked(const std::vector<RowId>& rows);
  /// DC path: runs DetectDelta + repair for every queued ingest batch,
  /// appending the detected violations to `drained` so the caller can
  /// apply the Example-3 extra-tuples join to them too.
  Status DrainPendingDeltas(CleanSelectResult* out,
                            std::vector<ViolationPair>* drained);
  /// Conflicting tuples outside the current result whose candidate values
  /// may now satisfy the filter join the corrected result (Example 3).
  Status JoinConflictExtras(const Expr* filter,
                            const std::vector<ViolationPair>& violations,
                            CleanSelectResult* out);

  Table* table_;
  const DenialConstraint* dc_;
  ProvenanceStore* provenance_;
  const Statistics* stats_;
  ThetaJoinDetector* theta_;
  /// Lazily built correlation index over the FD's original values,
  /// delta-maintained by ApplyDelta.
  std::unique_ptr<FdRelaxIndex> relax_index_;
  std::vector<bool> checked_;
  size_t checked_count_ = 0;
  /// DC rules: ingest batches not yet delta-detected (drained in order).
  std::vector<TableDelta> pending_deltas_;
  /// Rows ingested since the last Run and still live (EXPLAIN accounting;
  /// a row appended and deleted between queries settles as nothing).
  std::vector<RowId> pending_rows_;
};

}  // namespace daisy

#endif  // DAISY_CLEAN_CLEAN_OPERATORS_H_
