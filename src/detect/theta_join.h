// General DC violation detection via a partitioned cartesian-product matrix
// (Okcan & Riedewald-style theta-join [25]), with the paper's two pruning
// levels and incremental ("partial theta-join") checking:
//
//  * the sorted domain of the primary inequality attribute is split into
//    p partitions; a matrix cell (i, j) is the cross product of partitions
//    i and j;
//  * cells whose boundary ranges cannot satisfy every atom in either tuple
//    orientation are pruned (partition pruning);
//  * within a surviving cell, sorted order restricts the candidate pairs
//    (intra-partition pruning, Example 4);
//  * the symmetric lower triangle is never checked;
//  * rows already cross-checked by earlier queries are skipped, so query i
//    only pays for (result_i x unseen) comparisons (Section 5.2.2);
//  * partition-boundary overlaps give the violation estimates of
//    Algorithm 2 (Estimate_Errors), driving the accuracy-based decision to
//    fall back to full cleaning.
//
// Execution is columnar: partitions, pruning statistics, and pair checks
// all read the table's ColumnCache flat arrays instead of dispatching on
// Value variants per cell. DC atoms are compiled once per partition build:
// numeric-only columns whose values all survive the double projection
// (ColumnCache::Column::num_exact) compare as doubles, same-column and
// constant atoms compare dense Value::Compare ranks (exact for every type:
// Compare is a total order), and the rest — two different string-bearing
// or rounded columns — falls back to per-cell Value evaluation: every pair
// check agrees with DenialConstraint::ViolatedBy.
// Partition pruning reads the same projections and stays conservative:
// order atoms prune only on numeric slots, strictly only on exact ones.
//
// Ingest deltas are pushed, not polled: the engine hands every TableDelta
// on the detector's table to ApplyDelta in the writer section that applied
// it, exactly like FdDeltaDetector::ApplyDelta. Appended rows join the
// coverage as unchecked and the partitions are rebuilt from the
// write-through cache's incrementally-maintained sorted index (no re-sort),
// which also re-points the compiled atoms at the arrays the append grew;
// deleted rows are dropped from the partitions, marked trivially checked,
// and their pairs pruned from the maintained violation set. Appended rows
// are then *integrated* in arrival order — exactly new x preexisting +
// new x new pairs, at a fraction of a full re-detection — either through
// DetectDelta(delta) (the engine's ingest path, which wants the found
// violations for repair) or at the start of the next DetectAll /
// DetectIncremental, which drain every applied but un-integrated row
// first. Either way each cross pair is checked exactly once and the
// maintained set stays identical to a from-scratch DetectAll. Repairs
// attach candidates only and owe the detector nothing; an in-place
// original-value edit (Table::mutable_cell, or reassigning the table)
// requires Rebuild(), which recomputes partitions and resets the coverage.
// A detector that was not told about an append would read arrays the
// append reallocated: the Detect* entries assert (debug builds) that the
// detector's row count matches the table's.
//
// DetectAll has a second path for the paper's running DC shape, exactly
// two cross-tuple order atoms each comparing a column with itself
// (t1.X opX t2.X ∧ t1.Y opY t2.Y, op ∈ {<, ≤, >, ≥}): an order sweep in
// the style of Khayyat et al.'s inequality join. Both atoms compile to
// kRank, so it works on dense ranks and is exact for any column type. It
// sorts the unchecked live rows by X rank, walks groups of equal X in the
// direction opX asks of the partner, and reports for each row every
// already-inserted row whose Y rank satisfies opY, read from a bitset kept
// in Y order: O(n log n + n²/64 + |V|) instead of ~n²/2 pair checks.
// Rows with a null in X or Y satisfy no order atom and are skipped. Every
// other shape, DetectIncremental, DetectDelta (whose pairs_checked is the
// cost model's d_i) and set_pruning_enabled(false) (the tests' oracle)
// keep the partition matrix.
//
// The matrix scan of DetectAll optionally fans the surviving partition
// cells out over a small thread pool. Results are merged in cell order,
// so the violation vector is identical for any thread count; the sweep is
// serial.
//
// The maintained violation set is stored as sorted partner lists indexed
// by t1 with an O(1) count: folding in a delta's pairs appends to the
// lists (re-sorting only those that took an out-of-order partner), so it
// costs O(delta), not O(|V|).

#ifndef DAISY_DETECT_THETA_JOIN_H_
#define DAISY_DETECT_THETA_JOIN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "constraints/denial_constraint.h"
#include "storage/column_cache.h"
#include "storage/table.h"

// The per-atom evaluator runs a few times per candidate pair — billions of
// times per scan — and must not pay a call. GCC's cost model leaves it
// out of line without the hint.
#if defined(__GNUC__) || defined(__clang__)
#define DAISY_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define DAISY_ALWAYS_INLINE inline
#endif

namespace daisy {

/// A violating pair in tuple orientation: `t1` binds the DC's t1, `t2` its
/// t2. For single-tuple constraints t1 == t2.
struct ViolationPair {
  RowId t1;
  RowId t2;
  bool operator==(const ViolationPair& other) const {
    return t1 == other.t1 && t2 == other.t2;
  }
  bool operator<(const ViolationPair& other) const {
    if (t1 != other.t1) return t1 < other.t1;
    return t2 < other.t2;
  }
};

namespace detail {

/// Conservative feasibility of `[lmin,lmax] op [rmin,rmax]`: can *some*
/// pair of values drawn from the two ranges satisfy the comparison?
/// Exposed for unit tests.
bool RangeFeasible(double lmin, double lmax, CompareOp op, double rmin,
                   double rmax);

}  // namespace detail

/// The persistable slice of a ThetaJoinDetector: the coverage and the
/// maintained violation set — the state whose loss would force a restarted
/// engine to pay a full O(n²) re-detection. Partitions, compiled atoms and
/// estimate caches are re-derived from the table on import.
struct ThetaPersistState {
  std::vector<uint8_t> checked;  ///< one byte per row, 1 = cross-checked
  uint64_t integrated_rows = 0;
  uint64_t deleted_log_pos = 0;  ///< table tombstones the state reflects
  uint64_t retractions = 0;      ///< always 0 (kept for the snapshot format)
  std::vector<ViolationPair> maintained;
};

/// Stateful detector bound to one table + one (non-FD) denial constraint.
/// The state tracks which rows have been cross-checked so far, making
/// repeated calls incremental exactly as in the paper.
class ThetaJoinDetector {
 public:
  /// `partitions` is the paper's p (number of ranges the sorted domain is
  /// split into); `threads` caps the DetectAll worker pool (1 = serial).
  /// The table and constraint must outlive the detector.
  ThetaJoinDetector(const Table* table, const DenialConstraint* dc,
                    size_t partitions = 16, size_t threads = 1);

  /// Folds one ingest batch on the table into the detector (see the file
  /// comment): appended rows join the coverage as unchecked, deleted rows
  /// are marked checked and their pairs pruned from the maintained set,
  /// and the partitions are rebuilt. Must be called for every batch, in
  /// order, before any other call reads the table's new state. Returns the
  /// number of maintained pairs the deletions retracted — the engine's
  /// signal that repairs derived from the retracted evidence must be
  /// re-derived from the surviving maintained_violations().
  size_t ApplyDelta(const TableDelta& delta);

  /// Recomputes partitions and compiled atoms from the table and resets
  /// the coverage (everything unchecked but tombstones, maintained set
  /// empty). Needed only after an in-place original-value edit.
  void Rebuild();

  /// Finds every violation among rows not yet checked (after draining
  /// un-integrated appends) and marks every row checked. A DC of exactly
  /// two cross-tuple order atoms on one column each (t1.X opX t2.X ∧
  /// t1.Y opY t2.Y, op ∈ {<, ≤, >, ≥}) takes the order sweep (see the file
  /// comment); any other DC, and every call with pruning disabled, checks
  /// the upper-triangle partition matrix (both tuple orientations per
  /// pair) with partition pruning. The result is deterministic and
  /// independent of the thread count.
  std::vector<ViolationPair> DetectAll();

  /// Partial theta-join: checks `result_rows` (must be sorted ascending)
  /// against every row not yet mutually checked, then marks `result_rows`
  /// as checked. Violations entirely inside the unseen part are
  /// intentionally not detected.
  std::vector<ViolationPair> DetectIncremental(
      const std::vector<RowId>& result_rows);

  /// Delta detection (after ApplyDelta): integrates every live appended
  /// row up to the end of this batch (earlier un-integrated arrivals
  /// first, in order), checking each against every preexisting row
  /// (checked or not) and against each other — exactly new x old + new x
  /// new pairs — then marks them checked, restoring the "checked means
  /// cross-checked against every row" invariant the appends broke.
  /// Returns the new violations (both orientations, like DetectAll) and
  /// folds them into maintained_violations(). Already-integrated or
  /// deleted batch rows are skipped, so re-feeding a delta is a no-op.
  std::vector<ViolationPair> DetectDelta(const TableDelta& delta);

  /// The violation set maintained across DetectAll / DetectIncremental /
  /// DetectDelta calls, sorted by (t1, t2): every violating pair whose
  /// endpoints are both covered (pairs touching deleted rows are pruned).
  /// After full coverage it equals a from-scratch DetectAll, bit for bit.
  /// Flattened from the per-row partner lists on each call: O(|V|).
  std::vector<ViolationPair> maintained_violations() const;

  /// Size of the maintained set (plan-time cardinality estimation), O(1).
  size_t maintained_violation_count() const { return maintained_count_; }

  /// Algorithm 2, Estimate_Errors: per-partition estimated violation counts
  /// derived from boundary-range overlaps. Index = partition id.
  const std::vector<double>& EstimateErrors();

  /// Estimated accuracy of a query answer: 1 - errors/(|qa| + errors) where
  /// `errors` sums the estimates of the partitions the answer overlaps
  /// (Algorithm 2 lines 4-6). Returns 1 for an empty answer.
  double EstimateAccuracy(const std::vector<RowId>& result_rows);

  /// Fraction of upper-triangle partition cells already fully checked
  /// (Algorithm 2 line 7).
  double Support() const;

  /// True once every live row is marked checked (appended rows count as
  /// unchecked from their ApplyDelta on).
  bool FullyChecked() const { return checked_count_ == checked_.size(); }

  size_t num_partitions() const { return boundaries_.size(); }

  // Instrumentation (reset by each Detect* call). pairs_checked counts
  // one per candidate pair the partitioned theta join evaluates (both
  // orientations at once), and one per oriented pair the order sweep
  // reports (see DetectAll); a DetectAll that drains appends first adds
  // the drain's theta-join count.
  size_t pairs_checked() const { return pairs_checked_; }
  size_t partitions_pruned() const { return partitions_pruned_; }

  /// Disables partition pruning and the order sweep: the unpruned oracle
  /// of the tests and the pruning ablation of the operator micro-bench.
  void set_pruning_enabled(bool enabled) { pruning_enabled_ = enabled; }

  /// Captures the coverage state for a snapshot. `deleted_log_pos` is the
  /// table's tombstone count and `retractions` is 0: every delete's
  /// retractions are consumed in the writer section that applied it.
  ThetaPersistState ExportState() const;

  /// Restores a previously exported coverage state onto a detector freshly
  /// constructed over the snapshotted table (the constructor built the
  /// partitions and compiled atoms); only the coverage, the
  /// integration watermark, and the maintained violation set are
  /// installed. Fails if the state does not match the table's dimensions
  /// or ingest history, or carries unconsumed retractions.
  Status ImportState(const ThetaPersistState& state);

 private:
  struct PartitionStats {
    size_t begin = 0;  ///< range [begin, end) into sorted_
    size_t end = 0;
    // Per involved-column slot: min/max of the numeric projection.
    std::vector<double> min_val;
    std::vector<double> max_val;
    // Per involved-column slot: the partition's projections, sorted —
    // Estimate_Errors range counts binary-search these (built lazily).
    std::vector<std::vector<double>> sorted_vals;
  };

  /// One DC atom compiled against the column cache. `kind` picks the
  /// representation that reproduces EvalCompare exactly (see file comment).
  struct CompiledAtom {
    enum class Kind {
      kNum,        ///< column vs column, both exact numeric: doubles
      kRank,       ///< column vs same column: dense Compare ranks
      kNumConst,   ///< exact numeric column vs exact numeric constant
      kRankConst,  ///< column vs constant located in the rank domain
      kNullConst,  ///< column vs null constant
      kRow,        ///< fallback: per-cell Value evaluation
    };
    Kind kind = Kind::kRow;
    CompareOp op = CompareOp::kEq;
    int left_tuple = 0;
    int right_tuple = 0;
    /// False when every referenced column is null-free: the null-mask loads
    /// are skipped entirely in the hot loop.
    bool check_nulls = true;
    const double* lnum = nullptr;
    const uint8_t* lnulls = nullptr;
    const uint32_t* lranks = nullptr;
    const double* rnum = nullptr;
    const uint8_t* rnulls = nullptr;
    const uint32_t* rranks = nullptr;
    double cnum = 0.0;      ///< kNumConst: the constant as double
    uint32_t clo = 0;       ///< kRankConst: #distinct values Compare< const
    bool chas_eq = false;   ///< kRankConst: some value Compare== const
    size_t atom_index = 0;  ///< kRow: index into dc_->atoms()
  };

  /// Coverage reset shared by the constructor and Rebuild: everything
  /// unchecked except tombstones, no rows owing an integration pass,
  /// maintained set empty.
  void ResetCoverage();
  /// Debug-build check that every append was pushed through ApplyDelta.
  void AssertToldOfAppends() const;
  /// Every checked_ write goes through here so checked_count_ stays exact
  /// (FullyChecked answers full coverage in O(1) on the read path).
  void MarkRowChecked(RowId r) {
    if (!checked_[r]) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
  /// Folds found pairs into the partner lists. A pair past its list's
  /// last partner appends; only lists that received an out-of-order
  /// partner are re-sorted (and de-duplicated) afterwards, so the cost is
  /// O(|found|) plus the sort of the touched lists, never O(|V|).
  void MergeIntoMaintained(const std::vector<ViolationPair>& found);
  /// DetectAll's theta-join core: the surviving upper-triangle partition
  /// cells, scanned over unchecked rows. Adds to pairs_checked_.
  std::vector<ViolationPair> ScanMatrix();
  /// DetectAll's order sweep over unchecked rows (sweep_ must be set).
  /// Adds one to pairs_checked_ per reported pair.
  std::vector<ViolationPair> SweepOrderPairs();
  /// Integrates appended rows [integrated_rows_, end) — the DetectDelta
  /// core, shared with the auto-drain DetectAll/DetectIncremental run
  /// first. Appends to pairs_checked_.
  std::vector<ViolationPair> DrainAppends(RowId end);
  void BuildPartitions();
  void CompileAtoms(ColumnCache& cache);
  void BuildRangeIndex();
  bool PairFeasible(const PartitionStats& a, const PartitionStats& b) const;
  bool OrientationFeasible(const PartitionStats& t1_part,
                           const PartitionStats& t2_part) const;
  DAISY_ALWAYS_INLINE bool EvalAtomFlat(const CompiledAtom& atom, RowId a,
                                        RowId b) const;
  std::pair<bool, bool> CheckBoth(RowId a, RowId b) const;
  void CheckPair(RowId a, RowId b, std::vector<ViolationPair>* out,
                 size_t* pairs) const;
  void ScanCell(size_t i, size_t j, std::vector<ViolationPair>* out,
                size_t* pairs) const;
  size_t CountRowsInRange(const PartitionStats& p, size_t slot, double lo,
                          double hi) const;

  const Table* table_;
  const DenialConstraint* dc_;
  size_t requested_partitions_;
  size_t threads_ = 1;
  bool pruning_enabled_ = true;

  size_t sort_column_ = 0;             ///< primary inequality attribute
  size_t sort_slot_ = 0;               ///< its slot in involved_columns()
  std::vector<RowId> sorted_;          ///< live rows, sorted by sort_column_
  std::vector<PartitionStats> boundaries_;
  std::vector<bool> checked_;          ///< row id -> cross-checked?
  size_t checked_count_ = 0;           ///< number of true bits in checked_
  /// The maintained violation set as sorted partner lists: partners_[t1]
  /// holds every t2 of a maintained pair (t1, t2), ascending. Indexed by
  /// row id (grown by ApplyDelta); see maintained_violations().
  std::vector<std::vector<RowId>> partners_;
  size_t maintained_count_ = 0;  ///< total length of the partner lists
  /// The two-order-atom shape DetectAll sweeps instead of scanning: atom
  /// indices into compiled_ and their ops, oriented as `t1.col op t2.col`.
  struct OrderSweep {
    size_t x_atom = 0;
    CompareOp x_op = CompareOp::kLt;
    size_t y_atom = 0;
    CompareOp y_op = CompareOp::kLt;
  };
  std::optional<OrderSweep> sweep_;
  /// Rows below this id are integrated: cross-checked against the checked
  /// set (or known-unchecked). Rows at or above arrived later and still
  /// owe their new x old pass.
  RowId integrated_rows_ = 0;

  // Flat-array state, rebuilt by every ApplyDelta and Rebuild. cols_ is
  // indexed by involved-column slot.
  std::vector<const ColumnCache::Column*> cols_;
  std::vector<CompiledAtom> compiled_;
  bool range_index_built_ = false;

  std::vector<double> range_vio_;      ///< Estimate_Errors cache
  bool range_vio_valid_ = false;

  size_t pairs_checked_ = 0;
  size_t partitions_pruned_ = 0;
};

}  // namespace daisy

#endif  // DAISY_DETECT_THETA_JOIN_H_
