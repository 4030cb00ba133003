// Columnar fast-path layer: per-column typed projections of a row-store
// table, kept current by the table's own writes.
//
// Detection and statistics hot loops (theta-join pair checks, FD group-bys,
// Estimate_Errors range counting) pay per-cell std::variant dispatch when
// they read values through Table::cell(). The cache materializes, per
// column:
//
//  * `num`    — a flat double projection. Numerics widen to double; every
//               other value maps onto the stable 1-D hash coordinate the
//               theta-join detector uses for partition pruning
//               (Value::Hash() % 2^30). `num_exact` records whether every
//               int64 survived the widening (|v| <= 2^53 or otherwise
//               representable).
//  * `codes`  — dictionary codes in first-appearance order, consistent with
//               Value::Equals / Value::Hash (int 5 and double 5.0 share a
//               code). Group-bys hash one uint32_t per row instead of a
//               Value tuple.
//  * `ranks`  — dense ranks under Value::Compare (nulls first, numerics by
//               exact value, strings lexicographically). Compare is a total
//               order, so rank comparisons are exact for every type,
//               including int64 values beyond double precision next to
//               doubles.
//  * `nulls`  — null mask; EvalCompare's null semantics are re-applied on
//               top of the flat arrays by consumers.
//  * `sorted_rows`/`sorted_num` — row ids sorted by (num, row id) with the
//               aligned projections, serving the detector's partition sort
//               and binary-search range counts.
//
// Write-through: a column is built on its first column() access and from
// then on only the owning Table changes it, at the write that causes the
// change (the mutators are private; Table is the one friend):
//
//  * appends extend every built column in O(delta) — new rows join
//    num/codes/nulls/probs and the dictionary directly; the sorted index
//    merges the (sorted) new tail in one pass; ranks extend by table
//    lookup, and when the delta introduced new distinct values only those
//    are sorted and merged into the existing rank order (one O(n) relabel
//    pass). A first build is the same extension from an empty column;
//  * candidate writes (Table::SetCandidates) flip the row's `probs` byte in
//    place (O(1), no reallocation);
//  * deletes never touch the cache: the arrays keep tombstoned rows in
//    place (row-id alignment) and consumers filter through Table::is_live;
//  * original edits (Table::mutable_cell, data generators only) drop the
//    whole cache. The next access builds a new one with a new id(), which
//    consumers holding array pointers treat as a wholesale data change.
//
// So a built column is never stale and readers never check freshness.
//
// Concurrent-reader publication: a built column is published through one
// per-slot atomic flag; column() returns a published column lock-free and
// falls into a mutex-guarded first build otherwise. Table writes run under
// the engine's exclusive lock (see clean/daisy_engine.h), so readers on the
// shared path never overlap an extension; the mutex only serializes the
// first build of a never-touched column. Outside that protocol the plain
// contract stands: write single-threaded, then share the arrays read-only.

#ifndef DAISY_STORAGE_COLUMN_CACHE_H_
#define DAISY_STORAGE_COLUMN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "storage/table.h"

namespace daisy {

class ColumnCache {
 public:
  struct Column {
    std::vector<double> num;        ///< row-ordered numeric projection
    std::vector<uint32_t> codes;    ///< row-ordered dictionary codes
    std::vector<uint32_t> ranks;    ///< row-ordered dense Compare ranks
    std::vector<uint8_t> nulls;     ///< row-ordered null mask (1 = null)
    /// Cells carrying repair candidates (1 = probabilistic). Consumers that
    /// answer from the projected originals must fall back to per-cell
    /// evaluation for these rows. Maintained in place by
    /// Table::SetCandidates.
    std::vector<uint8_t> probs;
    std::vector<Value> dict;        ///< code -> first-seen value
    std::vector<Value> sorted_distinct;  ///< rank -> representative value
    std::vector<RowId> sorted_rows;      ///< rows by (num, row id)
    std::vector<double> sorted_num;      ///< num aligned with sorted_rows
    bool numeric_only = true;  ///< every non-null value is numeric
    bool has_nulls = false;    ///< some value is null
    /// Every value is Value::ExactAsDouble, so comparisons on `num` agree
    /// with Value::Compare. Consumers comparing doubles must fall back to
    /// ranks or per-cell evaluation when this is false.
    bool num_exact = true;
  };

  /// `table` must outlive the cache. Only the cache Table::columns() owns
  /// is written through; one constructed directly is a from-scratch view
  /// of the table as of its first column() calls.
  explicit ColumnCache(const Table* table);

  /// Returns the projection of column `c`, building it on first access.
  /// The reference lives as long as the cache; the arrays inside it move
  /// when an append extends them.
  const Column& column(size_t c);

  /// Distinct-value count of column `c` (dictionary size). Counts
  /// tombstoned rows' values too — an upper bound, which is what the
  /// cardinality estimator wants.
  size_t distinct_count(size_t c) { return column(c).dict.size(); }

  /// Min/max of column `c` over the numeric projection. Only meaningful
  /// when every value is numeric and non-null (otherwise the hash
  /// coordinate of a string/null would pollute the range); returns false
  /// in that case and for empty columns.
  bool NumericMinMax(size_t c, double* min_out, double* max_out) {
    const Column& col = column(c);
    if (!col.numeric_only || col.has_nulls || col.sorted_num.empty()) {
      return false;
    }
    *min_out = col.sorted_num.front();
    *max_out = col.sorted_num.back();
    return true;
  }

  /// Fraction of physical rows whose numeric projection is < v (strict)
  /// or <= v (inclusive) — exact binary search over the sorted
  /// projection. A handful of corrupted outliers shifts the answer by
  /// exactly their own mass, where min/max interpolation would let one
  /// stray value stretch the assumed-uniform range arbitrarily. Returns
  /// false for non-numeric / null-bearing / empty columns.
  bool NumericRankFraction(size_t c, double v, bool inclusive,
                           double* frac) {
    const Column& col = column(c);
    if (!col.numeric_only || col.has_nulls || col.sorted_num.empty()) {
      return false;
    }
    const std::vector<double>& s = col.sorted_num;
    const auto it = inclusive ? std::upper_bound(s.begin(), s.end(), v)
                              : std::lower_bound(s.begin(), s.end(), v);
    *frac = static_cast<double>(it - s.begin()) /
            static_cast<double>(s.size());
    return true;
  }

  /// Outlier-robust distinct count: distinct values between the [frac,
  /// 1-frac] quantiles of the numeric projection, scaled by 1/(1-2*frac)
  /// (unbiased under uniform duplication) and clamped to the dictionary
  /// size. Dirty cells tend to be near-unique junk that inflates the raw
  /// dictionary — and with it any 1/ndv join-selectivity model —
  /// while the central mass keeps the keys that actually join. Falls
  /// back to the dictionary size for non-numeric columns.
  size_t TrimmedDistinctCount(size_t c, double frac);

  /// Batch-scan entry point: builds the projections of every column in
  /// `cols` in one call and returns the table's row count. Plan operators
  /// call this once at Open so the per-batch hot loop reads built arrays
  /// without first-build checks interleaved with evaluation.
  size_t EnsureBuilt(const std::vector<size_t>& cols);

  /// Process-unique identity of this cache instance. A consumer holding
  /// array pointers must treat a different id as a wholesale data change
  /// (the table was reassigned or an original edited, and its cache was
  /// dropped and built anew).
  uint64_t id() const { return id_; }

  const Table& table() const { return *table_; }

  /// The shared 1-D coordinate: numerics widen to double, everything else
  /// (nulls included) maps to Value::Hash() % 2^30 — equal values collide,
  /// so equality pruning on the coordinate stays conservative-correct.
  static double NumericCoord(const Value& v);

 private:
  // The table's writers are the only mutators of a built column.
  friend class Table;

  struct Slot {
    Column col;
    // Incremental-extension state: the value -> code map and the code ->
    // rank relabeling, so appends avoid re-deriving them from the
    // dictionary.
    std::unordered_map<Value, uint32_t, ValueHash> dict_index;
    std::vector<uint32_t> rank_of_code;
    // Set under build_mu_ (release) once the first build is final; the
    // lock-free reader fast path in column() checks it with an acquire load.
    std::atomic<bool> published{false};
  };

  /// Append hook (every Table append path, once per call): extends every
  /// built column over the rows appended since its last extension.
  void ExtendBuilt();

  /// Candidate-write hook (Table::SetCandidates): sets row `r`'s
  /// probabilistic bit in column `c` if the column is built. O(1), no
  /// reallocation.
  void SetProbabilistic(RowId r, size_t c, bool probabilistic);

  /// The one build path: rows [num.size(), num_rows) join the projections.
  /// A first build extends an empty column.
  void Extend(size_t c) DAISY_REQUIRES(build_mu_);
  static void AssignRanks(Slot* slot, uint32_t old_distinct);

  const Table* table_;
  /// Sized at construction, never resized. Slots are not GUARDED_BY: the
  /// vector itself is immutable after construction, each slot's arrays are
  /// written only under build_mu_ (Extend, and the probs bytes via
  /// SetProbabilistic), and `published` is the slot's own release/acquire
  /// gate for lock-free readers.
  std::vector<Slot> slots_;
  uint64_t id_;
  Mutex build_mu_;  ///< serializes Extend, SetProbabilistic and publication
};

}  // namespace daisy

#endif  // DAISY_STORAGE_COLUMN_CACHE_H_
