// Cardinality estimation for the cost-based optimizer (src/plan/optimizer.h).
//
// The estimator is fed entirely from statistics the engine already
// maintains for free:
//
//  * ColumnCache sorted numeric projections — range and equality
//    predicates are priced by exact rank fractions (binary search), so a
//    few corrupted outlier values shift an estimate by their own mass
//    instead of stretching an assumed-uniform min/max interval. This
//    matters here more than in a clean-data optimizer: the tables are
//    dirty by design, and the typo values that cleaning will later repair
//    sit far outside the true domain.
//  * ColumnCache dictionaries — distinct counts drive equality selectivity
//    for non-numeric columns, and outlier-trimmed distinct counts drive
//    equi-join selectivity (1 / max ndv, the classic System-R rule, over
//    the central-mass ndv so near-unique junk values do not dilute it);
//  * live row counts — the scan cardinality every chain starts from.
//
// Everything returns doubles clamped to sane ranges; estimates are only
// compared against each other (join-order and cleanσ-placement decisions),
// never trusted as exact counts. All estimate reads are pure with respect
// to engine state except the lazy first build of a never-touched column
// projection, which ColumnCache serializes internally (safe under the
// engine's shared lock — see storage/column_cache.h).

#ifndef DAISY_PLAN_CARDINALITY_H_
#define DAISY_PLAN_CARDINALITY_H_

#include <cstddef>
#include <vector>

#include "plan/plan_node.h"
#include "query/ast.h"
#include "storage/table.h"

namespace daisy {

class CardinalityEstimator {
 public:
  /// `tables` is the FROM list by position; the pointed-to tables must
  /// outlive the estimator.
  explicit CardinalityEstimator(std::vector<const Table*> tables)
      : tables_(std::move(tables)) {}

  /// Live rows of FROM table `t` — the scan output estimate (exact).
  double TableRows(size_t t) const;

  /// Selectivity of `expr` over table `t` in [0, 1]; 1.0 for null.
  /// Conjunctions multiply, disjunctions combine with inclusion-exclusion
  /// under the usual independence assumption.
  double FilterSelectivity(size_t t, const Expr* expr) const;

  /// TableRows x FilterSelectivity — the per-table chain output estimate.
  double FilteredRows(size_t t, const Expr* expr) const;

  /// Equi-join selectivity of `pred`: 1 / max(ndv(left), ndv(right)),
  /// with both ndv values outlier-trimmed (RobustDistinctCount).
  double JoinSelectivity(const JoinPred& pred) const;

  /// left_rows x right_rows x JoinSelectivity, floored at 0.
  double JoinOutputRows(double left_rows, double right_rows,
                        const JoinPred& pred) const;

  /// Distinct-value count of (table, column) from the ColumnCache
  /// dictionary; always >= 1 so it can be divided by.
  size_t DistinctCount(size_t t, size_t col) const;

  /// Outlier-trimmed distinct count of (table, column): distinct values
  /// of the central quantile mass, scaled back up (see
  /// ColumnCache::TrimmedDistinctCount); always >= 1.
  size_t RobustDistinctCount(size_t t, size_t col) const;

 private:
  double LeafSelectivity(size_t t, const Expr& leaf) const;

  std::vector<const Table*> tables_;
};

}  // namespace daisy

#endif  // DAISY_PLAN_CARDINALITY_H_
