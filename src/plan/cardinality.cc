#include "plan/cardinality.h"

#include <algorithm>

#include "storage/column_cache.h"

namespace daisy {

namespace {

// Fallbacks when a predicate gives the statistics nothing to work with
// (non-numeric ranges, unresolvable columns, column-vs-column compares).
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kDefaultCmpSelectivity = 0.5;

// Quantile mass trimmed off each end for the robust join-key ndv. Sized
// for the dirty fractions the paper's workloads inject (up to ~10% of a
// column's cells are typos); the scale-up in TrimmedDistinctCount keeps
// the count unbiased for clean uniform columns.
constexpr double kNdvTrimFraction = 0.1;

double Clamp01(double s) { return std::min(1.0, std::max(0.0, s)); }

}  // namespace

double CardinalityEstimator::TableRows(size_t t) const {
  if (t >= tables_.size()) return 0.0;
  return static_cast<double>(tables_[t]->num_live_rows());
}

size_t CardinalityEstimator::DistinctCount(size_t t, size_t col) const {
  if (t >= tables_.size() ||
      col >= tables_[t]->schema().num_columns()) {
    return 1;
  }
  return std::max<size_t>(1, tables_[t]->columns().distinct_count(col));
}

size_t CardinalityEstimator::RobustDistinctCount(size_t t, size_t col) const {
  if (t >= tables_.size() ||
      col >= tables_[t]->schema().num_columns()) {
    return 1;
  }
  return std::max<size_t>(
      1, tables_[t]->columns().TrimmedDistinctCount(col, kNdvTrimFraction));
}

double CardinalityEstimator::LeafSelectivity(size_t t, const Expr& leaf) const {
  const Table& table = *tables_[t];
  auto col = table.schema().ColumnIndex(leaf.left.column);
  if (!col.ok()) return 1.0;
  if (leaf.right_is_column) {
    // Intra-table column compare; rare in the paper's workloads.
    return kDefaultCmpSelectivity;
  }
  const double ndv = static_cast<double>(DistinctCount(t, col.value()));
  const double rows = std::max(1.0, TableRows(t));
  // Numeric comparisons answer from the sorted projection: exact rank
  // fractions, immune to the range-stretching of dirty outlier values.
  if (leaf.right_val.is_numeric()) {
    const double x = leaf.right_val.AsDouble();
    double le = 0, lt = 0;
    const bool have =
        table.columns().NumericRankFraction(col.value(), x, true, &le) &&
        table.columns().NumericRankFraction(col.value(), x, false, &lt);
    if (have) {
      switch (leaf.op) {
        case CompareOp::kEq:
          // Floor at half a row so a missing key still prices > 0.
          return Clamp01(std::max(le - lt, 0.5 / rows));
        case CompareOp::kNeq:
          return Clamp01(1.0 - (le - lt));
        case CompareOp::kLt:
          return Clamp01(lt);
        case CompareOp::kLeq:
          return Clamp01(le);
        case CompareOp::kGt:
          return Clamp01(1.0 - le);
        case CompareOp::kGeq:
          return Clamp01(1.0 - lt);
      }
    }
  }
  switch (leaf.op) {
    case CompareOp::kEq:
      return 1.0 / ndv;
    case CompareOp::kNeq:
      return Clamp01(1.0 - 1.0 / ndv);
    case CompareOp::kLt:
    case CompareOp::kLeq:
    case CompareOp::kGt:
    case CompareOp::kGeq: {
      if (!leaf.right_val.is_numeric()) return kDefaultRangeSelectivity;
      double lo = 0, hi = 0;
      if (!table.columns().NumericMinMax(col.value(), &lo, &hi) || hi <= lo) {
        return kDefaultRangeSelectivity;
      }
      const double x = leaf.right_val.AsDouble();
      const double below = Clamp01((x - lo) / (hi - lo));
      return leaf.op == CompareOp::kLt || leaf.op == CompareOp::kLeq
                 ? below
                 : Clamp01(1.0 - below);
    }
  }
  return kDefaultCmpSelectivity;
}

double CardinalityEstimator::FilterSelectivity(size_t t,
                                               const Expr* expr) const {
  if (expr == nullptr || t >= tables_.size()) return 1.0;
  switch (expr->kind) {
    case Expr::Kind::kCmp:
      return LeafSelectivity(t, *expr);
    case Expr::Kind::kAnd: {
      double s = 1.0;
      for (const auto& child : expr->children) {
        s *= FilterSelectivity(t, child.get());
      }
      return Clamp01(s);
    }
    case Expr::Kind::kOr: {
      double none = 1.0;
      for (const auto& child : expr->children) {
        none *= 1.0 - FilterSelectivity(t, child.get());
      }
      return Clamp01(1.0 - none);
    }
  }
  return 1.0;
}

double CardinalityEstimator::FilteredRows(size_t t, const Expr* expr) const {
  return TableRows(t) * FilterSelectivity(t, expr);
}

double CardinalityEstimator::JoinSelectivity(
    const JoinPred& pred) const {
  const size_t ndv =
      std::max(RobustDistinctCount(pred.left_table, pred.left_col),
               RobustDistinctCount(pred.right_table, pred.right_col));
  return 1.0 / static_cast<double>(ndv);
}

double CardinalityEstimator::JoinOutputRows(
    double left_rows, double right_rows,
    const JoinPred& pred) const {
  return std::max(0.0, left_rows * right_rows * JoinSelectivity(pred));
}

}  // namespace daisy
