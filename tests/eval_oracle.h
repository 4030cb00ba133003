// Row-at-a-time reference evaluators for differential tests. libdaisy
// evaluates predicates, FD groupings and DC pair checks only on the
// ColumnCache projections (plan/compiled_filter.h, detect/group_by.h,
// detect/theta_join.h); these oracles restate the same semantics one row
// at a time over Table::cell, so the compiled paths can be checked
// against them:
//
//  * RowMaySatisfy / FilterRows — possible semantics (paper §4): a row
//    qualifies iff some candidate of every touched cell may satisfy its
//    leaf (CellMaySatisfy / CellsMayMatch); kAnd = all children, kOr = any.
//  * GroupRowsBy / DetectFdViolations — hash the Value tuple of each row.
//  * ViolatingPairs — every oriented pair of distinct live rows for which
//    DenialConstraint::ViolatedBy holds, by enumeration.

#ifndef DAISY_TESTS_EVAL_ORACLE_H_
#define DAISY_TESTS_EVAL_ORACLE_H_

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "constraints/denial_constraint.h"
#include "detect/fd_detector.h"
#include "detect/group_by.h"
#include "query/ast.h"
#include "query/eval.h"
#include "storage/table.h"

namespace daisy {
namespace oracle {

inline Result<size_t> ResolveLeafColumn(const Table& table,
                                        const ColumnRef& ref) {
  if (!ref.table.empty() && ref.table != table.name()) {
    return Status::NotFound("column " + ref.ToString() +
                            " does not belong to table " + table.name());
  }
  return table.schema().ColumnIndex(ref.column);
}

/// Evaluates a WHERE expression over one row of `table`. Every column leaf
/// must resolve in the table's schema (the qualifier, if present, must be
/// the table's name).
inline Result<bool> RowMaySatisfy(const Table& table, RowId row,
                                  const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kCmp: {
      DAISY_ASSIGN_OR_RETURN(size_t left_col,
                             ResolveLeafColumn(table, expr.left));
      if (expr.right_is_column) {
        DAISY_ASSIGN_OR_RETURN(size_t right_col,
                               ResolveLeafColumn(table, expr.right_col));
        return CellsMayMatch(table.cell(row, left_col), expr.op,
                             table.cell(row, right_col));
      }
      return CellMaySatisfy(table.cell(row, left_col), expr.op,
                            expr.right_val);
    }
    case Expr::Kind::kAnd:
      for (const auto& child : expr.children) {
        DAISY_ASSIGN_OR_RETURN(bool ok,
                               oracle::RowMaySatisfy(table, row, *child));
        if (!ok) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const auto& child : expr.children) {
        DAISY_ASSIGN_OR_RETURN(bool ok,
                               oracle::RowMaySatisfy(table, row, *child));
        if (ok) return true;
      }
      return false;
  }
  return Status::Internal("unreachable expr kind");
}

/// The rows of `input` that may satisfy `expr` (null expr keeps all).
inline Result<std::vector<RowId>> FilterRows(const Table& table,
                                             const Expr* expr,
                                             const std::vector<RowId>& input) {
  if (expr == nullptr) return input;
  std::vector<RowId> out;
  for (RowId r : input) {
    DAISY_ASSIGN_OR_RETURN(bool ok, oracle::RowMaySatisfy(table, r, *expr));
    if (ok) out.push_back(r);
  }
  return out;
}

/// Groups `rows` by the Value tuple of `columns`, hashed per row.
inline GroupMap GroupRowsBy(const Table& table,
                            const std::vector<size_t>& columns,
                            const std::vector<RowId>& rows) {
  GroupMap groups;
  for (RowId r : rows) groups[MakeGroupKey(table, r, columns)].push_back(r);
  return groups;
}

/// FD detection over GroupRowsBy with a per-group Value histogram of the
/// rhs, in the library's canonical group and histogram order.
inline std::vector<FdGroup> DetectFdViolations(const Table& table,
                                               const DenialConstraint& dc,
                                               const std::vector<RowId>& rows,
                                               bool include_clean = false) {
  const FdView& fd = dc.fd();
  std::vector<FdGroup> out;
  for (auto& [key, members] : oracle::GroupRowsBy(table, fd.lhs, rows)) {
    std::unordered_map<Value, size_t, ValueHash> hist;
    for (RowId r : members) hist[table.cell(r, fd.rhs).original()] += 1;
    if (hist.size() <= 1 && !include_clean) continue;
    FdGroup group;
    group.lhs_key = key;
    group.rows = members;
    group.rhs_histogram.assign(hist.begin(), hist.end());
    SortFdRhsHistogram(&group.rhs_histogram);
    out.push_back(std::move(group));
  }
  SortFdGroups(&out);
  return out;
}

/// Every oriented pair (t1, t2) of distinct live rows violating `dc`.
inline std::set<std::pair<RowId, RowId>> ViolatingPairs(
    const Table& table, const DenialConstraint& dc) {
  std::set<std::pair<RowId, RowId>> out;
  for (RowId a = 0; a < table.num_rows(); ++a) {
    if (!table.is_live(a)) continue;
    for (RowId b = 0; b < table.num_rows(); ++b) {
      if (a == b || !table.is_live(b)) continue;
      if (dc.ViolatedBy(table, a, b)) out.insert({a, b});
    }
  }
  return out;
}

}  // namespace oracle
}  // namespace daisy

#endif  // DAISY_TESTS_EVAL_ORACLE_H_
