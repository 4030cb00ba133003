// Abstract syntax for the SPJ + group-by query template of Section 5:
//
//   SELECT <list> FROM <t> [, <t>...]
//   [WHERE <col> <op> <val|col> [AND/OR ...]] [GROUP BY <cols>]

#ifndef DAISY_QUERY_AST_H_
#define DAISY_QUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "constraints/predicate.h"

namespace daisy {

/// A possibly table-qualified column reference.
struct ColumnRef {
  std::string table;  ///< empty = unqualified
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

enum class AggFunc { kNone, kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncToString(AggFunc f);

/// One projection item: a column, `*`, or an aggregate over a column/`*`.
struct SelectItem {
  bool star = false;  ///< `*` or AGG(*)
  ColumnRef col;
  AggFunc agg = AggFunc::kNone;
  std::string alias;

  std::string ToString() const;
};

/// WHERE-clause expression tree: AND/OR over comparison leaves.
struct Expr {
  enum class Kind { kAnd, kOr, kCmp };
  Kind kind = Kind::kCmp;

  // kAnd / kOr
  std::vector<std::unique_ptr<Expr>> children;

  // kCmp: left <op> right, right being a literal or another column.
  ColumnRef left;
  CompareOp op = CompareOp::kEq;
  bool right_is_column = false;
  ColumnRef right_col;
  Value right_val;

  /// SQL text ParseQuery reads back into an equal tree (finite, non-null
  /// constants): strings quote with '' escaping, doubles print their
  /// shortest round-trip digits.
  std::string ToString() const;
};

/// A parsed SELECT statement.
struct SelectStmt {
  std::vector<SelectItem> select_list;
  std::vector<std::string> tables;
  std::unique_ptr<Expr> where;  ///< null when absent
  std::vector<ColumnRef> group_by;

  bool has_aggregate() const {
    for (const SelectItem& item : select_list) {
      if (item.agg != AggFunc::kNone) return true;
    }
    return false;
  }

  std::string ToString() const;
};

}  // namespace daisy

#endif  // DAISY_QUERY_AST_H_
