// Probabilistic predicate evaluation over cells, plus WHERE-tree helpers.
//
// Query operators over the gradually-probabilistic dataset use *possible*
// semantics: a tuple qualifies iff at least one candidate value of each
// touched cell can satisfy the condition (Section 4: "query operators
// output a tuple iff at least one candidate value qualifies"). Conjunctions
// evaluate cell-wise, matching the attribute-level uncertainty model.
// Whole predicates are evaluated by plan/compiled_filter.h, which answers
// rows without candidates from the column cache and hands candidate-
// carrying cells to the two per-cell functions below.

#ifndef DAISY_QUERY_EVAL_H_
#define DAISY_QUERY_EVAL_H_

#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "storage/table.h"

namespace daisy {

/// Can some possible value of `cell` satisfy `value_of(cell) op rhs`?
/// Range candidates are tested by half-plane intersection.
bool CellMaySatisfy(const Cell& cell, CompareOp op, const Value& rhs);

/// Can some pair of possible values (va from `a`, vb from `b`) satisfy
/// `va op vb`? Equality reduces to candidate-set overlap — the paper's
/// probabilistic join-key semantics.
bool CellsMayMatch(const Cell& a, CompareOp op, const Cell& b);

/// Flattens top-level ANDs of a WHERE tree into conjuncts.
std::vector<const Expr*> SplitConjuncts(const Expr* expr);

/// Appends the indices of `table`'s columns referenced by `expr` leaves
/// (unqualified or qualified with the table's name; unresolvable leaves are
/// skipped). Shared by rule-overlap planning and filter compilation so the
/// two can never disagree on which columns a predicate touches.
void CollectExprColumns(const Expr& expr, const Table& table,
                        std::vector<size_t>* cols);

/// True if every column leaf of `expr` resolves against `table_name` /
/// `schema` (unqualified columns match if the schema has them).
bool ExprRefersOnlyTo(const Expr& expr, const std::string& table_name,
                      const Schema& schema);

/// If `expr` is an equi-join conjunct `a.x == b.y` across two different
/// qualified tables, extracts the two references. Returns false otherwise.
bool MatchJoinPredicate(const Expr& expr, ColumnRef* left, ColumnRef* right);

}  // namespace daisy

#endif  // DAISY_QUERY_EVAL_H_
