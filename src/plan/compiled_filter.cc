#include "plan/compiled_filter.h"

#include <algorithm>

#include "query/eval.h"

namespace daisy {

Result<size_t> CompiledFilter::ResolveColumn(const ColumnRef& ref) const {
  if (!ref.table.empty() && ref.table != table_->name()) {
    return Status::NotFound("column " + ref.ToString() +
                            " does not belong to table " + table_->name());
  }
  return table_->schema().ColumnIndex(ref.column);
}

Result<CompiledFilter::Node> CompiledFilter::CompileNode(const Expr& expr) {
  Node node;
  node.ekind = expr.kind;
  if (expr.kind != Expr::Kind::kCmp) {
    node.children.reserve(expr.children.size());
    for (const auto& child : expr.children) {
      DAISY_ASSIGN_OR_RETURN(Node c, CompileNode(*child));
      node.children.push_back(std::move(c));
    }
    return node;
  }

  node.op = expr.op;
  DAISY_ASSIGN_OR_RETURN(node.left_col, ResolveColumn(expr.left));
  ColumnCache& cache = table_->columns();
  const ColumnCache::Column& left = cache.column(node.left_col);
  node.lranks = &left.ranks;
  node.lnum = &left.num;
  node.lnulls = &left.nulls;
  node.lprob = &left.probs;

  if (!expr.right_is_column) {
    node.rhs_val = expr.right_val;
    if (node.rhs_val.is_null()) {
      node.lkind = LeafKind::kConstNull;
      return node;
    }
    node.lkind = LeafKind::kConstRank;
    const std::vector<Value>& sorted = left.sorted_distinct;
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), node.rhs_val,
        [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    node.bound_rank = static_cast<uint32_t>(it - sorted.begin());
    node.bound_in_dict = it != sorted.end() && it->Compare(node.rhs_val) == 0;
    node.null_result = NullCompare(true, false, node.op);
    return node;
  }

  node.right_is_column = true;
  DAISY_ASSIGN_OR_RETURN(node.right_col, ResolveColumn(expr.right_col));
  const ColumnCache::Column& right = cache.column(node.right_col);
  node.rranks = &right.ranks;
  node.rnum = &right.num;
  node.rnulls = &right.nulls;
  node.rprob = &right.probs;
  if (node.left_col == node.right_col) {
    node.lkind = LeafKind::kSameColRank;
  } else if (left.numeric_only && right.numeric_only && left.num_exact &&
             right.num_exact) {
    node.lkind = LeafKind::kNumericCols;
  } else {
    // Cross-column comparison with strings or rounded int64s involved:
    // ranks come from different dictionaries and are not comparable —
    // mirror the theta-join detector's row fallback.
    node.lkind = LeafKind::kRowFallback;
  }
  return node;
}

Result<CompiledFilter> CompiledFilter::Compile(const Table& table,
                                               const Expr& expr) {
  CompiledFilter filter;
  filter.table_ = &table;
  // One batched build of every referenced projection up front; the compile
  // walk below then only takes references into fresh storage.
  std::vector<size_t> cols;
  CollectExprColumns(expr, table, &cols);
  table.columns().EnsureBuilt(cols);
  DAISY_ASSIGN_OR_RETURN(filter.root_, filter.CompileNode(expr));
  return filter;
}

bool CompiledFilter::EvalLeaf(const Node& node, RowId r) const {
  switch (node.lkind) {
    case LeafKind::kConstNull: {
      if ((*node.lprob)[r]) {
        return CellMaySatisfy(table_->cell(r, node.left_col), node.op,
                              node.rhs_val);
      }
      return NullCompare((*node.lnulls)[r] != 0, true, node.op);
    }
    case LeafKind::kConstRank: {
      if ((*node.lprob)[r]) {
        return CellMaySatisfy(table_->cell(r, node.left_col), node.op,
                              node.rhs_val);
      }
      if ((*node.lnulls)[r]) return node.null_result;
      const uint32_t rank = (*node.lranks)[r];
      switch (node.op) {
        case CompareOp::kEq:
          return node.bound_in_dict && rank == node.bound_rank;
        case CompareOp::kNeq:
          return !(node.bound_in_dict && rank == node.bound_rank);
        case CompareOp::kLt:
          return rank < node.bound_rank;
        case CompareOp::kLeq:
          return node.bound_in_dict ? rank <= node.bound_rank
                                    : rank < node.bound_rank;
        case CompareOp::kGt:
          return node.bound_in_dict ? rank > node.bound_rank
                                    : rank >= node.bound_rank;
        case CompareOp::kGeq:
          return rank >= node.bound_rank;
      }
      return false;
    }
    case LeafKind::kSameColRank:
    case LeafKind::kNumericCols: {
      if ((*node.lprob)[r] || (*node.rprob)[r]) {
        return CellsMayMatch(table_->cell(r, node.left_col), node.op,
                             table_->cell(r, node.right_col));
      }
      const bool ln = (*node.lnulls)[r] != 0;
      const bool rn = (*node.rnulls)[r] != 0;
      if (ln || rn) return NullCompare(ln, rn, node.op);
      if (node.lkind == LeafKind::kSameColRank) {
        return CompareRanks((*node.lranks)[r], node.op, (*node.rranks)[r]);
      }
      return CompareDoubles((*node.lnum)[r], node.op, (*node.rnum)[r]);
    }
    case LeafKind::kRowFallback: {
      const Cell& lhs = table_->cell(r, node.left_col);
      if (node.right_is_column) {
        return CellsMayMatch(lhs, node.op, table_->cell(r, node.right_col));
      }
      return CellMaySatisfy(lhs, node.op, node.rhs_val);
    }
  }
  return false;
}

bool CompiledFilter::EvalNode(const Node& node, RowId r) const {
  switch (node.ekind) {
    case Expr::Kind::kCmp:
      return EvalLeaf(node, r);
    case Expr::Kind::kAnd:
      for (const Node& child : node.children) {
        if (!EvalNode(child, r)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const Node& child : node.children) {
        if (EvalNode(child, r)) return true;
      }
      return false;
  }
  return false;
}

bool CompiledFilter::Matches(RowId r) const { return EvalNode(root_, r); }

Result<std::vector<RowId>> FilterRows(const Table& table, const Expr* expr,
                                      const std::vector<RowId>& input) {
  if (expr == nullptr || input.empty()) return input;
  DAISY_ASSIGN_OR_RETURN(CompiledFilter filter,
                         CompiledFilter::Compile(table, *expr));
  std::vector<RowId> out;
  out.reserve(input.size());
  for (RowId r : input) {
    if (filter.Matches(r)) out.push_back(r);
  }
  return out;
}

}  // namespace daisy
