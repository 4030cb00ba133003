// Reference join for differential tests: a row-at-a-time left-deep
// FROM-order hash join over materialized per-table row sets, independent
// of the plan layer's HashJoinNode. Each step applies every predicate
// connecting the new table to the bound prefix: the first one hashed, the
// rest checked per matched pair.
//
// Semantics under test (possible-candidate equality): a build row's join
// cell hashes each point candidate (or its original when certain); rows
// whose cell carries range candidates also go to a linear side list
// matched with CellsMayMatch. A probe row matches through any of its
// PossibleValues. Output is probe-major, each probe's matches sorted by
// row id; a step no predicate reaches is a cartesian product in the new
// table's input order.

#ifndef DAISY_TESTS_JOIN_ORACLE_H_
#define DAISY_TESTS_JOIN_ORACLE_H_

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "plan/planner.h"
#include "query/eval.h"
#include "storage/table.h"

namespace daisy {
namespace oracle {

/// One predicate of a join step, resolved into the end in the new table
/// (hashed side) and the end in the bound prefix (probe side).
struct StepPred {
  size_t bound_table = 0;
  size_t bound_col = 0;
  size_t next_col = 0;
};

/// True when the probe cell may equal the new-table cell under the hash
/// join's possible-candidate semantics.
inline bool MayJoin(const Cell& probe, const Cell& next) {
  std::vector<Value> keys;
  bool has_range = false;
  if (next.is_probabilistic()) {
    for (const Candidate& c : next.candidates()) {
      if (c.kind != CandidateKind::kPoint) {
        has_range = true;
        continue;
      }
      keys.push_back(c.value);
    }
  } else {
    keys.push_back(next.original());
  }
  for (const Value& v : probe.PossibleValues()) {
    if (std::find(keys.begin(), keys.end(), v) != keys.end()) return true;
  }
  return has_range && CellsMayMatch(probe, CompareOp::kEq, next);
}

/// Extends every joined row of `current` with the rows of table `next_idx`
/// that satisfy every predicate linking it to the bound tables.
inline std::vector<JoinedRow> JoinStep(
    const std::vector<const Table*>& tables, std::vector<JoinedRow> current,
    size_t next_idx, const std::vector<RowId>& next_rows,
    const std::vector<JoinPred>& joins, const std::vector<bool>& bound) {
  std::vector<StepPred> preds;
  for (const JoinPred& p : joins) {
    if (p.left_table == next_idx && bound[p.right_table]) {
      preds.push_back({p.right_table, p.right_col, p.left_col});
    } else if (p.right_table == next_idx && bound[p.left_table]) {
      preds.push_back({p.left_table, p.left_col, p.right_col});
    }
  }
  std::vector<JoinedRow> out;
  if (preds.empty()) {
    out.reserve(current.size() * next_rows.size());
    for (const JoinedRow& row : current) {
      for (RowId r : next_rows) {
        JoinedRow j = row;
        j[next_idx] = r;
        out.push_back(std::move(j));
      }
    }
    return out;
  }

  const StepPred& key = preds[0];
  const Table& next_table = *tables[next_idx];
  // Build: every point candidate of the next side's join cell hashes the
  // row; rows with range candidates go to a linear-probe side list.
  std::unordered_map<Value, std::vector<RowId>, ValueHash> hash;
  std::vector<RowId> range_rows;
  for (RowId r : next_rows) {
    const Cell& cell = next_table.cell(r, key.next_col);
    bool has_range = false;
    if (cell.is_probabilistic()) {
      for (const Candidate& c : cell.candidates()) {
        if (c.kind != CandidateKind::kPoint) {
          has_range = true;
          continue;
        }
        hash[c.value].push_back(r);
      }
    } else {
      hash[cell.original()].push_back(r);
    }
    if (has_range) range_rows.push_back(r);
  }

  for (const JoinedRow& row : current) {
    const Cell& probe =
        tables[key.bound_table]->cell(row[key.bound_table], key.bound_col);
    std::unordered_set<RowId> matched;
    for (const Value& v : probe.PossibleValues()) {
      auto it = hash.find(v);
      if (it == hash.end()) continue;
      for (RowId r : it->second) matched.insert(r);
    }
    for (RowId r : range_rows) {
      if (matched.count(r)) continue;
      if (CellsMayMatch(probe, CompareOp::kEq,
                        next_table.cell(r, key.next_col))) {
        matched.insert(r);
      }
    }
    std::vector<RowId> sorted;
    for (RowId r : matched) {
      bool all = true;
      for (size_t k = 1; k < preds.size() && all; ++k) {
        const StepPred& p = preds[k];
        all = MayJoin(tables[p.bound_table]->cell(row[p.bound_table],
                                                  p.bound_col),
                      next_table.cell(r, p.next_col));
      }
      if (all) sorted.push_back(r);
    }
    std::sort(sorted.begin(), sorted.end());
    for (RowId r : sorted) {
      JoinedRow j = row;
      j[next_idx] = r;
      out.push_back(std::move(j));
    }
  }
  return out;
}

/// Joins per-table qualifying rows left-deep in FROM order.
inline std::vector<JoinedRow> JoinTables(
    const std::vector<const Table*>& tables,
    const std::vector<std::vector<RowId>>& qualifying,
    const std::vector<JoinPred>& joins) {
  std::vector<JoinedRow> current;
  std::vector<bool> bound(tables.size(), false);
  for (RowId r : qualifying[0]) {
    JoinedRow j(tables.size(), 0);
    j[0] = r;
    current.push_back(std::move(j));
  }
  bound[0] = true;
  for (size_t t = 1; t < tables.size(); ++t) {
    current = JoinStep(tables, std::move(current), t, qualifying[t], joins,
                       bound);
    bound[t] = true;
  }
  return current;
}

}  // namespace oracle
}  // namespace daisy

#endif  // DAISY_TESTS_JOIN_ORACLE_H_
