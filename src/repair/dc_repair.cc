#include "repair/dc_repair.h"

#include <algorithm>
#include <map>
#include <optional>

#include "repair/sat.h"

namespace daisy {

namespace {

// Candidate kind enforcing `new_value NOT(op) partner` when the left side
// of `l op r` changes. E.g. atom l < r (violated): l' must satisfy l' >= r.
std::optional<CandidateKind> InvertedKindForLeft(CompareOp op) {
  switch (NegateOp(op)) {
    case CompareOp::kLt:
      return CandidateKind::kLessThan;
    case CompareOp::kLeq:
      return CandidateKind::kLessEq;
    case CompareOp::kGt:
      return CandidateKind::kGreaterThan;
    case CompareOp::kGeq:
      return CandidateKind::kGreaterEq;
    case CompareOp::kEq:
      // Inverting != : the cell should take exactly the partner's value.
      return CandidateKind::kPoint;
    case CompareOp::kNeq:
      // Inverting == would need a "anything but x" candidate; such atoms
      // are fixed through the other atoms of the constraint.
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

Result<RepairStats> RepairDcViolations(
    Table* table, const DenialConstraint& dc,
    const std::vector<ViolationPair>& violations,
    ProvenanceStore* provenance) {
  if (dc.IsFd()) {
    return Status::InvalidArgument(
        "use RepairFdViolations for FDs (group-based fixes): " +
        dc.ToString());
  }
  RepairStats stats;
  const std::vector<PredicateAtom>& atoms = dc.atoms();

  // Which atoms can be inverted by a value change we can represent.
  std::vector<bool> must_keep(atoms.size(), false);
  for (size_t i = 0; i < atoms.size(); ++i) {
    must_keep[i] = !InvertedKindForLeft(atoms[i].op).has_value() &&
                   !InvertedKindForLeft(FlipOp(atoms[i].op)).has_value();
  }
  const std::vector<std::vector<size_t>> fix_sets =
      MinimalInversionSets(atoms.size(), must_keep);
  if (fix_sets.empty()) {
    return Status::InvalidArgument("DC has no invertible atom: " +
                                   dc.ToString());
  }

  // Accumulate fixes per cell across every violating pair, then flush one
  // provenance append per cell (a per-pair flush would rebuild cells
  // quadratically on heavily violating data). Each fix adds one count to
  // the cell's original value and one to its candidate: range candidates
  // consolidate to the tightest bound per direction, point candidates
  // (inverted `!=` atoms) count per distinct partner value. Both merges
  // go through MergeCandidateSource, so the accumulated sources do not
  // depend on the order of `violations`.
  struct CellAccumulator {
    std::vector<CandidateSource> sources;
    std::vector<RowId> conflicts;
  };
  std::map<std::pair<RowId, size_t>, CellAccumulator> cells;

  auto accumulate = [&](RowId row, size_t col, const Value& original,
                        const Value& candidate, CandidateKind kind,
                        const ViolationPair& pair) {
    CellAccumulator& acc = cells[{row, col}];
    MergeCandidateSource(&acc.sources, {original, 1.0, CandidateKind::kPoint});
    MergeCandidateSource(&acc.sources, {candidate, 1.0, kind});
    acc.conflicts.push_back(pair.t1);
    acc.conflicts.push_back(pair.t2);
  };

  for (const ViolationPair& pair : violations) {
    ++stats.violating_groups;
    // Each minimal inversion set is a single atom; each atom yields fix
    // actions on its left cell and (when not constant) its right cell.
    for (const std::vector<size_t>& fix : fix_sets) {
      const PredicateAtom& atom = atoms[fix[0]];
      // --- change the left operand's cell ---
      if (auto kind = InvertedKindForLeft(atom.op)) {
        const RowId row = atom.left_tuple == 0 ? pair.t1 : pair.t2;
        const Value partner =
            atom.right_is_constant
                ? atom.constant
                : table
                      ->cell(atom.right_tuple == 0 ? pair.t1 : pair.t2,
                             atom.right_column)
                      .original();
        accumulate(row, atom.left_column,
                   table->cell(row, atom.left_column).original(), partner,
                   *kind, pair);
      }
      // --- change the right operand's cell ---
      if (!atom.right_is_constant) {
        if (auto kind = InvertedKindForLeft(FlipOp(atom.op))) {
          const RowId row = atom.right_tuple == 0 ? pair.t1 : pair.t2;
          const Value partner =
              table
                  ->cell(atom.left_tuple == 0 ? pair.t1 : pair.t2,
                         atom.left_column)
                  .original();
          accumulate(row, atom.right_column,
                     table->cell(row, atom.right_column).original(), partner,
                     *kind, pair);
        }
      }
    }
    ++stats.tuples_repaired;
  }

  for (auto& [cell, acc] : cells) {
    std::sort(acc.conflicts.begin(), acc.conflicts.end());
    acc.conflicts.erase(
        std::unique(acc.conflicts.begin(), acc.conflicts.end()),
        acc.conflicts.end());
    provenance->AppendSources(table, cell.first, cell.second, dc.name(),
                              /*pair_tag=*/0, acc.sources, acc.conflicts);
    ++stats.cells_repaired;
  }
  return stats;
}

}  // namespace daisy
