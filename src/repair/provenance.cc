#include "repair/provenance.h"

#include <algorithm>
#include <cassert>

namespace daisy {

namespace {

// True if bound `a` is a tighter constraint than `b` for `kind`: for the
// less-than family smaller bounds dominate, for greater-than larger ones.
bool TighterBound(CandidateKind kind, const Value& a, const Value& b) {
  switch (kind) {
    case CandidateKind::kLessThan:
    case CandidateKind::kLessEq:
      return a < b;
    case CandidateKind::kGreaterThan:
    case CandidateKind::kGreaterEq:
      return a > b;
    case CandidateKind::kPoint:
      return false;
  }
  return false;
}

// Canonical source order: kind first; points by value. A record holds at
// most one source per range kind, so ranges compare by kind alone — the
// bound is the payload MergeCandidateSource tightens.
bool SourceLess(const CandidateSource& a, const CandidateSource& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.kind == CandidateKind::kPoint && a.value.Compare(b.value) < 0;
}

}  // namespace

void MergeCandidateSource(std::vector<CandidateSource>* sources,
                          const CandidateSource& src) {
  auto it = std::lower_bound(sources->begin(), sources->end(), src,
                             SourceLess);
  if (it == sources->end() || SourceLess(src, *it)) {
    sources->insert(it, src);
    return;
  }
  it->count += src.count;
  if (TighterBound(src.kind, src.value, it->value)) it->value = src.value;
}

void CanonicalizeDcRecord(RepairRecord* record) {
  std::vector<CandidateSource> sources;
  sources.reserve(record->sources.size());
  for (const CandidateSource& src : record->sources) {
    MergeCandidateSource(&sources, src);
  }
  record->sources = std::move(sources);
  std::vector<RowId>& rows = record->conflicting_rows;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
}

void ProvenanceStore::Record(Table* table, RowId row, size_t col,
                             RepairRecord record) {
  std::vector<RepairRecord>& recs = records_[{row, col}];
  bool replaced = false;
  for (RepairRecord& r : recs) {
    if (r.rule == record.rule && r.pair_tag == record.pair_tag) {
      r = std::move(record);
      replaced = true;
      break;
    }
  }
  if (!replaced) recs.push_back(std::move(record));
  RebuildCell(table, row, col);
}

void ProvenanceStore::AppendSources(
    Table* table, RowId row, size_t col, const std::string& rule,
    int32_t pair_tag, const std::vector<CandidateSource>& sources,
    const std::vector<RowId>& conflicting_rows) {
  assert(std::is_sorted(conflicting_rows.begin(), conflicting_rows.end()) &&
         std::adjacent_find(conflicting_rows.begin(),
                            conflicting_rows.end()) ==
             conflicting_rows.end());
  std::vector<RepairRecord>& recs = records_[{row, col}];
  RepairRecord* target = nullptr;
  for (RepairRecord& r : recs) {
    if (r.rule == rule && r.pair_tag == pair_tag) {
      target = &r;
      break;
    }
  }
  if (target == nullptr) {
    recs.push_back(RepairRecord{rule, pair_tag, {}, {}});
    target = &recs.back();
  }
  for (const CandidateSource& src : sources) {
    MergeCandidateSource(&target->sources, src);
  }
  // Union into the sorted set: ids past the old last element append, and
  // so do smaller ids the old prefix lacks. The input is sorted, so those
  // precede the larger ones and the tail [old, end) is sorted: one
  // in-place merge restores the set.
  std::vector<RowId>& set = target->conflicting_rows;
  const size_t old = set.size();
  bool inserted_inside = false;
  for (RowId r : conflicting_rows) {
    if (old == 0 || r > set[old - 1]) {
      set.push_back(r);
    } else if (!std::binary_search(set.begin(), set.begin() + old, r)) {
      set.push_back(r);
      inserted_inside = true;
    }
  }
  if (inserted_inside) {
    std::inplace_merge(set.begin(), set.begin() + old, set.end());
  }
  RebuildCell(table, row, col);
}

bool ProvenanceStore::HasRecord(RowId row, size_t col,
                                const std::string& rule) const {
  auto it = records_.find({row, col});
  if (it == records_.end()) return false;
  for (const RepairRecord& r : it->second) {
    if (r.rule == rule) return true;
  }
  return false;
}

const std::vector<RepairRecord>* ProvenanceStore::RecordsFor(
    RowId row, size_t col) const {
  auto it = records_.find({row, col});
  return it == records_.end() ? nullptr : &it->second;
}

void ProvenanceStore::MergeFrom(const ProvenanceStore& other,
                                Table* table) {
  for (const auto& [cell, recs] : other.records_) {
    std::vector<RepairRecord>& mine = records_[cell];
    for (const RepairRecord& rec : recs) {
      bool present = false;
      for (const RepairRecord& existing : mine) {
        if (existing.rule == rec.rule && existing.pair_tag == rec.pair_tag) {
          present = true;
          break;
        }
      }
      if (!present) mine.push_back(rec);
    }
    RebuildCell(table, cell.first, cell.second);
  }
}

void ProvenanceStore::DropRows(const std::vector<RowId>& rows) {
  for (RowId r : rows) {
    // records_ is ordered by (row, col): erase the row's contiguous range.
    auto first = records_.lower_bound({r, 0});
    auto last = records_.lower_bound({r + 1, 0});
    records_.erase(first, last);
  }
}

// Removes `rule`'s records from one cell entry, rebuilding the cell if
// anything was removed; returns the iterator past the (possibly erased)
// entry. Shared by the rule-wide and per-row retraction paths.
std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>::iterator
ProvenanceStore::PruneRuleFromEntry(
    Table* table,
    std::map<CellKey, std::vector<RepairRecord>>::iterator it,
    const std::string& rule) {
  std::vector<RepairRecord>& recs = it->second;
  const size_t before = recs.size();
  recs.erase(std::remove_if(
                 recs.begin(), recs.end(),
                 [&](const RepairRecord& rec) { return rec.rule == rule; }),
             recs.end());
  if (recs.size() != before) {
    RebuildCell(table, it->first.first, it->first.second);
  }
  return recs.empty() ? records_.erase(it) : std::next(it);
}

void ProvenanceStore::DropRule(Table* table, const std::string& rule) {
  auto it = records_.begin();
  while (it != records_.end()) it = PruneRuleFromEntry(table, it, rule);
}

void ProvenanceStore::DropRuleRecords(Table* table, RowId row,
                                      const std::string& rule) {
  auto it = records_.lower_bound({row, 0});
  while (it != records_.end() && it->first.first == row) {
    it = PruneRuleFromEntry(table, it, rule);
  }
}

void ProvenanceStore::RebuildCell(Table* table, RowId row, size_t col) const {
  auto it = records_.find({row, col});
  if (it == records_.end() || it->second.empty()) {
    table->SetCandidates(row, col, {});
    return;
  }
  // Union sources across rules per pair tag. MergeCandidateSource sums
  // counts, keeps the tightest range bound and holds each tag's sources in
  // canonical (kind, value) order, so the result is independent of record
  // arrival. Tags come out ascending.
  std::vector<std::pair<int32_t, std::vector<CandidateSource>>> by_tag;
  for (const RepairRecord& rec : it->second) {
    auto tag = std::lower_bound(
        by_tag.begin(), by_tag.end(), rec.pair_tag,
        [](const auto& entry, int32_t t) { return entry.first < t; });
    if (tag == by_tag.end() || tag->first != rec.pair_tag) {
      tag = by_tag.insert(tag, {rec.pair_tag, {}});
    }
    for (const CandidateSource& src : rec.sources) {
      MergeCandidateSource(&tag->second, src);
    }
  }
  // Exact capacity: the cell keeps this vector for as long as it stays
  // probabilistic.
  size_t total = 0;
  for (const auto& entry : by_tag) total += entry.second.size();
  std::vector<Candidate> cands;
  cands.reserve(total);
  for (const auto& [tag, sources] : by_tag) {
    for (const CandidateSource& src : sources) {
      Candidate c;
      c.value = src.value;
      c.prob = src.count;
      c.pair_id = tag;
      c.kind = src.kind;
      cands.push_back(std::move(c));
    }
  }
  NormalizeCandidates(&cands);
  table->SetCandidates(row, col, std::move(cands));
}

}  // namespace daisy
