#include "detect/theta_join.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <thread>

namespace daisy {

namespace detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool RangeFeasible(double lmin, double lmax, CompareOp op, double rmin,
                   double rmax) {
  switch (op) {
    case CompareOp::kLt:
      return lmin < rmax;
    case CompareOp::kLeq:
      return lmin <= rmax;
    case CompareOp::kGt:
      return lmax > rmin;
    case CompareOp::kGeq:
      return lmax >= rmin;
    case CompareOp::kEq:
      return lmin <= rmax && rmin <= lmax;
    case CompareOp::kNeq:
      // Infeasible only when both ranges are the same single point: every
      // draw is then equal. Any wider range on either side offers a
      // distinct value.
      return lmin != lmax || rmin != rmax || lmin != rmin;
  }
  return true;
}

}  // namespace detail

namespace {

using detail::kInf;
using detail::RangeFeasible;

// NullCompare / CompareDoubles / CompareRanks — the flat-array forms of
// EvalCompare the compiled atoms evaluate with — live in
// constraints/predicate.h, shared with the plan layer's compiled filters.

}  // namespace

ThetaJoinDetector::ThetaJoinDetector(const Table* table,
                                     const DenialConstraint* dc,
                                     size_t partitions, size_t threads)
    : table_(table),
      dc_(dc),
      requested_partitions_(std::max<size_t>(1, partitions)),
      threads_(std::max<size_t>(1, threads)) {
  // Primary partition attribute: the first cross-tuple order-comparison atom;
  // falls back to the first atom's left column.
  sort_column_ = dc_->atoms().empty() ? 0 : dc_->atoms()[0].left_column;
  for (const PredicateAtom& a : dc_->atoms()) {
    if (!a.right_is_constant && a.left_tuple != a.right_tuple &&
        (a.op == CompareOp::kLt || a.op == CompareOp::kLeq ||
         a.op == CompareOp::kGt || a.op == CompareOp::kGeq)) {
      sort_column_ = a.left_column;
      break;
    }
  }
  BuildPartitions();
  ResetCoverage();
}

void ThetaJoinDetector::ResetCoverage() {
  checked_.assign(table_->num_rows(), false);
  checked_count_ = 0;
  for (RowId r = 0; r < checked_.size(); ++r) {
    if (!table_->is_live(r)) MarkRowChecked(r);
  }
  // Nothing is checked, so a plain DetectAll covers every pair — no
  // appended rows owe a separate integration pass.
  integrated_rows_ = table_->num_rows();
  maintained_.clear();
}

void ThetaJoinDetector::Rebuild() {
  // Rows checked against the old values are not checked against the new;
  // estimates and the maintained set are stale too.
  BuildPartitions();
  ResetCoverage();
}

size_t ThetaJoinDetector::ApplyDelta(const TableDelta& delta) {
  // Ingest deltas keep the coverage: appended rows join as unchecked,
  // deleted rows become trivially checked and their pairs are pruned.
  if (!delta.appended.empty() && checked_.size() <= delta.appended.back()) {
    checked_.resize(delta.appended.back() + 1, false);
  }
  size_t retracted = 0;
  if (!delta.deleted.empty()) {
    for (RowId r : delta.deleted) {
      if (r < checked_.size()) MarkRowChecked(r);
    }
    auto dead = [&](const ViolationPair& p) {
      return !table_->is_live(p.t1) || !table_->is_live(p.t2);
    };
    const size_t before = maintained_.size();
    maintained_.erase(
        std::remove_if(maintained_.begin(), maintained_.end(), dead),
        maintained_.end());
    retracted = before - maintained_.size();
  }
  // Every append may have reallocated the arrays the compiled atoms point
  // into, and every delete changes the live rows the partitions hold.
  if (!delta.empty()) BuildPartitions();
  return retracted;
}

void ThetaJoinDetector::AssertToldOfAppends() const {
  assert(checked_.size() == table_->num_rows() &&
         "ThetaJoinDetector missed an ApplyDelta for an append");
}

void ThetaJoinDetector::MergeIntoMaintained(
    const std::vector<ViolationPair>& found) {
  if (found.empty()) return;
  // maintained_ is kept sorted, so only the new pairs need sorting before
  // an in-place merge. The unique pass is load-bearing: DetectAll /
  // DetectIncremental merge their auto-drained pairs a second time when
  // the combined result vector is folded in at the end of the call.
  std::vector<ViolationPair> sorted_found = found;
  std::sort(sorted_found.begin(), sorted_found.end());
  const size_t old_size = maintained_.size();
  maintained_.insert(maintained_.end(), sorted_found.begin(),
                     sorted_found.end());
  std::inplace_merge(maintained_.begin(), maintained_.begin() + old_size,
                     maintained_.end());
  maintained_.erase(std::unique(maintained_.begin(), maintained_.end()),
                    maintained_.end());
}

ThetaPersistState ThetaJoinDetector::ExportState() const {
  ThetaPersistState state;
  state.checked.reserve(checked_.size());
  for (bool b : checked_) state.checked.push_back(b ? 1 : 0);
  state.integrated_rows = integrated_rows_;
  state.deleted_log_pos = table_->num_rows() - table_->num_live_rows();
  state.maintained = maintained_;
  return state;
}

Status ThetaJoinDetector::ImportState(const ThetaPersistState& state) {
  // The constructor built the partitions and compiled atoms over the
  // restored table; only the coverage is installed here.
  if (state.checked.size() != table_->num_rows()) {
    return Status::InvalidArgument(
        "theta state for " + dc_->name() + " covers " +
        std::to_string(state.checked.size()) + " rows, table " +
        table_->name() + " has " + std::to_string(table_->num_rows()));
  }
  if (state.integrated_rows > table_->num_rows() ||
      state.deleted_log_pos != table_->num_rows() - table_->num_live_rows() ||
      state.retractions != 0) {
    return Status::InvalidArgument("theta state for " + dc_->name() +
                                   " does not match the table's ingest log");
  }
  for (const ViolationPair& p : state.maintained) {
    if (p.t1 >= table_->num_rows() || p.t2 >= table_->num_rows()) {
      return Status::InvalidArgument("theta state for " + dc_->name() +
                                     " names an out-of-range violation row");
    }
  }
  checked_.assign(state.checked.size(), false);
  checked_count_ = 0;
  for (RowId r = 0; r < state.checked.size(); ++r) {
    if (state.checked[r] != 0) MarkRowChecked(r);
  }
  integrated_rows_ = state.integrated_rows;
  maintained_ = state.maintained;
  return Status::OK();
}

void ThetaJoinDetector::BuildPartitions() {
  ColumnCache& cache = table_->columns();
  const std::vector<size_t>& cols = dc_->involved_columns();
  cols_.clear();
  for (size_t c : cols) cols_.push_back(&cache.column(c));
  sort_slot_ = static_cast<size_t>(
      std::lower_bound(cols.begin(), cols.end(), sort_column_) - cols.begin());

  // The cache's sorted index uses exactly this detector's historical order:
  // numeric projection ascending, row id as tiebreak. Tombstoned rows are
  // filtered out here so no scan ever visits them.
  const std::vector<RowId>& all_sorted = cache.column(sort_column_).sorted_rows;
  sorted_.clear();
  sorted_.reserve(table_->num_live_rows());
  for (RowId r : all_sorted) {
    if (table_->is_live(r)) sorted_.push_back(r);
  }

  const size_t n = sorted_.size();
  const size_t p = std::min(requested_partitions_, std::max<size_t>(1, n));
  boundaries_.clear();
  boundaries_.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    PartitionStats part;
    part.begin = i * n / p;
    part.end = (i + 1) * n / p;
    part.min_val.assign(cols.size(), kInf);
    part.max_val.assign(cols.size(), -kInf);
    for (size_t s = part.begin; s < part.end; ++s) {
      const RowId r = sorted_[s];
      for (size_t c = 0; c < cols.size(); ++c) {
        const double v = cols_[c]->num[r];
        part.min_val[c] = std::min(part.min_val[c], v);
        part.max_val[c] = std::max(part.max_val[c], v);
      }
    }
    boundaries_.push_back(std::move(part));
  }
  range_index_built_ = false;
  range_vio_valid_ = false;
  CompileAtoms(cache);
}

void ThetaJoinDetector::CompileAtoms(ColumnCache& cache) {
  compiled_.clear();
  const std::vector<PredicateAtom>& atoms = dc_->atoms();
  compiled_.reserve(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    const PredicateAtom& a = atoms[i];
    CompiledAtom ca;
    ca.op = a.op;
    ca.left_tuple = a.left_tuple;
    ca.right_tuple = a.right_is_constant ? a.left_tuple : a.right_tuple;
    ca.atom_index = i;
    const ColumnCache::Column& left = cache.column(a.left_column);
    ca.lnum = left.num.data();
    ca.lnulls = left.nulls.data();
    ca.lranks = left.ranks.data();
    if (a.right_is_constant) {
      ca.check_nulls = left.has_nulls;
      if (a.constant.is_null()) {
        ca.kind = CompiledAtom::Kind::kNullConst;
      } else if (left.numeric_only && left.num_exact &&
                 a.constant.is_numeric() && a.constant.ExactAsDouble()) {
        ca.kind = CompiledAtom::Kind::kNumConst;
        ca.cnum = a.constant.AsDouble();
      } else {
        // Locate the constant in the column's rank domain: clo = #distinct
        // column values ordering strictly below it (Value::Compare, the
        // same order ranks were assigned under).
        ca.kind = CompiledAtom::Kind::kRankConst;
        const std::vector<Value>& sd = left.sorted_distinct;
        auto it = std::lower_bound(
            sd.begin(), sd.end(), a.constant,
            [](const Value& v, const Value& c) { return v.Compare(c) < 0; });
        ca.clo = static_cast<uint32_t>(it - sd.begin());
        ca.chas_eq = it != sd.end() && it->Compare(a.constant) == 0;
      }
    } else {
      const ColumnCache::Column& right = cache.column(a.right_column);
      ca.rnum = right.num.data();
      ca.rnulls = right.nulls.data();
      ca.rranks = right.ranks.data();
      ca.check_nulls = left.has_nulls || right.has_nulls;
      if (a.left_column == a.right_column) {
        ca.kind = CompiledAtom::Kind::kRank;
      } else if (left.numeric_only && right.numeric_only && left.num_exact &&
                 right.num_exact) {
        ca.kind = CompiledAtom::Kind::kNum;
      } else {
        // Ranks of two different columns are not comparable, and neither
        // are doubles that round int64s — keep Value semantics.
        ca.kind = CompiledAtom::Kind::kRow;
      }
    }
    compiled_.push_back(ca);
  }
}

bool ThetaJoinDetector::EvalAtomFlat(const CompiledAtom& atom, RowId a,
                                     RowId b) const {
  const RowId rows[2] = {a, b};  // branch-free tuple binding
  const RowId l = rows[atom.left_tuple];
  const RowId r = rows[atom.right_tuple];
  switch (atom.kind) {
    case CompiledAtom::Kind::kNum: {
      if (atom.check_nulls) {
        const bool lnull = atom.lnulls[l] != 0;
        const bool rnull = atom.rnulls[r] != 0;
        if (lnull || rnull) return NullCompare(lnull, rnull, atom.op);
      }
      return CompareDoubles(atom.lnum[l], atom.op, atom.rnum[r]);
    }
    case CompiledAtom::Kind::kRank: {
      if (atom.check_nulls) {
        const bool lnull = atom.lnulls[l] != 0;
        const bool rnull = atom.rnulls[r] != 0;
        if (lnull || rnull) return NullCompare(lnull, rnull, atom.op);
      }
      return CompareRanks(atom.lranks[l], atom.op, atom.rranks[r]);
    }
    case CompiledAtom::Kind::kNumConst: {
      if (atom.check_nulls && atom.lnulls[l] != 0) {
        return NullCompare(true, false, atom.op);
      }
      return CompareDoubles(atom.lnum[l], atom.op, atom.cnum);
    }
    case CompiledAtom::Kind::kRankConst: {
      if (atom.check_nulls && atom.lnulls[l] != 0) {
        return NullCompare(true, false, atom.op);
      }
      const uint32_t x = atom.lranks[l];
      switch (atom.op) {
        case CompareOp::kEq:
          return atom.chas_eq && x == atom.clo;
        case CompareOp::kNeq:
          return !(atom.chas_eq && x == atom.clo);
        case CompareOp::kLt:
          return x < atom.clo;
        case CompareOp::kLeq:
          return x < atom.clo + (atom.chas_eq ? 1u : 0u);
        case CompareOp::kGt:
          return x >= atom.clo + (atom.chas_eq ? 1u : 0u);
        case CompareOp::kGeq:
          return x >= atom.clo;
      }
      return false;
    }
    case CompiledAtom::Kind::kNullConst:
      return NullCompare(atom.lnulls[l] != 0, true, atom.op);
    case CompiledAtom::Kind::kRow: {
      const PredicateAtom& pa = dc_->atoms()[atom.atom_index];
      const Value& lhs = table_->cell(l, pa.left_column).original();
      const Value& rhs = pa.right_is_constant
                             ? pa.constant
                             : table_->cell(r, pa.right_column).original();
      return EvalCompare(lhs, pa.op, rhs);
    }
  }
  return false;
}

// Fused unordered-pair evaluation: both tuple orientations in a single
// pass over the compiled atoms, sharing the per-row operand loads. Callers
// guarantee a != b (the scan loops never produce the diagonal), so the
// pairwise a == b short-circuit of DenialConstraint::ViolatedBy is not
// re-checked here.
std::pair<bool, bool> ThetaJoinDetector::CheckBoth(RowId a, RowId b) const {
  const CompiledAtom* const atoms = compiled_.data();
  const size_t n = compiled_.size();
  bool fwd = true;
  for (size_t i = 0; i < n; ++i) {
    if (!EvalAtomFlat(atoms[i], a, b)) {
      fwd = false;
      break;
    }
  }
  bool rev = true;
  for (size_t i = 0; i < n; ++i) {
    if (!EvalAtomFlat(atoms[i], b, a)) {
      rev = false;
      break;
    }
  }
  return {fwd, rev};
}

bool ThetaJoinDetector::OrientationFeasible(
    const PartitionStats& t1_part, const PartitionStats& t2_part) const {
  const std::vector<size_t>& cols = dc_->involved_columns();
  auto slot = [&](size_t col) {
    return static_cast<size_t>(
        std::lower_bound(cols.begin(), cols.end(), col) - cols.begin());
  };
  for (const PredicateAtom& a : dc_->atoms()) {
    const PartitionStats& lp = a.left_tuple == 0 ? t1_part : t2_part;
    const size_t ls = slot(a.left_column);
    bool numeric = cols_[ls]->numeric_only;
    bool exact = cols_[ls]->num_exact;
    double rmin, rmax;
    if (a.right_is_constant) {
      const double c = ColumnCache::NumericCoord(a.constant);
      rmin = rmax = c;
      numeric = numeric && a.constant.is_numeric();
      exact = exact && a.constant.ExactAsDouble();
    } else {
      const PartitionStats& rp = a.right_tuple == 0 ? t1_part : t2_part;
      const size_t rs = slot(a.right_column);
      rmin = rp.min_val[rs];
      rmax = rp.max_val[rs];
      numeric = numeric && cols_[rs]->numeric_only;
      exact = exact && cols_[rs]->num_exact;
    }
    // Equal values always share a coordinate, so equality prunes on any
    // column. Hash coordinates of strings carry no order, and rounded
    // int64s may share a double: there only the non-strict half of an
    // order comparison survives the projection.
    CompareOp op = a.op;
    if (op != CompareOp::kEq && (!numeric || !exact)) {
      if (!numeric || op == CompareOp::kNeq) continue;
      if (op == CompareOp::kLt) op = CompareOp::kLeq;
      if (op == CompareOp::kGt) op = CompareOp::kGeq;
    }
    if (!RangeFeasible(lp.min_val[ls], lp.max_val[ls], op, rmin, rmax)) {
      return false;
    }
  }
  return true;
}

bool ThetaJoinDetector::PairFeasible(const PartitionStats& a,
                                     const PartitionStats& b) const {
  return OrientationFeasible(a, b) || OrientationFeasible(b, a);
}

void ThetaJoinDetector::CheckPair(RowId a, RowId b,
                                  std::vector<ViolationPair>* out,
                                  size_t* pairs) const {
  ++*pairs;
  const auto [fwd, rev] = CheckBoth(a, b);
  if (fwd) out->push_back({a, b});
  if (rev) out->push_back({b, a});
}

void ThetaJoinDetector::ScanCell(size_t i, size_t j,
                                 std::vector<ViolationPair>* out,
                                 size_t* pairs) const {
  const PartitionStats& bi = boundaries_[i];
  const PartitionStats& bj = boundaries_[j];
  for (size_t si = bi.begin; si < bi.end; ++si) {
    const RowId a = sorted_[si];
    // checked_[x] means x was already cross-checked against every row, so
    // any pair with a checked endpoint is covered.
    if (checked_[a]) continue;
    const size_t sj_begin = (i == j) ? si + 1 : bj.begin;
    for (size_t sj = sj_begin; sj < bj.end; ++sj) {
      const RowId b = sorted_[sj];
      if (checked_[b]) continue;
      CheckPair(a, b, out, pairs);
    }
  }
}

std::vector<ViolationPair> ThetaJoinDetector::DetectAll() {
  AssertToldOfAppends();
  pairs_checked_ = 0;
  partitions_pruned_ = 0;

  // Integrate applied appends no DetectDelta paid for first: the cell scan
  // below skips pairs with a checked endpoint, so the new x checked-old
  // pairs must be paid here or they would be lost forever once everything
  // is marked checked.
  std::vector<ViolationPair> drained = DrainAppends(checked_.size());

  // Surviving matrix cells of the upper triangle, in deterministic order.
  const size_t p = boundaries_.size();
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  cells.reserve(p * (p + 1) / 2);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      if (pruning_enabled_ && !PairFeasible(boundaries_[i], boundaries_[j])) {
        ++partitions_pruned_;
        continue;
      }
      cells.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
    }
  }

  std::vector<ViolationPair> out = std::move(drained);
  const size_t workers = std::min(threads_, std::max<size_t>(1, cells.size()));
  if (workers <= 1) {
    for (const auto& [i, j] : cells) ScanCell(i, j, &out, &pairs_checked_);
  } else {
    // Each cell collects into its own buffer; buffers are concatenated in
    // cell order afterwards, so the output is identical to the serial scan.
    std::vector<std::vector<ViolationPair>> cell_out(cells.size());
    std::vector<size_t> cell_pairs(cells.size(), 0);
    std::atomic<size_t> next{0};
    auto work = [&]() {
      while (true) {
        const size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= cells.size()) break;
        ScanCell(cells[k].first, cells[k].second, &cell_out[k],
                 &cell_pairs[k]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
    for (size_t k = 0; k < cells.size(); ++k) {
      pairs_checked_ += cell_pairs[k];
      out.insert(out.end(), cell_out[k].begin(), cell_out[k].end());
    }
  }
  std::fill(checked_.begin(), checked_.end(), true);
  checked_count_ = checked_.size();
  MergeIntoMaintained(out);
  return out;
}

std::vector<ViolationPair> ThetaJoinDetector::DetectIncremental(
    const std::vector<RowId>& result_rows) {
  AssertToldOfAppends();
  pairs_checked_ = 0;
  partitions_pruned_ = 0;
  // Un-integrated appends drain first (see DetectAll): after this, result
  // rows from the new range are checked and take the fast skip below.
  std::vector<ViolationPair> out = DrainAppends(checked_.size());
  if (result_rows.empty()) return out;

  // Boundary statistics of the query answer, playing the role of one side of
  // the partial matrix.
  const size_t num_slots = cols_.size();
  PartitionStats answer;
  answer.min_val.assign(num_slots, kInf);
  answer.max_val.assign(num_slots, -kInf);
  for (RowId r : result_rows) {
    for (size_t c = 0; c < num_slots; ++c) {
      const double v = cols_[c]->num[r];
      answer.min_val[c] = std::min(answer.min_val[c], v);
      answer.max_val[c] = std::max(answer.max_val[c], v);
    }
  }

  // Hot-loop invariants: result rows already checked never produce new
  // pairs, so drop them once instead of testing checked_[r] per pair.
  std::vector<RowId> active;
  active.reserve(result_rows.size());
  for (RowId r : result_rows) {
    if (!checked_[r]) active.push_back(r);
  }

  for (const PartitionStats& part : boundaries_) {
    if (pruning_enabled_ && !PairFeasible(answer, part)) {
      ++partitions_pruned_;
      continue;
    }
    for (size_t s = part.begin; s < part.end; ++s) {
      const RowId u = sorted_[s];
      if (checked_[u]) continue;
      // When both endpoints are in the (sorted) result set the unordered
      // pair {u, r} comes up twice — once per endpoint playing `u`. Keep
      // only the visit where the larger id plays `u`, i.e. pair `u` only
      // with the result prefix below it (`active` is sorted ascending).
      auto last = active.end();
      if (std::binary_search(result_rows.begin(), result_rows.end(), u)) {
        last = std::lower_bound(active.begin(), active.end(), u);
      }
      pairs_checked_ += static_cast<size_t>(last - active.begin());
      for (auto it = active.begin(); it != last; ++it) {
        const RowId r = *it;
        const auto [fwd, rev] = CheckBoth(r, u);
        if (fwd) out.push_back({r, u});
        if (rev) out.push_back({u, r});
      }
    }
  }
  for (RowId r : result_rows) MarkRowChecked(r);
  MergeIntoMaintained(out);
  return out;
}

std::vector<ViolationPair> ThetaJoinDetector::DetectDelta(
    const TableDelta& delta) {
  AssertToldOfAppends();
  pairs_checked_ = 0;
  partitions_pruned_ = 0;
  const RowId end = delta.appended.empty() ? integrated_rows_
                                           : delta.appended.back() + 1;
  std::vector<ViolationPair> out = DrainAppends(end);
  return out;
}

std::vector<ViolationPair> ThetaJoinDetector::DrainAppends(RowId end) {
  std::vector<ViolationPair> out;
  end = std::min<RowId>(end, checked_.size());
  if (integrated_rows_ >= end) return out;
  // Rows below `lo` existed before the pending arrivals; rows at or above
  // `end` arrived later and owe their own pass (this keeps multi-batch
  // drains exactly-once when called per delta, in order).
  const RowId lo = integrated_rows_;
  std::vector<RowId> fresh;
  fresh.reserve(end - lo);
  for (RowId r = lo; r < end; ++r) {
    if (table_->is_live(r) && !checked_[r]) fresh.push_back(r);
  }
  integrated_rows_ = end;
  if (fresh.empty()) return out;

  // The pending rows already sit in the rebuilt partitions, so the scan
  // reuses DetectAll's *pairwise* partition pruning (a whole-batch bounds
  // box would span the domain and prune nothing): only cells where one
  // side holds pending rows and the boundary ranges stay feasible are
  // visited, giving the O(delta x n/p) partial theta-join.
  const size_t p = boundaries_.size();
  std::vector<std::vector<RowId>> new_in(p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t s = boundaries_[i].begin; s < boundaries_[i].end; ++s) {
      const RowId u = sorted_[s];
      if (u >= lo && std::binary_search(fresh.begin(), fresh.end(), u)) {
        new_in[i].push_back(u);
      }
    }
  }

  auto check = [&](RowId a, RowId b) {
    ++pairs_checked_;
    const auto [fwd, rev] = CheckBoth(a, b);
    if (fwd) out.push_back({a, b});
    if (rev) out.push_back({b, a});
  };

  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      if (new_in[i].empty() && new_in[j].empty()) continue;
      if (pruning_enabled_ && !PairFeasible(boundaries_[i], boundaries_[j])) {
        ++partitions_pruned_;
        continue;
      }
      const PartitionStats& bi = boundaries_[i];
      const PartitionStats& bj = boundaries_[j];
      // new(i) x preexisting(j) — including preexisting rows that were
      // never checked: this is what restores the coverage invariant the
      // append broke. Rows >= lo that are not in this batch arrived with a
      // later batch; their own DetectDelta pairs them with these rows.
      for (RowId a : new_in[i]) {
        for (size_t s = bj.begin; s < bj.end; ++s) {
          const RowId b = sorted_[s];
          if (b < lo) check(a, b);
        }
      }
      if (j == i) {
        // new x new inside the partition: each unordered pair once.
        for (size_t x = 0; x < new_in[i].size(); ++x) {
          for (size_t y = x + 1; y < new_in[i].size(); ++y) {
            check(new_in[i][x], new_in[i][y]);
          }
        }
      } else {
        // new(j) x preexisting(i), and new x new across the two cells.
        for (RowId b : new_in[j]) {
          for (size_t s = bi.begin; s < bi.end; ++s) {
            const RowId a = sorted_[s];
            if (a < lo) check(b, a);
          }
        }
        for (RowId a : new_in[i]) {
          for (RowId b : new_in[j]) check(a, b);
        }
      }
    }
  }
  for (RowId r : fresh) MarkRowChecked(r);
  MergeIntoMaintained(out);
  return out;
}

void ThetaJoinDetector::BuildRangeIndex() {
  for (PartitionStats& part : boundaries_) {
    part.sorted_vals.assign(cols_.size(), {});
    for (size_t c = 0; c < cols_.size(); ++c) {
      std::vector<double>& vals = part.sorted_vals[c];
      vals.reserve(part.end - part.begin);
      for (size_t s = part.begin; s < part.end; ++s) {
        vals.push_back(cols_[c]->num[sorted_[s]]);
      }
      std::sort(vals.begin(), vals.end());
    }
  }
  range_index_built_ = true;
}

const std::vector<double>& ThetaJoinDetector::EstimateErrors() {
  if (range_vio_valid_) return range_vio_;
  if (!range_index_built_) BuildRangeIndex();
  const size_t p = boundaries_.size();
  range_vio_.assign(p, 0.0);
  const std::vector<size_t>& cols = dc_->involved_columns();
  auto slot = [&](size_t col) {
    return static_cast<size_t>(
        std::lower_bound(cols.begin(), cols.end(), col) - cols.begin());
  };
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      if (i == j) continue;  // diagonal handled through Support()
      // Oriented estimate: partition i binds t1, partition j binds t2 (the
      // loop visits both orders).
      if (!OrientationFeasible(boundaries_[i], boundaries_[j])) continue;
      const double rows_i = static_cast<double>(boundaries_[i].end -
                                                boundaries_[i].begin);
      const double rows_j = static_cast<double>(boundaries_[j].end -
                                                boundaries_[j].begin);
      // Conflicts lie in the overlap of the boundary ranges of each order
      // atom (the paper's range_vio); atoms whose ranges are disjoint in
      // the satisfying direction restrict nothing, so only overlapping
      // atoms bound the estimate.
      double estimate = std::min(rows_i, rows_j);
      for (const PredicateAtom& a : dc_->atoms()) {
        if (a.right_is_constant || a.left_tuple == a.right_tuple) continue;
        if (a.op == CompareOp::kEq || a.op == CompareOp::kNeq) continue;
        const PartitionStats& lp =
            a.left_tuple == 0 ? boundaries_[i] : boundaries_[j];
        const PartitionStats& rp =
            a.right_tuple == 0 ? boundaries_[i] : boundaries_[j];
        const size_t ls = slot(a.left_column);
        const size_t rs = slot(a.right_column);
        const double lo = std::max(lp.min_val[ls], rp.min_val[rs]);
        const double hi = std::min(lp.max_val[ls], rp.max_val[rs]);
        if (lo > hi) continue;  // non-restrictive: feasibility already held
        const double ci = static_cast<double>(
            CountRowsInRange(lp, ls, lo, hi));
        const double cj = static_cast<double>(
            CountRowsInRange(rp, rs, lo, hi));
        estimate = std::min(estimate, std::min(ci, cj));
      }
      range_vio_[i] += estimate;
    }
  }
  range_vio_valid_ = true;
  return range_vio_;
}

size_t ThetaJoinDetector::CountRowsInRange(const PartitionStats& part,
                                           size_t slot, double lo,
                                           double hi) const {
  const std::vector<double>& vals = part.sorted_vals[slot];
  auto first = std::lower_bound(vals.begin(), vals.end(), lo);
  auto last = std::upper_bound(first, vals.end(), hi);
  return static_cast<size_t>(last - first);
}

double ThetaJoinDetector::EstimateAccuracy(
    const std::vector<RowId>& result_rows) {
  if (result_rows.empty()) return 1.0;
  EstimateErrors();
  const double* sort_num = cols_[sort_slot_]->num.data();
  double lo = kInf, hi = -kInf;
  for (RowId r : result_rows) {
    const double v = sort_num[r];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double errors = 0.0;
  for (size_t i = 0; i < boundaries_.size(); ++i) {
    const PartitionStats& part = boundaries_[i];
    if (part.begin == part.end) continue;
    const double pmin = sort_num[sorted_[part.begin]];
    const double pmax = sort_num[sorted_[part.end - 1]];
    if (pmax < lo || pmin > hi) continue;
    // Charge the answer only with the slice of the partition's estimated
    // conflicts that its range actually covers.
    double fraction = 1.0;
    if (pmax > pmin) {
      const double cover = std::min(hi, pmax) - std::max(lo, pmin);
      fraction = std::max(0.0, std::min(1.0, cover / (pmax - pmin)));
    }
    errors += range_vio_[i] * fraction;
  }
  // Note: Algorithm 2 line 6 computes errors/(|qa|+errors) and the paper
  // narrates the result as "accuracy". We return the complementary clean
  // fraction so that *higher is cleaner*; callers trigger full cleaning when
  // this drops below the threshold (matching the Fig. 10 narrative).
  const double dirtiness =
      errors / (static_cast<double>(result_rows.size()) + errors);
  return 1.0 - dirtiness;
}

double ThetaJoinDetector::Support() const {
  const size_t p = boundaries_.size();
  if (p == 0) return 1.0;
  // A partition is covered once all its rows were cross-checked.
  std::vector<bool> covered(p, true);
  for (size_t i = 0; i < p; ++i) {
    for (size_t s = boundaries_[i].begin; s < boundaries_[i].end; ++s) {
      if (!checked_[sorted_[s]]) {
        covered[i] = false;
        break;
      }
    }
  }
  size_t done = 0, total = 0;
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      ++total;
      if (covered[i] && covered[j]) ++done;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(done) / static_cast<double>(total);
}

}  // namespace daisy
