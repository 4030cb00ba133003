#include "storage/column_cache.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <numeric>
#include <unordered_map>

#include "common/metrics.h"

namespace daisy {

namespace {

std::atomic<uint64_t> g_next_cache_id{1};

struct StorageMetrics {
  Counter* extends;

  static StorageMetrics& Get() {
    static StorageMetrics* const m = new StorageMetrics();
    return *m;
  }

  StorageMetrics() {
    MetricsRegistry& r = MetricsRegistry::Global();
    extends = r.GetCounter("daisy_storage_column_extends_total",
                           "Column projections extended by appended rows");
  }
};

// Registered at load, so the storage family is on every scrape even before
// the first cache exists (a rule-free table that is only appended to and
// scanned never builds one).
[[maybe_unused]] const StorageMetrics& kStorageMetrics = StorageMetrics::Get();

}  // namespace

ColumnCache::ColumnCache(const Table* table)
    : table_(table),
      slots_(table->num_columns()),
      id_(g_next_cache_id.fetch_add(1, std::memory_order_relaxed)) {}

double ColumnCache::NumericCoord(const Value& v) {
  if (v.is_numeric()) return v.AsDouble();
  return static_cast<double>(v.Hash() % (1u << 30));
}

namespace {

// The rank order of dictionary codes: Value::Compare, code as tiebreak.
// Compare is exact and total on the values a table admits (NaN is
// rejected at ingest), so distinct-under-Equals values never tie; the
// tiebreak only keeps the comparator a strict order by construction.
struct CodeOrder {
  const std::vector<Value>* dict;
  bool operator()(uint32_t a, uint32_t b) const {
    const int cmp = (*dict)[a].Compare((*dict)[b]);
    if (cmp != 0) return cmp < 0;
    return a < b;
  }
};

// Appends one cell to the row-ordered projections, the dictionary and the
// column-wide flags — Extend's per-row step.
void AppendProjection(const Cell& cell, ColumnCache::Column* col,
                      std::unordered_map<Value, uint32_t, ValueHash>* index) {
  const Value& v = cell.original();
  col->probs.push_back(cell.is_probabilistic() ? 1 : 0);
  col->nulls.push_back(v.is_null() ? 1 : 0);
  if (v.is_null()) col->has_nulls = true;
  if (!v.is_null() && !v.is_numeric()) col->numeric_only = false;
  if (!v.ExactAsDouble()) col->num_exact = false;
  col->num.push_back(ColumnCache::NumericCoord(v));
  auto [it, inserted] =
      index->emplace(v, static_cast<uint32_t>(col->dict.size()));
  if (inserted) col->dict.push_back(v);
  col->codes.push_back(it->second);
}

}  // namespace

// Recomputes the dense rank relabeling (code -> rank, sorted_distinct,
// per-row ranks) after codes [old_distinct, dict.size()) joined the
// dictionary; old_distinct == 0 is a full relabel. Sorts only the new
// codes, merges them into the existing rank order (recovered from
// rank_of_code), and relabels in one linear pass. Every new code is larger
// than every old one, so the CodeOrder tiebreak places it exactly where a
// full sort would: the result is bit-identical to relabeling from scratch.
void ColumnCache::AssignRanks(Slot* slot, uint32_t old_distinct) {
  Column& col = slot->col;
  const CodeOrder less{&col.dict};
  std::vector<uint32_t> old_order(old_distinct);
  for (uint32_t code = 0; code < old_distinct; ++code) {
    old_order[slot->rank_of_code[code]] = code;
  }
  std::vector<uint32_t> new_codes(col.dict.size() - old_distinct);
  std::iota(new_codes.begin(), new_codes.end(), old_distinct);
  std::sort(new_codes.begin(), new_codes.end(), less);
  std::vector<uint32_t> order;
  order.reserve(col.dict.size());
  std::merge(old_order.begin(), old_order.end(), new_codes.begin(),
             new_codes.end(), std::back_inserter(order), less);

  std::vector<Value> old_sorted = std::move(col.sorted_distinct);
  col.sorted_distinct.clear();
  col.sorted_distinct.reserve(order.size());
  slot->rank_of_code.resize(col.dict.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    const uint32_t code = order[i];
    col.sorted_distinct.push_back(
        code < old_distinct ? std::move(old_sorted[slot->rank_of_code[code]])
                            : col.dict[code]);
    slot->rank_of_code[code] = i;
  }
  col.ranks.resize(col.codes.size());
  for (size_t r = 0; r < col.codes.size(); ++r) {
    col.ranks[r] = slot->rank_of_code[col.codes[r]];
  }
}

// Append-only extension: rows [old_n, num_rows) join the projections in
// O(delta) (plus one O(n) merge pass for the sorted index and, only when
// the delta introduced new distinct values, an O(n) rank relabel). From an
// empty column this is the first build: the tail sort is then the full
// sort, the merge a no-op and AssignRanks(slot, 0) a full relabel.
void ColumnCache::Extend(size_t c) {
  const size_t n = table_->num_rows();
  Slot& slot = slots_[c];
  Column& col = slot.col;
  const size_t old_n = col.num.size();
  if (old_n == 0) {
    col.num.reserve(n);
    col.codes.reserve(n);
    col.nulls.reserve(n);
    col.probs.reserve(n);
    col.sorted_rows.reserve(n);
    slot.dict_index.reserve(n);
  }
  const uint32_t old_distinct = static_cast<uint32_t>(col.dict.size());
  for (RowId r = old_n; r < n; ++r) {
    AppendProjection(table_->cell(r, c), &col, &slot.dict_index);
  }

  if (col.dict.size() > old_distinct) {
    // A fresh value can rank anywhere in the Compare order: relabel.
    AssignRanks(&slot, old_distinct);
  } else {
    for (RowId r = old_n; r < n; ++r) {
      col.ranks.push_back(slot.rank_of_code[col.codes[r]]);
    }
  }

  // Merge the sorted new tail into the sorted index.
  const size_t old_sorted = col.sorted_rows.size();
  for (RowId r = old_n; r < n; ++r) col.sorted_rows.push_back(r);
  const auto by_num_then_id = [&](RowId a, RowId b) {
    if (col.num[a] != col.num[b]) return col.num[a] < col.num[b];
    return a < b;
  };
  std::sort(col.sorted_rows.begin() + old_sorted, col.sorted_rows.end(),
            by_num_then_id);
  std::inplace_merge(col.sorted_rows.begin(),
                     col.sorted_rows.begin() + old_sorted,
                     col.sorted_rows.end(), by_num_then_id);
  col.sorted_num.clear();
  col.sorted_num.reserve(n);
  for (RowId r : col.sorted_rows) col.sorted_num.push_back(col.num[r]);
}

size_t ColumnCache::TrimmedDistinctCount(size_t c, double frac) {
  const Column& col = column(c);
  if (!col.numeric_only || col.has_nulls || col.sorted_num.empty() ||
      frac <= 0.0 || frac >= 0.5) {
    return col.dict.size();
  }
  const std::vector<double>& s = col.sorted_num;
  const size_t n = s.size();
  const size_t lo = static_cast<size_t>(frac * static_cast<double>(n));
  const size_t hi = n - lo;  // exclusive
  if (hi <= lo) return std::max<size_t>(1, col.dict.size());
  size_t distinct = 1;
  for (size_t i = lo + 1; i < hi; ++i) {
    if (s[i] != s[i - 1]) ++distinct;
  }
  const double scaled = static_cast<double>(distinct) / (1.0 - 2.0 * frac);
  const size_t est = static_cast<size_t>(scaled + 0.5);
  return std::min(col.dict.size(), std::max<size_t>(1, est));
}

size_t ColumnCache::EnsureBuilt(const std::vector<size_t>& cols) {
  for (size_t c : cols) (void)column(c);
  return table_->num_rows();
}

void ColumnCache::SetProbabilistic(RowId r, size_t c, bool probabilistic) {
  MutexLock lock(&build_mu_);
  Slot& slot = slots_[c];
  if (slot.published.load(std::memory_order_relaxed)) {
    slot.col.probs[r] = probabilistic ? 1 : 0;
  }
}

void ColumnCache::ExtendBuilt() {
  MutexLock lock(&build_mu_);
  const size_t n = table_->num_rows();
  for (size_t c = 0; c < slots_.size(); ++c) {
    Slot& slot = slots_[c];
    if (!slot.published.load(std::memory_order_relaxed) ||
        slot.col.num.size() == n) {
      continue;
    }
    StorageMetrics::Get().extends->Increment();
    Extend(c);
  }
}

const ColumnCache::Column& ColumnCache::column(size_t c) {
  Slot& slot = slots_[c];
  // Lock-free fast path: a published column is kept current by the table's
  // writes, which never overlap a reader (see the header).
  if (slot.published.load(std::memory_order_acquire)) return slot.col;
  MutexLock lock(&build_mu_);
  if (!slot.published.load(std::memory_order_relaxed)) {
    Extend(c);
    slot.published.store(true, std::memory_order_release);
  }
  return slot.col;
}

}  // namespace daisy
