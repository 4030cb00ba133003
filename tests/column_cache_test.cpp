// Tests for the columnar fast-path layer: typed projections, dictionary
// codes, Compare ranks, the sorted index, the write-through contract (each
// table write updates the cache itself; original edits replace it), and
// the incremental-cache differential (appends, candidate writes, deletes
// and original edits against a from-scratch build).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "storage/column_cache.h"
#include "storage/table.h"

namespace daisy {
namespace {

Schema MixedSchema() {
  return Schema({{"amount", ValueType::kDouble}, {"city", ValueType::kString}});
}

Table MixedTable() {
  Table t("mixed", MixedSchema());
  EXPECT_TRUE(t.AppendRow({Value(5.0), Value("LA")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(5), Value("SF")}).ok());  // int 5 == 5.0
  EXPECT_TRUE(t.AppendRow({Value(2.5), Value("LA")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value("NY")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(7.0), Value::Null()}).ok());
  return t;
}

TEST(ColumnCacheTest, NumericProjectionMatchesValues) {
  Table t = MixedTable();
  const ColumnCache::Column& col = t.columns().column(0);
  ASSERT_EQ(col.num.size(), 5u);
  EXPECT_EQ(col.num[0], 5.0);
  EXPECT_EQ(col.num[1], 5.0);
  EXPECT_EQ(col.num[2], 2.5);
  // Null maps onto the stable hash coordinate, exactly like the theta-join
  // row path always did.
  EXPECT_EQ(col.num[3], ColumnCache::NumericCoord(Value::Null()));
  EXPECT_TRUE(col.numeric_only);
  EXPECT_EQ(col.nulls, (std::vector<uint8_t>{0, 0, 0, 1, 0}));
}

TEST(ColumnCacheTest, DictionaryCodesConsistentWithEquals) {
  Table t = MixedTable();
  const ColumnCache::Column& amount = t.columns().column(0);
  // int 5 and double 5.0 are Equals-equal -> same code.
  EXPECT_EQ(amount.codes[0], amount.codes[1]);
  EXPECT_NE(amount.codes[0], amount.codes[2]);
  EXPECT_EQ(amount.dict.size(), 4u);  // {5, 2.5, null, 7}

  const ColumnCache::Column& city = t.columns().column(1);
  EXPECT_FALSE(city.numeric_only);
  EXPECT_EQ(city.codes[0], city.codes[2]);  // LA twice
  EXPECT_NE(city.codes[0], city.codes[1]);
  EXPECT_EQ(city.dict.size(), 4u);  // {LA, SF, NY, null}
}

TEST(ColumnCacheTest, RanksFollowValueCompare) {
  Table t = MixedTable();
  const ColumnCache::Column& amount = t.columns().column(0);
  // Compare order: null < 2.5 < 5 < 7.
  EXPECT_EQ(amount.ranks[3], 0u);
  EXPECT_EQ(amount.ranks[2], 1u);
  EXPECT_EQ(amount.ranks[0], 2u);
  EXPECT_EQ(amount.ranks[1], 2u);
  EXPECT_EQ(amount.ranks[4], 3u);

  const ColumnCache::Column& city = t.columns().column(1);
  // null < "LA" < "NY" < "SF" (nulls first, strings lexicographic).
  EXPECT_EQ(city.ranks[4], 0u);
  EXPECT_EQ(city.ranks[0], 1u);
  EXPECT_EQ(city.ranks[3], 2u);
  EXPECT_EQ(city.ranks[1], 3u);
  // sorted_distinct mirrors the rank order.
  ASSERT_EQ(city.sorted_distinct.size(), 4u);
  EXPECT_EQ(city.sorted_distinct[1], Value("LA"));
  EXPECT_EQ(city.sorted_distinct[3], Value("SF"));
}

TEST(ColumnCacheTest, SortedIndexOrdersByProjectionThenRowId) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  const ColumnCache::Column& col = t.columns().column(0);
  EXPECT_EQ(col.sorted_rows, (std::vector<RowId>{1, 3, 0, 2}));
  EXPECT_EQ(col.sorted_num, (std::vector<double>{1, 2, 3, 3}));
}

TEST(ColumnCacheTest, OriginalEditDropsCacheAndOthersKeepIt) {
  Table t = MixedTable();
  const uint64_t id = t.columns().id();
  // Candidate writes, appends and deletes keep the cache (and its id).
  t.SetCandidates(0, 0, {{Value(6.0), 1.0, 0, CandidateKind::kPoint}});
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value("X")}).ok());
  ASSERT_TRUE(t.DeleteRows({1}).ok());
  EXPECT_EQ(t.columns().id(), id);
  // An original edit drops it: the next access builds a new one.
  t.mutable_cell(2, 0) = Cell(Value(9.0));
  EXPECT_NE(t.columns().id(), id);
}

TEST(ColumnCacheTest, RepairedOriginalIsVisibleAfterEdit) {
  Table t = MixedTable();
  EXPECT_EQ(t.columns().column(0).num[2], 2.5);
  EXPECT_EQ(t.columns().column(1).dict.size(), 4u);
  t.mutable_cell(2, 0) = Cell(Value(9.0));
  EXPECT_EQ(t.columns().column(0).num[2], 9.0);
  EXPECT_EQ(t.columns().column(1).dict.size(), 4u);
}

TEST(ColumnCacheTest, AppendsExtendBuiltColumnsAtWrite) {
  Table t = MixedTable();
  const ColumnCache::Column& col = t.columns().column(0);
  ASSERT_EQ(col.num.size(), 5u);
  const auto extends = [] {
    return MetricsRegistry::Global().TakeSnapshot().counters.at(
        "daisy_storage_column_extends_total");
  };
  const uint64_t before = extends();
  ASSERT_TRUE(t.AppendRows({{Value(3.0), Value("SF")},
                            {Value(8.5), Value("LA")}})
                  .ok());
  // The write itself extended the built column (and only that one) ...
  const uint64_t after = extends();
  EXPECT_EQ(after, before + 1);
  EXPECT_EQ(col.num.size(), 7u);
  EXPECT_EQ(col.num.back(), 8.5);
  EXPECT_EQ(col.sorted_rows.size(), 7u);
  // ... so reading it afterwards does no work.
  EXPECT_EQ(&t.columns().column(0), &col);
  EXPECT_EQ(extends(), after);
  // A never-touched column is built on first access, not extended.
  EXPECT_EQ(t.columns().column(1).num.size(), 7u);
  EXPECT_EQ(extends(), after);
}

TEST(ColumnCacheTest, CopyAndMoveDropDerivedCache) {
  Table t = MixedTable();
  (void)t.columns().column(0);
  Table copy = t;
  EXPECT_EQ(copy.columns().column(0).num[2], 2.5);
  // Mutating the copy must not affect the original's projections.
  copy.mutable_cell(2, 0) = Cell(Value(1.0));
  EXPECT_EQ(copy.columns().column(0).num[2], 1.0);
  EXPECT_EQ(t.columns().column(0).num[2], 2.5);

  Table moved = std::move(copy);
  EXPECT_EQ(moved.columns().column(0).num[2], 1.0);
}

TEST(ColumnCacheTest, AppendAfterBuildIsPickedUp) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  EXPECT_EQ(t.columns().column(0).num.size(), 1u);
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  EXPECT_EQ(t.columns().column(0).num.size(), 2u);
  EXPECT_EQ(t.columns().column(0).sorted_rows.size(), 2u);
}

TEST(ColumnCacheTest, CandidateWritesFlipMaskInPlace) {
  Table t = MixedTable();
  ColumnCache& cache = t.columns();
  const ColumnCache::Column& col = cache.column(0);
  const double* data = col.num.data();
  t.SetCandidates(1, 0, {{Value(6.0), 1.0, 0, CandidateKind::kPoint}});
  EXPECT_EQ(cache.column(0).probs, (std::vector<uint8_t>{0, 1, 0, 0, 0}));
  t.SetCandidates(1, 0, {});
  EXPECT_FALSE(t.cell(1, 0).is_probabilistic());
  EXPECT_EQ(cache.column(0).probs, (std::vector<uint8_t>{0, 0, 0, 0, 0}));
  t.SetCandidates(4, 0, {{Value(1.0), 1.0, 0, CandidateKind::kPoint}});
  t.ResetToOriginal();
  EXPECT_EQ(cache.column(0).probs, (std::vector<uint8_t>{0, 0, 0, 0, 0}));
  EXPECT_EQ(t.columns().id(), cache.id());
  EXPECT_EQ(cache.column(0).num.data(), data);
}

// ------------------------------------ incremental vs from-scratch cache --

// Value vectors equal element by element in type and Compare order, so a
// dictionary that kept `double 5.0` where the reference kept `int 5` (they
// are Equals-equal) still fails.
bool SameValues(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

void ExpectSameColumn(const ColumnCache::Column& got,
                      const ColumnCache::Column& want,
                      const std::string& where) {
  EXPECT_EQ(got.num, want.num) << where;
  EXPECT_EQ(got.codes, want.codes) << where;
  EXPECT_EQ(got.ranks, want.ranks) << where;
  EXPECT_EQ(got.nulls, want.nulls) << where;
  EXPECT_EQ(got.probs, want.probs) << where;
  EXPECT_TRUE(SameValues(got.dict, want.dict)) << where << " dict";
  EXPECT_TRUE(SameValues(got.sorted_distinct, want.sorted_distinct))
      << where << " sorted_distinct";
  EXPECT_EQ(got.sorted_rows, want.sorted_rows) << where;
  EXPECT_EQ(got.sorted_num, want.sorted_num) << where;
  EXPECT_EQ(got.numeric_only, want.numeric_only) << where;
  EXPECT_EQ(got.has_nulls, want.has_nulls) << where;
  EXPECT_EQ(got.num_exact, want.num_exact) << where;
}

// One random value per column of DiffSchema(). Small domains so appends
// repeat old values as often as they bring new ones. The amount column
// mixes int and double spellings of the same number (`int 5` next to
// `double 5.0` share a code) and the pair int 2^53+1 / double 2^53, which
// compare exactly: two codes, two ranks.
Value RandomCell(Rng* rng, size_t c) {
  if (rng->Bernoulli(0.1)) return Value::Null();
  switch (c) {
    case 0: {
      const int64_t k = rng->UniformInt(0, 40);
      switch (rng->UniformInt(0, 5)) {
        case 0:
          return Value(k);
        case 1:
          return Value(static_cast<double>(k));
        case 2:
          return Value(static_cast<double>(k) + 0.5);
        case 3:
          return rng->Bernoulli(0.5) ? Value(int64_t{9007199254740993})
                                     : Value(9007199254740992.0);
        default:
          return Value(k * 7);
      }
    }
    case 1: {
      const char letter = static_cast<char>('a' + rng->UniformInt(0, 25));
      return Value(std::string(1, letter) +
                   std::to_string(rng->UniformInt(0, 3)));
    }
    default:
      return Value(rng->UniformInt(-20, 20));
  }
}

Schema DiffSchema() {
  return Schema({{"amount", ValueType::kDouble},
                 {"name", ValueType::kString},
                 {"k", ValueType::kInt}});
}

std::vector<Value> RandomRow(Rng* rng) {
  std::vector<Value> row;
  for (size_t c = 0; c < 3; ++c) row.push_back(RandomCell(rng, c));
  return row;
}

std::vector<Candidate> RandomCandidates(Rng* rng, size_t c) {
  std::vector<Candidate> cands;
  const int64_t n = rng->UniformInt(1, 2);
  for (int64_t i = 0; i < n; ++i) {
    cands.push_back({RandomCell(rng, c), 1.0 / static_cast<double>(n),
                     static_cast<int32_t>(i), CandidateKind::kPoint});
  }
  return cands;
}

RowId RandomRowId(Rng* rng, const Table& t) {
  return static_cast<RowId>(
      rng->UniformInt(0, static_cast<int64_t>(t.num_rows()) - 1));
}

// The cache maintained through a random interleaving of appends, candidate
// writes (set and clear), deletes, original edits and mask resets must
// equal, after every step, a cache built from scratch over a copy of the
// table. Only original edits replace the cache (new id); candidate-only
// steps do not even move the array storage of a built column.
TEST(ColumnCacheDifferentialTest, IncrementalMatchesFromScratch) {
  enum Op { kAppend, kSet, kClear, kDelete, kEdit, kReset, kBuild };
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    Table t("d", DiffSchema());
    const int64_t base = rng.UniformInt(1, 12);
    for (int64_t i = 0; i < base; ++i) {
      ASSERT_TRUE(t.AppendRow(RandomRow(&rng)).ok());
    }
    std::vector<bool> built(3, false);
    built[static_cast<size_t>(rng.UniformInt(0, 2))] = true;
    for (int step = 0; step < 40; ++step) {
      ColumnCache& cache = t.columns();
      const uint64_t id = cache.id();
      std::vector<const double*> data(3, nullptr);
      for (size_t c = 0; c < 3; ++c) {
        if (built[c]) data[c] = cache.column(c).num.data();
      }
      const Op op = static_cast<Op>(rng.UniformInt(0, 13) % 7);
      const size_t col = static_cast<size_t>(rng.UniformInt(0, 2));
      switch (op) {
        case kAppend: {
          std::vector<std::vector<Value>> rows;
          const int64_t n = rng.UniformInt(1, 4);
          for (int64_t i = 0; i < n; ++i) rows.push_back(RandomRow(&rng));
          const RowId first = t.num_rows();
          ASSERT_TRUE(t.AppendRows(std::move(rows)).ok());
          // A repair landing on a freshly appended row.
          if (rng.Bernoulli(0.5)) {
            t.SetCandidates(first, col, RandomCandidates(&rng, col));
          }
          break;
        }
        case kSet:
          t.SetCandidates(RandomRowId(&rng, t), col,
                          RandomCandidates(&rng, col));
          break;
        case kClear:
          t.SetCandidates(RandomRowId(&rng, t), col, {});
          break;
        case kDelete: {
          const RowId r = RandomRowId(&rng, t);
          if (t.is_live(r)) {
            ASSERT_TRUE(t.DeleteRows({r}).ok());
          }
          break;
        }
        case kEdit:
          t.mutable_cell(RandomRowId(&rng, t), col) =
              Cell(RandomCell(&rng, col));
          break;
        case kReset:
          if (rng.Bernoulli(0.3)) t.ResetToOriginal();
          break;
        case kBuild:
          built[col] = true;
          break;
      }
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " op " +
                                std::to_string(static_cast<int>(op));
      const bool candidate_only = op == kSet || op == kClear || op == kReset;
      // Only an original edit replaces the cache; the old reference
      // dangles then, so every read below goes through t.columns().
      if (op == kEdit) {
        EXPECT_NE(t.columns().id(), id) << where;
      } else {
        EXPECT_EQ(t.columns().id(), id) << where;
      }
      Table copy = t;
      ColumnCache fresh(&copy);
      for (size_t c = 0; c < 3; ++c) {
        if (!built[c]) continue;
        const std::string at = where + " col " + std::to_string(c);
        const ColumnCache::Column& got = t.columns().column(c);
        ExpectSameColumn(got, fresh.column(c), at);
        bool exact = true;
        for (RowId r = 0; r < copy.num_rows(); ++r) {
          exact = exact && copy.cell(r, c).original().ExactAsDouble();
        }
        EXPECT_EQ(got.num_exact, exact) << at;
        if (candidate_only && data[c] != nullptr) {
          EXPECT_EQ(got.num.data(), data[c]) << at;
        }
      }
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace daisy
