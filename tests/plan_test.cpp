// Tests for the physical plan layer: compiled-filter equivalence with the
// row-at-a-time oracle of eval_oracle.h (property-style over ops, nulls,
// int64s around 2^53 and candidate cells), batch-size invariance, scan
// accounting, and the join differential against the reference join in
// join_oracle.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/rng.h"
#include "eval_oracle.h"
#include "join_oracle.h"
#include "plan/compiled_filter.h"
#include "plan/planner.h"
#include "query/eval.h"
#include "query/parser.h"
#include "storage/database.h"

namespace daisy {
namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

// A table exercising every cell shape the filter must handle: duplicated
// ints (a fifth of them neighbours of 2^53, where doubles round), doubles
// (a few of them ints around 2^53, so rounded int64s meet doubles),
// strings, ~10% nulls per column, plus point and range candidates attached
// to a random subset of cells.
Table MakeMessyTable(uint64_t seed, size_t rows) {
  Rng rng(seed);
  auto some_int = [&]() {
    return rng.Bernoulli(0.2) ? kTwo53 + rng.UniformInt(-2, 2)
                              : rng.UniformInt(0, 20);
  };
  auto some_double = [&]() {
    if (!rng.Bernoulli(0.1)) return Value(rng.UniformDouble(0, 10));
    return rng.Bernoulli(0.5) ? Value(kTwo53 + rng.UniformInt(-1, 1))
                              : Value(static_cast<double>(kTwo53));
  };
  Table t("m", Schema({{"a", ValueType::kInt},
                       {"b", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"u", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : v;
    };
    EXPECT_TRUE(
        t.AppendRow(
             {maybe_null(Value(some_int())),
              maybe_null(Value(some_int())),
              maybe_null(some_double()),
              maybe_null(Value("s" + std::to_string(rng.UniformInt(0, 9)))),
              maybe_null(Value("u" + std::to_string(rng.UniformInt(0, 9))))})
            .ok());
  }
  // Candidate-carrying cells: points and open ranges.
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Bernoulli(0.15)) {
      // Braced lists evaluate left to right: the draw order is fixed.
      t.SetCandidates(
          i, 0,
          {{Value(rng.UniformInt(0, 20)), 0.5, 0, CandidateKind::kPoint},
           {Value(rng.UniformInt(0, 20)), 0.5, 1, CandidateKind::kPoint}});
    }
    if (rng.Bernoulli(0.1)) {
      t.SetCandidates(i, 2,
                      {{Value(rng.UniformDouble(0, 10)), 1.0, 0,
                        rng.Bernoulli(0.5) ? CandidateKind::kLessEq
                                           : CandidateKind::kGreaterThan}});
    }
    if (rng.Bernoulli(0.1)) {
      t.SetCandidates(
          i, 3,
          {{Value("s" + std::to_string(rng.UniformInt(0, 9))), 1.0, 0,
            CandidateKind::kPoint}});
    }
  }
  return t;
}

std::unique_ptr<Expr> ParseWhere(const std::string& condition) {
  auto stmt = ParseQuery("SELECT * FROM m WHERE " + condition).ValueOrDie();
  EXPECT_NE(stmt.where, nullptr);
  return std::move(stmt.where);
}

// The property: the compiled batch filter (and FilterRows, which runs it)
// admits exactly the rows the row-at-a-time oracle admits.
void ExpectEquivalent(const Table& t, const std::string& condition) {
  std::unique_ptr<Expr> expr = ParseWhere(condition);
  auto expected =
      oracle::FilterRows(t, expr.get(), t.AllRowIds()).ValueOrDie();
  auto compiled = CompiledFilter::Compile(t, *expr).ValueOrDie();
  std::vector<RowId> columnar;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (compiled.Matches(r)) columnar.push_back(r);
  }
  EXPECT_EQ(columnar, expected) << "predicate: " << condition;
  EXPECT_EQ(FilterRows(t, expr.get(), t.AllRowIds()).ValueOrDie(), expected)
      << "predicate: " << condition;
}

TEST(CompiledFilterTest, ConstantLeavesAllOpsAllTypes) {
  Table t = MakeMessyTable(7, 400);
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  for (const char* op : kOps) {
    // In-dictionary and absent constants, int/double cross-type, strings.
    ExpectEquivalent(t, std::string("a ") + op + " 10");
    ExpectEquivalent(t, std::string("a ") + op + " 100");
    ExpectEquivalent(t, std::string("a ") + op + " 9.5");
    ExpectEquivalent(t, std::string("a ") + op + " " +
                            std::to_string(kTwo53 + 1));
    ExpectEquivalent(t, std::string("a ") + op + " " +
                            std::to_string(kTwo53));
    ExpectEquivalent(t, std::string("a ") + op + " 9007199254740992.0");
    ExpectEquivalent(t, std::string("d ") + op + " " +
                            std::to_string(kTwo53 + 1));
    ExpectEquivalent(t, std::string("d ") + op + " 9007199254740992.0");
    ExpectEquivalent(t, std::string("d ") + op + " 5.0");
    ExpectEquivalent(t, std::string("s ") + op + " 's4'");
    ExpectEquivalent(t, std::string("s ") + op + " 'zz'");
    // Cross-type: string column vs numeric constant orders by type rank.
    ExpectEquivalent(t, std::string("s ") + op + " 3");
  }
}

TEST(CompiledFilterTest, ColumnVsColumnLeaves) {
  Table t = MakeMessyTable(11, 400);
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  for (const char* op : kOps) {
    ExpectEquivalent(t, std::string("a ") + op + " b");   // numeric pair
    ExpectEquivalent(t, std::string("a ") + op + " d");   // int vs double
    ExpectEquivalent(t, std::string("a ") + op + " a");   // same column
    ExpectEquivalent(t, std::string("s ") + op + " u");   // string fallback
    ExpectEquivalent(t, std::string("s ") + op + " a");   // mixed fallback
  }
}

TEST(CompiledFilterTest, AndOrTrees) {
  Table t = MakeMessyTable(13, 400);
  ExpectEquivalent(t, "a >= 5 AND a <= 15");
  ExpectEquivalent(t, "a = 3 OR s = 's7'");
  ExpectEquivalent(t, "(a < 4 OR d > 8.0) AND s != 's0'");
  ExpectEquivalent(t, "a != 2 AND (d <= 1.5 OR (s > 's5' AND b >= 10))");
}

TEST(CompiledFilterTest, ManyRandomPredicates) {
  Table t = MakeMessyTable(17, 250);
  Rng rng(23);
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  const char* kCols[] = {"a", "b", "d", "s", "u"};
  for (int i = 0; i < 60; ++i) {
    const char* col = kCols[rng.UniformInt(0, 4)];
    const char* op = kOps[rng.UniformInt(0, 5)];
    std::string rhs;
    switch (rng.UniformInt(0, 4)) {
      case 0:
        rhs = std::to_string(rng.UniformInt(-5, 25));
        break;
      case 1:
        rhs = std::to_string(rng.UniformDouble(-1, 11));
        break;
      case 2:
        rhs = "'s" + std::to_string(rng.UniformInt(0, 12)) + "'";
        break;
      case 3:
        rhs = std::to_string(kTwo53 + rng.UniformInt(-2, 2));
        break;
      default:
        rhs = kCols[rng.UniformInt(0, 4)];
        break;
    }
    ExpectEquivalent(t, std::string(col) + " " + op + " " + rhs);
  }
}

TEST(CompiledFilterTest, UnknownColumnFailsCompile) {
  Table t = MakeMessyTable(3, 10);
  std::unique_ptr<Expr> expr = ParseWhere("a > 1");
  expr->left.column = "ghost";
  EXPECT_FALSE(CompiledFilter::Compile(t, *expr).ok());
  std::unique_ptr<Expr> qualified = ParseWhere("a > 1");
  qualified->left.table = "other";
  EXPECT_FALSE(CompiledFilter::Compile(t, *qualified).ok());
}

// ------------------------------------------------------------- Plan runs --

Database MakePlanDb(uint64_t seed) {
  Database db;
  EXPECT_TRUE(db.AddTable(MakeMessyTable(seed, 300)).ok());
  return db;
}

TEST(PlanTest, PlanFilterMatchesOracle) {
  Database db = MakePlanDb(29);
  auto stmt = ParseQuery(
                  "SELECT a, s FROM m WHERE (a >= 3 AND a <= 17) OR d > 9.0")
                  .ValueOrDie();
  const Table& t = *db.GetTable("m").ValueOrDie();
  const std::vector<RowId> expected =
      oracle::FilterRows(t, stmt.where.get(), t.AllRowIds()).ValueOrDie();
  Planner planner(&db);
  auto out = planner.PlanQuery(stmt).ValueOrDie().Execute().ValueOrDie();
  ASSERT_EQ(out.lineage.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out.lineage[i], JoinedRow{expected[i]});
  }
  EXPECT_EQ(out.result.num_rows(), expected.size());
}

// Two int64 columns whose first row differs only beyond double precision:
// `a > b` holds on both rows under Value semantics.
TEST(PlanTest, CrossColumnFilterExactBeyondTwo53) {
  Database db;
  Table t("t", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(kTwo53 + 1), Value(kTwo53)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  auto stmt = ParseQuery("SELECT a FROM t WHERE a > b").ValueOrDie();
  Planner planner(&db);
  auto out = planner.PlanQuery(stmt).ValueOrDie().Execute().ValueOrDie();
  EXPECT_EQ(out.lineage, (std::vector<JoinedRow>{{0}, {1}}));
}

// int 2^53+1, int 2^53 and double 2^53 as hash-join keys: a pair joins
// exactly when its keys are Equals — int 2^53 and double 2^53 join each
// other, int 2^53+1 only itself — in every row order.
TEST(PlanTest, HashJoinOnMixedIntDoubleKeysIsExact) {
  const std::vector<Value> keys = {Value(kTwo53 + 1), Value(kTwo53),
                                   Value(static_cast<double>(kTwo53))};
  const std::set<std::pair<size_t, size_t>> expected = {
      {0, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}};
  std::vector<size_t> perm = {0, 1, 2};
  do {
    SCOPED_TRACE("order " + std::to_string(perm[0]) +
                 std::to_string(perm[1]) + std::to_string(perm[2]));
    Database db;
    Table l("l", Schema({{"k", ValueType::kDouble}}));
    Table r("r", Schema({{"k", ValueType::kDouble}}));
    for (size_t k : perm) ASSERT_TRUE(l.AppendRow({keys[k]}).ok());
    for (const Value& v : keys) ASSERT_TRUE(r.AppendRow({v}).ok());
    ASSERT_TRUE(db.AddTable(std::move(l)).ok());
    ASSERT_TRUE(db.AddTable(std::move(r)).ok());
    auto stmt = ParseQuery("SELECT l.k FROM l, r WHERE l.k = r.k").ValueOrDie();
    Planner planner(&db);
    auto out = planner.PlanQuery(stmt).ValueOrDie().Execute().ValueOrDie();
    std::set<std::pair<size_t, size_t>> got;
    for (const JoinedRow& j : out.lineage) got.insert({perm[j[0]], j[1]});
    EXPECT_EQ(got, expected);
    for (size_t a = 0; a < keys.size(); ++a) {
      for (size_t b = 0; b < keys.size(); ++b) {
        EXPECT_EQ(got.count({a, b}) == 1, keys[a] == keys[b]) << a << "," << b;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(PlanTest, BatchSizeDoesNotChangeResults) {
  Database db = MakePlanDb(31);
  auto stmt =
      ParseQuery("SELECT a, d FROM m WHERE a > 4 AND s != 's3'").ValueOrDie();
  Planner planner(&db);
  auto reference = planner.PlanQuery(stmt).ValueOrDie();
  auto ref_out = reference.Execute().ValueOrDie();
  for (size_t batch : {1u, 7u, 64u, 100000u}) {
    auto plan = planner.PlanQuery(stmt).ValueOrDie();
    plan.set_batch_size(batch);
    auto out = plan.Execute().ValueOrDie();
    EXPECT_EQ(out.lineage, ref_out.lineage) << "batch=" << batch;
  }
}

TEST(PlanTest, OutputLineageAndScanAccounting) {
  Database db = MakePlanDb(37);
  auto stmt = ParseQuery("SELECT a FROM m WHERE a = 5").ValueOrDie();
  Planner planner(&db);
  auto out = planner.PlanQuery(stmt).ValueOrDie().Execute().ValueOrDie();
  EXPECT_EQ(out.rows_scanned, 300u);
  for (const JoinedRow& j : out.lineage) {
    ASSERT_EQ(j.size(), 1u);
  }
}

// ------------------------------------------------------ Join differential --

// Join-key cells drawn from a small domain so keys collide, with point
// candidates, open range candidates, and a mix of both on random cells.
Table MakeJoinTable(Rng* rng, const std::string& name) {
  Table t(name, Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  const int64_t rows = rng->UniformInt(2, 7);
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(rng->UniformInt(0, 4)),
                             Value(rng->UniformInt(0, 4))})
                    .ok());
  }
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      std::vector<Candidate> cands;
      if (rng->Bernoulli(0.2)) {
        cands.push_back(
            {Value(rng->UniformInt(0, 4)), 0.5, 0, CandidateKind::kPoint});
        cands.push_back(
            {Value(rng->UniformInt(0, 4)), 0.5, 1, CandidateKind::kPoint});
      }
      if (rng->Bernoulli(0.12)) {
        cands.push_back({Value(rng->UniformInt(0, 4)), 0.5, 2,
                         rng->Bernoulli(0.5) ? CandidateKind::kLessEq
                                             : CandidateKind::kGreaterThan});
      }
      if (!cands.empty()) t.SetCandidates(r, c, std::move(cands));
    }
  }
  return t;
}

// One equi-join conjunct between FROM positions `l` and `r`, written in a
// random orientation.
std::string JoinConjunct(Rng* rng, size_t l, const char* lcol, size_t r,
                         const char* rcol) {
  const std::string lhs = "t" + std::to_string(l) + "." + lcol;
  const std::string rhs = "t" + std::to_string(r) + "." + rcol;
  return rng->Bernoulli(0.5) ? lhs + " = " + rhs : rhs + " = " + lhs;
}

// Every plan shape — spanning-tree chains the optimizer may reorder,
// composite keys, cycles, and predicate-free (cartesian) steps — returns
// exactly the reference join of the per-table filtered rows, row order
// included, with the optimizer on and off.
TEST(PlanTest, JoinMatchesReferenceOracleAcrossSeeds) {
  size_t shapes[4] = {0, 0, 0, 0};
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(1000 + seed);
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 4));
    Database db;
    for (size_t i = 0; i < n; ++i) {
      const std::string name = "t" + std::to_string(i);
      ASSERT_TRUE(db.AddTable(MakeJoinTable(&rng, name)).ok());
    }
    std::vector<std::string> conjuncts;
    const size_t shape = seed % 4;
    ++shapes[shape];
    if (shape != 3) {  // chain: t(i-1).a = t(i).b
      for (size_t i = 1; i < n; ++i) {
        conjuncts.push_back(JoinConjunct(&rng, i - 1, "a", i, "b"));
      }
    }
    if (shape == 1) {  // composite key on the first join
      conjuncts.push_back(JoinConjunct(&rng, 0, "b", 1, "a"));
    }
    if (shape == 2) {  // cycle closing back to t0 (composite when n = 2)
      conjuncts.push_back(JoinConjunct(&rng, 0, "b", n - 1, "a"));
    }
    if (shape == 3) {  // some steps connected, the rest cartesian
      for (size_t i = 1; i < n; ++i) {
        if (rng.Bernoulli(0.4)) {
          conjuncts.push_back(JoinConjunct(
              &rng, static_cast<size_t>(rng.UniformInt(0, i - 1)), "a", i,
              "a"));
        }
      }
    }
    if (rng.Bernoulli(0.5)) {
      const size_t t = static_cast<size_t>(rng.UniformInt(0, n - 1));
      conjuncts.push_back("t" + std::to_string(t) + ".b > 1");
    }
    std::string sql = "SELECT * FROM t0";
    for (size_t i = 1; i < n; ++i) sql += ", t" + std::to_string(i);
    for (size_t k = 0; k < conjuncts.size(); ++k) {
      sql += (k == 0 ? " WHERE " : " AND ") + conjuncts[k];
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + sql);

    auto stmt = ParseQuery(sql).ValueOrDie();
    std::vector<const Table*> tables;
    for (size_t i = 0; i < n; ++i) {
      tables.push_back(db.GetTable("t" + std::to_string(i)).ValueOrDie());
    }
    auto split = SplitWhereClause(stmt, tables).ValueOrDie();
    std::vector<std::vector<RowId>> qualifying;
    for (size_t i = 0; i < n; ++i) {
      qualifying.push_back(oracle::FilterRows(*tables[i],
                                              split.table_filters[i].get(),
                                              tables[i]->AllRowIds())
                               .ValueOrDie());
    }
    const std::vector<JoinedRow> expected =
        oracle::JoinTables(tables, qualifying, split.joins);
    for (bool optimizer : {true, false}) {
      Planner planner(&db);
      planner.set_optimizer(optimizer);
      auto out = planner.PlanQuery(stmt).ValueOrDie().Execute().ValueOrDie();
      EXPECT_EQ(out.lineage, expected) << "optimizer=" << optimizer;
    }
  }
  for (size_t count : shapes) EXPECT_GE(count, 25u);
}

}  // namespace
}  // namespace daisy
