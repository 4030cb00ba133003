// Tests for the query engine: SQL parser, probabilistic predicate
// evaluation, WHERE splitting, joins, and aggregation. Statements run the
// way every caller runs them: ParseQuery -> Planner::PlanQuery ->
// Plan::Execute.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan/compiled_filter.h"
#include "plan/planner.h"
#include "query/eval.h"
#include "query/parser.h"

namespace daisy {
namespace {

// ---------------------------------------------------------------- Parser --

TEST(ParserTest, SelectStarSingleTable) {
  auto stmt = ParseQuery("SELECT * FROM emp").ValueOrDie();
  ASSERT_EQ(stmt.select_list.size(), 1u);
  EXPECT_TRUE(stmt.select_list[0].star);
  EXPECT_EQ(stmt.tables, std::vector<std::string>{"emp"});
  EXPECT_EQ(stmt.where, nullptr);
  EXPECT_TRUE(stmt.group_by.empty());
}

TEST(ParserTest, ColumnsAndAliases) {
  auto stmt =
      ParseQuery("SELECT e.name AS n, salary FROM emp WHERE salary > 100")
          .ValueOrDie();
  ASSERT_EQ(stmt.select_list.size(), 2u);
  EXPECT_EQ(stmt.select_list[0].col.table, "e");
  EXPECT_EQ(stmt.select_list[0].col.column, "name");
  EXPECT_EQ(stmt.select_list[0].alias, "n");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kCmp);
  EXPECT_EQ(stmt.where->op, CompareOp::kGt);
  EXPECT_EQ(stmt.where->right_val, Value(100));
}

TEST(ParserTest, AndOrPrecedence) {
  auto stmt = ParseQuery(
                  "SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3")
                  .ValueOrDie();
  // OR binds loosest: (a=1 AND b=2) OR (c=3).
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kOr);
  ASSERT_EQ(stmt.where->children.size(), 2u);
  EXPECT_EQ(stmt.where->children[0]->kind, Expr::Kind::kAnd);
  EXPECT_EQ(stmt.where->children[1]->kind, Expr::Kind::kCmp);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto stmt = ParseQuery(
                  "SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
                  .ValueOrDie();
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kAnd);
  EXPECT_EQ(stmt.where->children[1]->kind, Expr::Kind::kOr);
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto stmt = ParseQuery(
                  "SELECT year, AVG(value) AS mean, COUNT(*) FROM aq "
                  "WHERE county = 'x' GROUP BY year")
                  .ValueOrDie();
  ASSERT_EQ(stmt.select_list.size(), 3u);
  EXPECT_EQ(stmt.select_list[1].agg, AggFunc::kAvg);
  EXPECT_EQ(stmt.select_list[1].alias, "mean");
  EXPECT_TRUE(stmt.select_list[2].star);
  EXPECT_EQ(stmt.select_list[2].agg, AggFunc::kCount);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0].column, "year");
  EXPECT_TRUE(stmt.has_aggregate());
}

TEST(ParserTest, JoinPredicateAndLiterals) {
  auto stmt = ParseQuery(
                  "SELECT * FROM r, s WHERE r.k = s.k AND r.x >= 2.5 "
                  "AND s.name = 'it''s'")
                  .ValueOrDie();
  EXPECT_EQ(stmt.tables.size(), 2u);
  auto conjuncts = SplitConjuncts(stmt.where.get());
  ASSERT_EQ(conjuncts.size(), 3u);
  ColumnRef l, r;
  EXPECT_TRUE(MatchJoinPredicate(*conjuncts[0], &l, &r));
  EXPECT_EQ(l.table, "r");
  EXPECT_EQ(r.table, "s");
  EXPECT_EQ(conjuncts[2]->right_val, Value("it's"));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a >").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a > 1 trailing").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a = 'unterminated").ok());
  EXPECT_FALSE(ParseQuery("SELECT FOO(a) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t GROUP BY").ok());
}

// ------------------------------------------------------- ToString trips --

TEST(ParserTest, ToStringPrintsParsableLiterals) {
  auto stmt = ParseQuery(
                  "SELECT * FROM emp WHERE salary > 1234567.5 AND "
                  "name = 'O''Brien' AND bonus <= 9.0")
                  .ValueOrDie();
  EXPECT_EQ(stmt.where->ToString(),
            "(salary > 1234567.5 AND name == 'O''Brien' AND bonus <= 9.0)");
}

// Random single-table statements over t(a int, b int, d double, s string)
// with literals the printer must escape or keep exact: embedded quotes,
// keywords inside strings, doubles needing 17 digits, integral doubles,
// int64s around 2^53.
Value RandomLiteral(Rng* rng, int kind) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  static const char* kStrings[] = {"O'Brien", "it''s", "'", "", "a AND b",
                                   "x", "s1", " spaced "};
  switch (kind) {
    case 0:
      return Value(rng->Bernoulli(0.3) ? kTwo53 + rng->UniformInt(-2, 2)
                                       : rng->UniformInt(-50, 50));
    case 1:
      switch (rng->UniformInt(0, 3)) {
        case 0:
          return Value(rng->UniformDouble(-1e7, 1e7));
        case 1:
          return Value(static_cast<double>(rng->UniformInt(-20, 20)));
        case 2:
          return Value(static_cast<double>(kTwo53) *
                       static_cast<double>(rng->UniformInt(1, 3)));
        default:
          return Value(rng->UniformDouble(-1, 1) * 1e-9);
      }
    default:
      return Value(kStrings[rng->UniformInt(0, 7)]);
  }
}

std::unique_ptr<Expr> RandomWhere(Rng* rng, int depth) {
  static const char* kCols[] = {"a", "b", "d", "s"};
  auto expr = std::make_unique<Expr>();
  if (depth > 0 && rng->Bernoulli(0.5)) {
    expr->kind = rng->Bernoulli(0.5) ? Expr::Kind::kAnd : Expr::Kind::kOr;
    const int64_t n = rng->UniformInt(2, 3);
    for (int64_t i = 0; i < n; ++i) {
      expr->children.push_back(RandomWhere(rng, depth - 1));
    }
    return expr;
  }
  const int col = static_cast<int>(rng->UniformInt(0, 3));
  expr->left = {rng->Bernoulli(0.3) ? "t" : "", kCols[col]};
  expr->op = static_cast<CompareOp>(rng->UniformInt(0, 5));
  if (rng->Bernoulli(0.2)) {
    expr->right_is_column = true;
    expr->right_col = {"", kCols[rng->UniformInt(0, 3)]};
  } else {
    expr->right_val = RandomLiteral(rng, col < 2 ? 0 : col == 2 ? 1 : 2);
  }
  return expr;
}

TEST(ParserTest, ToStringRoundTripsAcrossSeeds) {
  Rng rng(404);
  Table t("t", Schema({{"a", ValueType::kInt},
                       {"b", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString}}));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({RandomLiteral(&rng, 0), RandomLiteral(&rng, 0),
                             RandomLiteral(&rng, 1), RandomLiteral(&rng, 2)})
                    .ok());
  }
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng gen(seed);
    SelectStmt stmt;
    SelectItem item;
    item.star = gen.Bernoulli(0.5);
    if (!item.star) {
      item.col = {"", "a"};
      if (gen.Bernoulli(0.5)) item.alias = "x";
    }
    stmt.select_list.push_back(item);
    stmt.tables = {"t"};
    stmt.where = RandomWhere(&gen, 2);
    if (gen.Bernoulli(0.3)) stmt.group_by.push_back({"", "b"});

    const std::string text = stmt.ToString();
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + text);
    Result<SelectStmt> reparsed = ParseQuery(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ(reparsed.value().ToString(), text);
    EXPECT_EQ(FilterRows(t, reparsed.value().where.get(), t.AllRowIds())
                  .ValueOrDie(),
              FilterRows(t, stmt.where.get(), t.AllRowIds()).ValueOrDie());
  }
}

// ------------------------------------------------------------------ Eval --

Schema EmpSchema() {
  return Schema({{"dept", ValueType::kString},
                 {"salary", ValueType::kDouble}});
}

TEST(EvalTest, CellMaySatisfyPoint) {
  Cell c(Value(50.0));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kGeq, Value(50.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kGt, Value(50.0)));
}

TEST(EvalTest, CellMaySatisfyCandidates) {
  Cell c(Value(50.0));
  c.add_candidate({Value(50.0), 0.5, 0, CandidateKind::kPoint});
  c.add_candidate({Value(90.0), 0.5, 0, CandidateKind::kPoint});
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kGt, Value(80.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kGt, Value(95.0)));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kEq, Value(90.0)));
}

TEST(EvalTest, CellMaySatisfyRanges) {
  Cell c(Value(100.0));
  c.add_candidate({Value(40.0), 0.5, 0, CandidateKind::kLessEq});
  // x <= 40 can satisfy x < 10, x == 40, x <= 100.
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kLt, Value(10.0)));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kEq, Value(40.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kEq, Value(41.0)));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kGeq, Value(40.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kGt, Value(40.0)));
}

TEST(EvalTest, CellsMayMatchOverlapSemantics) {
  Cell a(Value(1));
  a.add_candidate({Value(1), 0.5, 0, CandidateKind::kPoint});
  a.add_candidate({Value(2), 0.5, 1, CandidateKind::kPoint});
  Cell b(Value(2));
  EXPECT_TRUE(CellsMayMatch(a, CompareOp::kEq, b));  // overlap on 2
  Cell c(Value(3));
  EXPECT_FALSE(CellsMayMatch(a, CompareOp::kEq, c));
  EXPECT_TRUE(CellsMayMatch(a, CompareOp::kLt, c));
}

TEST(EvalTest, FilterRowsTree) {
  Table t("emp", EmpSchema());
  ASSERT_TRUE(t.AppendRow({Value("eng"), Value(120.0)}).ok());
  auto stmt = ParseQuery(
                  "SELECT * FROM emp WHERE dept = 'eng' AND salary > 100")
                  .ValueOrDie();
  EXPECT_EQ(FilterRows(t, stmt.where.get(), {0}).ValueOrDie(),
            std::vector<RowId>{0});
  auto stmt2 = ParseQuery(
                   "SELECT * FROM emp WHERE dept = 'hr' OR salary < 50")
                   .ValueOrDie();
  EXPECT_TRUE(FilterRows(t, stmt2.where.get(), {0}).ValueOrDie().empty());
  // A null expression keeps every input row.
  EXPECT_EQ(FilterRows(t, nullptr, {0}).ValueOrDie(), std::vector<RowId>{0});
}

TEST(EvalTest, UnknownColumnFails) {
  Table t("emp", EmpSchema());
  ASSERT_TRUE(t.AppendRow({Value("eng"), Value(1.0)}).ok());
  auto stmt = ParseQuery("SELECT * FROM emp WHERE nope = 1").ValueOrDie();
  EXPECT_FALSE(FilterRows(t, stmt.where.get(), {0}).ok());
  // Empty input never resolves the expression.
  EXPECT_TRUE(FilterRows(t, stmt.where.get(), {}).ValueOrDie().empty());
}

// -------------------------------------------------------------- Executor --

Result<QueryOutput> RunSql(Database* db, const std::string& sql,
                           bool optimizer = true) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  Planner planner(db);
  planner.set_optimizer(optimizer);
  DAISY_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(stmt));
  return plan.Execute();
}

Database MakeJoinDb() {
  Database db;
  Table emp("emp", Schema({{"name", ValueType::kString},
                           {"dept_id", ValueType::kInt},
                           {"salary", ValueType::kDouble}}));
  EXPECT_TRUE(emp.AppendRow({Value("ann"), Value(1), Value(100.0)}).ok());
  EXPECT_TRUE(emp.AppendRow({Value("bob"), Value(2), Value(200.0)}).ok());
  EXPECT_TRUE(emp.AppendRow({Value("cat"), Value(1), Value(300.0)}).ok());
  EXPECT_TRUE(db.AddTable(std::move(emp)).ok());
  Table dept("dept", Schema({{"id", ValueType::kInt},
                             {"dept_name", ValueType::kString}}));
  EXPECT_TRUE(dept.AppendRow({Value(1), Value("eng")}).ok());
  EXPECT_TRUE(dept.AppendRow({Value(2), Value("hr")}).ok());
  EXPECT_TRUE(db.AddTable(std::move(dept)).ok());
  return db;
}

TEST(ExecutorTest, SelectProjectFilter) {
  Database db = MakeJoinDb();
  auto out =
      RunSql(&db, "SELECT name FROM emp WHERE salary >= 200").ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 2u);
  EXPECT_EQ(out.result.cell(0, 0).original(), Value("bob"));
  EXPECT_EQ(out.result.cell(1, 0).original(), Value("cat"));
  EXPECT_EQ(out.lineage.size(), 2u);
  EXPECT_EQ(out.lineage[0][0], 1u);
}

TEST(ExecutorTest, EquiJoin) {
  Database db = MakeJoinDb();
  auto out = RunSql(&db,
                    "SELECT emp.name, dept.dept_name FROM emp, dept "
                    "WHERE emp.dept_id = dept.id AND dept.dept_name = 'eng'")
                 .ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 2u);
  EXPECT_EQ(out.result.cell(0, 1).original(), Value("eng"));
  EXPECT_EQ(out.result.schema().column(0).name, "emp.name");
}

TEST(ExecutorTest, ProbabilisticJoinKeyOverlap) {
  Database db = MakeJoinDb();
  Table* emp = db.GetTable("emp").ValueOrDie();
  // ann's dept becomes {1 or 2}: she must now match both departments.
  emp->SetCandidates(0, 1, {{Value(1), 0.5, 0, CandidateKind::kPoint},
                            {Value(2), 0.5, 1, CandidateKind::kPoint}});
  auto out = RunSql(&db,
                    "SELECT emp.name, dept.dept_name FROM emp, dept "
                    "WHERE emp.dept_id = dept.id")
                 .ValueOrDie();
  size_t ann_matches = 0;
  for (RowId r = 0; r < out.result.num_rows(); ++r) {
    if (out.result.cell(r, 0).original() == Value("ann")) ++ann_matches;
  }
  EXPECT_EQ(ann_matches, 2u);
}

TEST(ExecutorTest, GroupByAggregates) {
  Database db = MakeJoinDb();
  auto out = RunSql(&db,
                    "SELECT dept_id, COUNT(*) AS n, SUM(salary) AS s, "
                    "AVG(salary) AS a, MIN(salary) AS lo, MAX(salary) AS hi "
                    "FROM emp GROUP BY dept_id")
                 .ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 2u);
  // Find dept 1.
  for (RowId r = 0; r < 2; ++r) {
    if (out.result.cell(r, 0).original() == Value(1)) {
      EXPECT_EQ(out.result.cell(r, 1).original(), Value(2));
      EXPECT_DOUBLE_EQ(out.result.cell(r, 2).original().AsDouble(), 400.0);
      EXPECT_DOUBLE_EQ(out.result.cell(r, 3).original().AsDouble(), 200.0);
      EXPECT_DOUBLE_EQ(out.result.cell(r, 4).original().AsDouble(), 100.0);
      EXPECT_DOUBLE_EQ(out.result.cell(r, 5).original().AsDouble(), 300.0);
    }
  }
}

TEST(ExecutorTest, GlobalAggregateWithoutGroupBy) {
  Database db = MakeJoinDb();
  auto out = RunSql(&db, "SELECT COUNT(*) FROM emp").ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 1u);
  EXPECT_EQ(out.result.cell(0, 0).original(), Value(3));
}

TEST(ExecutorTest, SplitWhereClassification) {
  Database db = MakeJoinDb();
  auto stmt = ParseQuery(
                  "SELECT * FROM emp, dept WHERE emp.dept_id = dept.id AND "
                  "salary > 150 AND dept.dept_name = 'eng'")
                  .ValueOrDie();
  std::vector<const Table*> tables{db.GetTable("emp").ValueOrDie(),
                                   db.GetTable("dept").ValueOrDie()};
  auto split = SplitWhereClause(stmt, tables).ValueOrDie();
  ASSERT_EQ(split.joins.size(), 1u);
  EXPECT_EQ(split.joins[0].left_table, 0u);
  EXPECT_EQ(split.joins[0].right_table, 1u);
  ASSERT_NE(split.table_filters[0], nullptr);
  ASSERT_NE(split.table_filters[1], nullptr);
}

TEST(ExecutorTest, AmbiguousColumnRejected) {
  Database db;
  Table a("a", Schema({{"x", ValueType::kInt}}));
  Table b("b", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(a.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(a)).ok());
  ASSERT_TRUE(db.AddTable(std::move(b)).ok());
  EXPECT_FALSE(RunSql(&db, "SELECT * FROM a, b WHERE x = 1").ok());
}

TEST(ExecutorTest, UnknownTableOrColumn) {
  Database db = MakeJoinDb();
  EXPECT_FALSE(RunSql(&db, "SELECT * FROM nope").ok());
  EXPECT_FALSE(RunSql(&db, "SELECT nope FROM emp").ok());
  EXPECT_FALSE(RunSql(&db, "SELECT * FROM emp WHERE ghost = 1").ok());
}

TEST(ExecutorTest, StarExpansionQualifiesOnJoin) {
  Database db = MakeJoinDb();
  auto out = RunSql(&db,
                    "SELECT * FROM emp, dept WHERE emp.dept_id = dept.id")
                 .ValueOrDie();
  EXPECT_EQ(out.result.schema().num_columns(), 5u);
  EXPECT_TRUE(out.result.schema().HasColumn("emp.name"));
  EXPECT_TRUE(out.result.schema().HasColumn("dept.id"));
}

TEST(ExecutorTest, ProbabilisticCellsSurviveProjection) {
  Database db = MakeJoinDb();
  Table* emp = db.GetTable("emp").ValueOrDie();
  emp->SetCandidates(0, 2, {{Value(100.0), 0.5, 0, CandidateKind::kPoint},
                            {Value(500.0), 0.5, 1, CandidateKind::kPoint}});
  // May-semantics: ann qualifies for salary > 400 through the candidate.
  auto out =
      RunSql(&db, "SELECT name, salary FROM emp WHERE salary > 400")
          .ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 1u);
  EXPECT_EQ(out.result.cell(0, 0).original(), Value("ann"));
  EXPECT_TRUE(out.result.cell(0, 1).is_probabilistic());
  EXPECT_EQ(out.result.cell(0, 1).candidates().size(), 2u);
}

// Every predicate connecting a FROM table to the tables before it is
// applied, not only the first one (composite keys, cycles), with the
// optimizer on and off — both queries fall outside its exactness gate, so
// both settings run the FROM-order join tree.
TEST(ExecutorTest, CompositeKeyJoinAppliesEveryPredicate) {
  Database db;
  Table a("a", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  ASSERT_TRUE(a.AppendRow({Value(1), Value(1)}).ok());
  ASSERT_TRUE(a.AppendRow({Value(1), Value(2)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(a)).ok());
  Table b("b", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  ASSERT_TRUE(b.AppendRow({Value(1), Value(1)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(b)).ok());
  for (bool optimizer : {true, false}) {
    auto out = RunSql(&db,
                      "SELECT a.x, a.y, b.y FROM a, b "
                      "WHERE a.x = b.x AND a.y = b.y",
                      optimizer)
                   .ValueOrDie();
    ASSERT_EQ(out.result.num_rows(), 1u) << "optimizer=" << optimizer;
    EXPECT_EQ(out.lineage, (std::vector<JoinedRow>{{0, 0}}));
  }
}

TEST(ExecutorTest, CyclicJoinAppliesEveryPredicate) {
  Database db;
  Table ta("ta", Schema({{"x", ValueType::kInt}, {"z", ValueType::kInt}}));
  ASSERT_TRUE(ta.AppendRow({Value(1), Value(10)}).ok());
  ASSERT_TRUE(ta.AppendRow({Value(1), Value(20)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(ta)).ok());
  Table tb("tb", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  ASSERT_TRUE(tb.AppendRow({Value(1), Value(5)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(tb)).ok());
  Table tc("tc", Schema({{"y", ValueType::kInt}, {"z", ValueType::kInt}}));
  ASSERT_TRUE(tc.AppendRow({Value(5), Value(10)}).ok());
  ASSERT_TRUE(tc.AppendRow({Value(5), Value(30)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(tc)).ok());
  for (bool optimizer : {true, false}) {
    auto out = RunSql(&db,
                      "SELECT ta.z, tc.z FROM ta, tb, tc WHERE ta.x = tb.x "
                      "AND tb.y = tc.y AND ta.z = tc.z",
                      optimizer)
                   .ValueOrDie();
    EXPECT_EQ(out.lineage, (std::vector<JoinedRow>{{0, 0, 0}}))
        << "optimizer=" << optimizer;
  }
}

// Join subtrees index FROM positions in 64-bit masks: a wider FROM list
// (self-joins allowed) is rejected at plan time.
TEST(ExecutorTest, FromListWiderThan64Rejected) {
  Database db;
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  auto from_list = [](size_t n) {
    std::string sql = "SELECT COUNT(*) FROM t";
    for (size_t i = 1; i < n; ++i) sql += ", t";
    return sql;
  };
  auto wide = RunSql(&db, from_list(65));
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
  auto widest = RunSql(&db, from_list(64)).ValueOrDie();
  ASSERT_EQ(widest.result.num_rows(), 1u);
  EXPECT_EQ(widest.result.cell(0, 0).original(), Value(1));
}

}  // namespace
}  // namespace daisy
