// Differential test harness for the incremental ingest layer.
//
// A seed-driven generator produces random schemas, FD/DC rule sets, tables,
// and interleaved append/delete/query sequences. Two invariants are checked
// after every operation, across >= 100 seeds:
//
//  1. Delta-maintained detection state is bit-identical to from-scratch
//     detection: the theta-join detector's maintained violation set (kept
//     current via ApplyDelta + DetectDelta) equals a fresh DetectAll, and
//     each delete retracts exactly the maintained pairs touching a deleted
//     row; the FD group state
//     (FdDeltaDetector) equals DetectFdViolations; the patched per-rule
//     statistics equal a fresh Statistics::Compute.
//
//  2. The compiled evaluators agree with the row-at-a-time oracles of
//     eval_oracle.h: the maintained theta-join set equals the brute-force
//     pair enumeration, FD detection equals the Value-hashing group-by,
//     and — around every query a full DaisyEngine runs over the ingest
//     sequence, while repairs leave candidate-carrying cells behind — the
//     compiled filter of the WHERE clause and of each of its conjuncts
//     admits exactly the live rows the oracle admits.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/rng.h"
#include "detect/fd_delta.h"
#include "detect/fd_detector.h"
#include "detect/theta_join.h"
#include "eval_oracle.h"
#include "plan/compiled_filter.h"
#include "query/parser.h"
#include "storage/database.h"

namespace daisy {
namespace {

// ------------------------------------------------------------ generator --

struct Scenario {
  Schema schema;
  std::vector<std::string> int_cols;
  std::vector<std::string> str_cols;
  int64_t int_domain = 6;
  int64_t str_domain = 3;
  std::string fd_text;   // "phi: FD x -> y"
  std::string dc_text;   // "psi: !(t1.x < t2.x & t1.y > t2.y)"
  std::vector<std::vector<Value>> base_rows;
};

std::vector<Value> RandomRow(Rng* rng, const Scenario& s) {
  std::vector<Value> row;
  for (size_t c = 0; c < s.schema.num_columns(); ++c) {
    if (s.schema.column(c).type == ValueType::kInt) {
      row.push_back(Value(rng->UniformInt(0, s.int_domain)));
    } else {
      row.push_back(
          Value("s" + std::to_string(rng->UniformInt(0, s.str_domain))));
    }
  }
  return row;
}

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const size_t num_cols = static_cast<size_t>(rng.UniformInt(3, 5));
  std::vector<Column> cols;
  for (size_t c = 0; c < num_cols; ++c) {
    // The first two columns are always ints (the order DC needs a numeric
    // pair); the rest flip a coin.
    const bool is_int = c < 2 || rng.Bernoulli(0.5);
    const std::string name = "c" + std::to_string(c);
    cols.push_back({name, is_int ? ValueType::kInt : ValueType::kString});
    (is_int ? s.int_cols : s.str_cols).push_back(name);
  }
  s.schema = Schema(cols);
  s.int_domain = rng.UniformInt(3, 12);
  s.str_domain = rng.UniformInt(1, 5);

  // FD over two distinct random columns.
  const size_t lhs = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(num_cols) - 1));
  size_t rhs = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(num_cols) - 2));
  if (rhs >= lhs) ++rhs;
  s.fd_text = "phi: FD " + s.schema.column(lhs).name + " -> " +
              s.schema.column(rhs).name;
  // Order DC over two distinct int columns (both are c0/c1 when only two).
  const std::string& x = s.int_cols[0];
  const std::string& y =
      s.int_cols[s.int_cols.size() > 1 ? 1 : 0] == x && s.int_cols.size() > 1
          ? s.int_cols[1]
          : s.int_cols[s.int_cols.size() > 1 ? 1 : 0];
  s.dc_text = "psi: !(t1." + x + " < t2." + x + " & t1." + y + " > t2." + y +
              ")";

  const size_t base = static_cast<size_t>(rng.UniformInt(30, 80));
  for (size_t i = 0; i < base; ++i) s.base_rows.push_back(RandomRow(&rng, s));
  return s;
}

Table BuildTable(const Scenario& s) {
  Table t("t", s.schema);
  for (const auto& row : s.base_rows) {
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

struct Op {
  enum class Kind { kAppend, kDelete, kQuery } kind = Kind::kQuery;
  std::vector<std::vector<Value>> rows;  // kAppend
  size_t delete_count = 0;               // kDelete (victims picked live)
  std::string sql;                       // kQuery
};

std::string RandomQuery(Rng* rng, const Scenario& s) {
  if (rng->Bernoulli(0.2)) return "SELECT * FROM t";
  std::string col, rhs;
  const bool use_int = s.str_cols.empty() || rng->Bernoulli(0.7);
  if (use_int) {
    col = s.int_cols[static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(s.int_cols.size()) - 1))];
    rhs = std::to_string(rng->UniformInt(0, s.int_domain));
  } else {
    col = s.str_cols[static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(s.str_cols.size()) - 1))];
    rhs = "'s" + std::to_string(rng->UniformInt(0, s.str_domain)) + "'";
  }
  static const char* kOps[] = {"=", ">=", "<=", "<", ">"};
  const char* op =
      use_int ? kOps[rng->UniformInt(0, 4)] : "=";
  return "SELECT * FROM t WHERE " + col + " " + op + " " + rhs;
}

std::vector<Op> MakeOps(uint64_t seed, const Scenario& s) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Op> ops;
  const size_t count = static_cast<size_t>(rng.UniformInt(6, 10));
  for (size_t i = 0; i < count; ++i) {
    Op op;
    const double dice = rng.UniformDouble(0, 1);
    if (dice < 0.40) {
      op.kind = Op::Kind::kAppend;
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 6));
      for (size_t j = 0; j < n; ++j) op.rows.push_back(RandomRow(&rng, s));
    } else if (dice < 0.65) {
      op.kind = Op::Kind::kDelete;
      op.delete_count = static_cast<size_t>(rng.UniformInt(1, 3));
    } else {
      op.kind = Op::Kind::kQuery;
      op.sql = RandomQuery(&rng, s);
    }
    ops.push_back(std::move(op));
  }
  // Always end with a query so the final state is exercised.
  Op last;
  last.kind = Op::Kind::kQuery;
  last.sql = "SELECT * FROM t";
  ops.push_back(std::move(last));
  return ops;
}

// Deterministic victim selection shared by every replica of a sequence.
std::vector<RowId> PickVictims(const Table& t, size_t count, uint64_t salt) {
  std::vector<RowId> live = t.AllRowIds();
  std::vector<RowId> victims;
  if (live.empty()) return victims;
  Rng rng(salt);
  count = std::min(count, live.size());
  std::vector<size_t> idx = rng.SampleWithoutReplacement(live.size(), count);
  for (size_t i : idx) victims.push_back(live[i]);
  std::sort(victims.begin(), victims.end());
  return victims;
}

// ----------------------------------------------------------- comparators --

std::vector<ViolationPair> Sorted(std::vector<ViolationPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

bool SameGroups(const std::vector<FdGroup>& a, const std::vector<FdGroup>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!GroupKeyEq()(a[i].lhs_key, b[i].lhs_key)) return false;
    if (a[i].rows != b[i].rows) return false;
    if (a[i].rhs_histogram != b[i].rhs_histogram) return false;
  }
  return true;
}

::testing::AssertionResult SameStats(const FdRuleStats* m,
                                     const FdRuleStats* f) {
  if (m == nullptr || f == nullptr) {
    return ::testing::AssertionFailure() << "missing stats";
  }
  if (m->table_rows != f->table_rows ||
      m->num_violating_rows != f->num_violating_rows ||
      m->num_violating_groups != f->num_violating_groups ||
      m->avg_candidates != f->avg_candidates ||
      m->dirty_lhs_keys != f->dirty_lhs_keys ||
      m->dirty_rhs_vals != f->dirty_rhs_vals) {
    return ::testing::AssertionFailure()
           << "maintained stats diverge: rows " << m->num_violating_rows
           << " vs " << f->num_violating_rows << ", groups "
           << m->num_violating_groups << " vs " << f->num_violating_groups;
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------- detector-level differential --

// Pure detection (no repairs): maintained state vs from-scratch and vs the
// oracles, after every interleaved append/delete.
void RunDetectorDifferential(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Scenario s = MakeScenario(seed);
  Table t = BuildTable(s);
  const DenialConstraint fd =
      ParseConstraint(s.fd_text, "t", s.schema).ValueOrDie();
  const DenialConstraint dc =
      ParseConstraint(s.dc_text, "t", s.schema).ValueOrDie();
  ASSERT_TRUE(fd.IsFd());
  ASSERT_FALSE(dc.IsFd());

  ThetaJoinDetector theta(&t, &dc, 6);
  (void)theta.DetectAll();
  FdDeltaDetector fd_state(&t, &fd);

  Rng rng(seed ^ 0xd1ffULL);
  const std::vector<Op> ops = MakeOps(seed, s);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const Op& op = ops[i];
    TableDelta delta;
    if (op.kind == Op::Kind::kAppend) {
      delta = t.AppendRows(op.rows).ValueOrDie();
    } else if (op.kind == Op::Kind::kDelete) {
      std::vector<RowId> victims = PickVictims(t, op.delete_count, seed + i);
      if (victims.empty()) continue;
      delta = t.DeleteRows(victims).ValueOrDie();
    } else {
      continue;  // queries are the engine-level harness's concern
    }
    // The pairs a delete must retract: every maintained pair with a
    // deleted endpoint (delta.deleted is ascending).
    size_t touching = 0;
    for (const ViolationPair& p : theta.maintained_violations()) {
      if (std::binary_search(delta.deleted.begin(), delta.deleted.end(),
                             p.t1) ||
          std::binary_search(delta.deleted.begin(), delta.deleted.end(),
                             p.t2)) {
        ++touching;
      }
    }
    EXPECT_EQ(theta.ApplyDelta(delta), touching);
    (void)theta.DetectDelta(delta);
    (void)fd_state.ApplyDelta(delta, nullptr);

    // Delta-maintained == from-scratch.
    ThetaJoinDetector scratch(&t, &dc, 6);
    EXPECT_EQ(theta.maintained_violations(), Sorted(scratch.DetectAll()));
    // Compiled == oracle.
    std::set<std::pair<RowId, RowId>> maintained;
    for (const ViolationPair& p : theta.maintained_violations()) {
      maintained.insert({p.t1, p.t2});
    }
    EXPECT_EQ(maintained, oracle::ViolatingPairs(t, dc));
    EXPECT_TRUE(SameGroups(fd_state.ViolatingGroups(),
                           DetectFdViolations(t, fd, t.AllRowIds(), false)));
    EXPECT_TRUE(SameGroups(
        DetectFdViolations(t, fd, t.AllRowIds(), false),
        oracle::DetectFdViolations(t, fd, t.AllRowIds(), false)));
  }
}

// --------------------------------------------- engine-level differential --

// The compiled filter over `where` and over each of its conjuncts admits
// exactly the live rows of `t` the row-at-a-time oracle admits.
::testing::AssertionResult FilterMatchesOracle(const Table& t,
                                               const Expr* where) {
  std::vector<const Expr*> exprs = SplitConjuncts(where);
  if (exprs.size() > 1) exprs.push_back(where);
  const std::vector<RowId> live = t.AllRowIds();
  for (const Expr* expr : exprs) {
    Result<CompiledFilter> compiled = CompiledFilter::Compile(t, *expr);
    if (!compiled.ok()) {
      return ::testing::AssertionFailure() << compiled.status().ToString();
    }
    std::vector<RowId> got;
    for (RowId r : live) {
      if (compiled.value().Matches(r)) got.push_back(r);
    }
    const std::vector<RowId> want =
        oracle::FilterRows(t, expr, live).ValueOrDie();
    if (got != want) {
      return ::testing::AssertionFailure()
             << expr->ToString() << ": compiled admits " << got.size()
             << " rows, oracle " << want.size();
    }
  }
  return ::testing::AssertionSuccess();
}

// One engine replays the ingest + query sequence. Around every query —
// before it repairs, and after, on the candidate-carrying table it left —
// and once more after the final full clean, the compiled filter must
// agree with the oracle; the delta-patched rule statistics must match a
// fresh recompute after every query.
void RunEngineDifferential(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Scenario s = MakeScenario(seed);

  Database db;
  ASSERT_TRUE(db.AddTable(BuildTable(s)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText(s.fd_text, "t", s.schema).ok());
  ASSERT_TRUE(rules.AddFromText(s.dc_text, "t", s.schema).ok());
  DaisyOptions options;
  options.mode = (seed % 2 == 0) ? DaisyOptions::Mode::kAdaptive
                                 : DaisyOptions::Mode::kIncremental;
  options.theta_partitions = 6;
  DaisyEngine engine(&db, std::move(rules), options);
  ASSERT_TRUE(engine.Prepare().ok());
  const Table& t = *db.GetTable("t").ValueOrDie();

  const std::vector<Op> ops = MakeOps(seed, s);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const Op& op = ops[i];
    if (op.kind == Op::Kind::kAppend) {
      ASSERT_TRUE(engine.AppendRows("t", op.rows).ok());
    } else if (op.kind == Op::Kind::kDelete) {
      std::vector<RowId> victims = PickVictims(t, op.delete_count, seed + i);
      if (victims.empty()) continue;
      ASSERT_TRUE(engine.DeleteRows("t", victims).ok());
    } else {
      const SelectStmt stmt = ParseQuery(op.sql).ValueOrDie();
      EXPECT_TRUE(FilterMatchesOracle(t, stmt.where.get())) << op.sql;
      ASSERT_TRUE(engine.Query(op.sql).ok()) << op.sql;
      EXPECT_TRUE(FilterMatchesOracle(t, stmt.where.get())) << op.sql;

      // The engine's delta-patched statistics match a fresh recompute over
      // the current data (repairs never change original values).
      Statistics fresh;
      ASSERT_TRUE(fresh.Compute(db, engine.constraints()).ok());
      EXPECT_TRUE(SameStats(engine.statistics().ForRule("phi"),
                            fresh.ForRule("phi")))
          << op.sql;
    }
  }
  // Full cleaning leaves candidates on every repaired cell.
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  for (const Op& op : ops) {
    if (op.kind != Op::Kind::kQuery) continue;
    const SelectStmt stmt = ParseQuery(op.sql).ValueOrDie();
    EXPECT_TRUE(FilterMatchesOracle(t, stmt.where.get())) << op.sql;
  }
}

TEST(DifferentialTest, DetectorStateAcross100Seeds) {
  for (uint64_t seed = 1; seed <= 100; ++seed) RunDetectorDifferential(seed);
}

TEST(DifferentialTest, EngineSequencesAcross100Seeds) {
  for (uint64_t seed = 1; seed <= 100; ++seed) RunEngineDifferential(seed);
}

}  // namespace
}  // namespace daisy
