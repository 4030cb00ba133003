// Tests for violation detection: FD group-by detection and the partitioned
// incremental theta-join, including property tests against the row-at-a-time
// oracles of eval_oracle.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "detect/fd_detector.h"
#include "detect/group_by.h"
#include "detect/theta_join.h"
#include "eval_oracle.h"

namespace daisy {
namespace {

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

Table CitiesTable() {
  Table t("cities", CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

Schema SalarySchema() {
  return Schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
}

DenialConstraint SalaryDc(const Schema& schema) {
  return ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                         "emp", schema)
      .ValueOrDie();
}

// -------------------------------------------------------------- group_by --

TEST(GroupByTest, GroupsByKey) {
  Table t = CitiesTable();
  GroupMap groups = GroupAllRowsBy(t, {0});
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[GroupKey{Value(9001)}].size(), 3u);
  EXPECT_EQ(groups[GroupKey{Value(10001)}].size(), 2u);
}

TEST(GroupByTest, MultiColumnKey) {
  Table t = CitiesTable();
  GroupMap groups = GroupAllRowsBy(t, {0, 1});
  EXPECT_EQ(groups.size(), 4u);  // (9001,LA)x2 collapses
}

TEST(GroupByTest, SubsetOfRows) {
  Table t = CitiesTable();
  GroupMap groups = GroupRowsBy(t, {0}, {0, 3});
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[GroupKey{Value(9001)}].size(), 1u);
}

// ----------------------------------------------------------- FD detector --

TEST(FdDetectorTest, FindsViolatingGroups) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  auto groups = DetectFdViolations(t, dc, t.AllRowIds());
  ASSERT_EQ(groups.size(), 2u);  // both zips violate
  // Deterministic order: 9001 first.
  EXPECT_EQ(groups[0].lhs_key, GroupKey{Value(9001)});
  EXPECT_EQ(groups[0].total(), 3u);
  ASSERT_EQ(groups[0].rhs_histogram.size(), 2u);
  // Histogram ordered by frequency: LA(2) then SF(1).
  EXPECT_EQ(groups[0].rhs_histogram[0].first, Value("Los Angeles"));
  EXPECT_EQ(groups[0].rhs_histogram[0].second, 2u);
  EXPECT_EQ(groups[0].rhs_histogram[1].first, Value("San Francisco"));
  EXPECT_TRUE(groups[0].violating());
}

TEST(FdDetectorTest, CleanGroupsFiltered) {
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("b")}).ok());
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  EXPECT_TRUE(DetectFdViolations(t, dc, t.AllRowIds()).empty());
  EXPECT_EQ(DetectFdViolations(t, dc, t.AllRowIds(), true).size(), 2u);
  EXPECT_EQ(CountFdViolatingRows(t, dc), 0u);
}

TEST(FdDetectorTest, ScopeRestriction) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  // Only rows 0 and 2 (both LA): no violation within the scope.
  EXPECT_TRUE(DetectFdViolations(t, dc, {0, 2}).empty());
  // Rows 0 and 1 conflict.
  EXPECT_EQ(DetectFdViolations(t, dc, {0, 1}).size(), 1u);
}

// ----------------------------------------------------- oracle equivalence --

TEST(GroupByTest, ColumnarMatchesOracle) {
  Table t = CitiesTable();
  for (const std::vector<size_t>& cols :
       {std::vector<size_t>{}, std::vector<size_t>{0},
        std::vector<size_t>{1}, std::vector<size_t>{0, 1}}) {
    GroupMap columnar = GroupRowsBy(t, cols, t.AllRowIds());
    GroupMap expected = oracle::GroupRowsBy(t, cols, t.AllRowIds());
    ASSERT_EQ(columnar.size(), expected.size());
    for (const auto& [key, members] : expected) {
      auto it = columnar.find(key);
      ASSERT_NE(it, columnar.end());
      EXPECT_EQ(it->second, members);
    }
  }
  EXPECT_TRUE(GroupRowsBy(t, {}, {}).empty());
}

TEST(FdDetectorTest, ColumnarMatchesOracle) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const auto columnar = DetectFdViolations(t, dc, t.AllRowIds(), true);
  const auto expected =
      oracle::DetectFdViolations(t, dc, t.AllRowIds(), true);
  ASSERT_EQ(columnar.size(), expected.size());
  for (size_t i = 0; i < columnar.size(); ++i) {
    EXPECT_EQ(columnar[i].lhs_key, expected[i].lhs_key);
    EXPECT_EQ(columnar[i].rows, expected[i].rows);
    EXPECT_EQ(columnar[i].rhs_histogram, expected[i].rhs_histogram);
  }
}

// ----------------------------------------------------- range feasibility --

TEST(RangeFeasibleTest, NeqSingleValueRanges) {
  using detail::RangeFeasible;
  // Both sides a single value: feasible iff the values differ.
  EXPECT_FALSE(RangeFeasible(3, 3, CompareOp::kNeq, 3, 3));
  EXPECT_TRUE(RangeFeasible(3, 3, CompareOp::kNeq, 4, 4));
  EXPECT_TRUE(RangeFeasible(4, 4, CompareOp::kNeq, 3, 3));
  // One side a single value inside the other's wider range: the wider range
  // offers a distinct value.
  EXPECT_TRUE(RangeFeasible(3, 3, CompareOp::kNeq, 1, 5));
  EXPECT_TRUE(RangeFeasible(1, 5, CompareOp::kNeq, 3, 3));
  // Two wider ranges, even identical ones, are always feasible.
  EXPECT_TRUE(RangeFeasible(1, 5, CompareOp::kNeq, 1, 5));
}

TEST(RangeFeasibleTest, OrderAndEqualityOps) {
  using detail::RangeFeasible;
  EXPECT_TRUE(RangeFeasible(1, 2, CompareOp::kLt, 2, 3));
  EXPECT_FALSE(RangeFeasible(3, 4, CompareOp::kLt, 1, 3));
  EXPECT_TRUE(RangeFeasible(3, 4, CompareOp::kLeq, 1, 3));
  EXPECT_TRUE(RangeFeasible(2, 3, CompareOp::kEq, 3, 5));
  EXPECT_FALSE(RangeFeasible(2, 3, CompareOp::kEq, 4, 5));
}

// -------------------------------------------------- theta-join detection --

std::set<std::pair<RowId, RowId>> AsSet(const std::vector<ViolationPair>& v) {
  std::set<std::pair<RowId, RowId>> out;
  for (const ViolationPair& p : v) out.insert({p.t1, p.t2});
  return out;
}

Table RandomSalaryTable(size_t n, uint64_t seed, double error_fraction) {
  Rng rng(seed);
  Table t("emp", SalarySchema());
  for (size_t i = 0; i < n; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    // Mostly monotone tax; a fraction perturbed to create violations.
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    EXPECT_TRUE(t.AppendRow({Value(salary), Value(tax)}).ok());
  }
  return t;
}

TEST(ThetaJoinTest, DetectAllMatchesBruteForce) {
  Table t = RandomSalaryTable(60, 11, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));
  EXPECT_TRUE(detector.FullyChecked());
}

TEST(ThetaJoinTest, PruningDoesNotChangeResults) {
  Table t = RandomSalaryTable(50, 17, 0.15);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector pruned(&t, &dc, 8);
  ThetaJoinDetector unpruned(&t, &dc, 8);
  unpruned.set_pruning_enabled(false);
  EXPECT_EQ(AsSet(pruned.DetectAll()), AsSet(unpruned.DetectAll()));
  EXPECT_LE(pruned.pairs_checked(), unpruned.pairs_checked());
}

TEST(ThetaJoinTest, IncrementalCoversResultPairs) {
  Table t = RandomSalaryTable(80, 23, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::vector<RowId> result;
  for (RowId r = 0; r < 20; ++r) result.push_back(r);
  auto found = AsSet(detector.DetectIncremental(result));
  // Every brute-force violation touching the result must be found.
  for (const auto& [a, b] : oracle::ViolatingPairs(t, dc)) {
    const bool touches =
        (a < 20) || (b < 20);
    if (touches) {
      EXPECT_TRUE(found.count({a, b}) > 0)
          << "missing pair (" << a << "," << b << ")";
    }
  }
}

TEST(ThetaJoinTest, IncrementalSkipsCheckedPairs) {
  Table t = RandomSalaryTable(40, 29, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  std::vector<RowId> result;
  for (RowId r = 0; r < 10; ++r) result.push_back(r);
  (void)detector.DetectIncremental(result);
  const size_t first_pass = detector.pairs_checked();
  // Re-running the same result set: all pairs already checked.
  auto again = detector.DetectIncremental(result);
  EXPECT_TRUE(again.empty());
  EXPECT_LT(detector.pairs_checked(), first_pass);
}

TEST(ThetaJoinTest, SequentialIncrementalConvergesToFullCoverage) {
  Table t = RandomSalaryTable(60, 31, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::set<std::pair<RowId, RowId>> all_found;
  // Non-overlapping batches covering the whole table.
  for (RowId start = 0; start < 60; start += 15) {
    std::vector<RowId> batch;
    for (RowId r = start; r < start + 15; ++r) batch.push_back(r);
    for (const ViolationPair& p : detector.DetectIncremental(batch)) {
      all_found.insert({p.t1, p.t2});
    }
  }
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(all_found, oracle::ViolatingPairs(t, dc));
  EXPECT_DOUBLE_EQ(detector.Support(), 1.0);
}

TEST(ThetaJoinTest, SupportGrowsMonotonically) {
  Table t = RandomSalaryTable(64, 37, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  double prev = detector.Support();
  for (RowId start = 0; start < 64; start += 16) {
    std::vector<RowId> batch;
    for (RowId r = start; r < start + 16; ++r) batch.push_back(r);
    (void)detector.DetectIncremental(batch);
    const double cur = detector.Support();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(ThetaJoinTest, ColumnarMatchesOracleEvaluation) {
  Table t = RandomSalaryTable(60, 47, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector columnar(&t, &dc, 8);
  EXPECT_EQ(AsSet(columnar.DetectAll()), oracle::ViolatingPairs(t, dc));
}

TEST(ThetaJoinTest, ColumnarHandlesStringAndConstantAtoms) {
  Schema schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
  Table t("cities", schema);
  ASSERT_TRUE(t.AppendRow({Value(1), Value("LA")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("LA")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3), Value("LA")}).ok());
  for (const char* text :
       {"dc: !(t1.zip == t2.zip & t1.city != t2.city)",
        "dc: !(t1.city == 'LA' & t2.city == 'SF' & t1.zip <= t2.zip)",
        "dc: !(t1.zip > t2.zip & t1.city == t2.city)",
        "dc: !(t1.zip >= 2 & t1.city != t2.city)"}) {
    auto dc = ParseConstraint(text, "cities", schema).ValueOrDie();
    ThetaJoinDetector detector(&t, &dc, 3);
    EXPECT_EQ(AsSet(detector.DetectAll()),
              oracle::ViolatingPairs(t, dc)) << text;
  }
}

TEST(ThetaJoinTest, ParallelDetectAllIsDeterministic) {
  Table t = RandomSalaryTable(120, 53, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector serial(&t, &dc, 8, /*threads=*/1);
  ThetaJoinDetector parallel(&t, &dc, 8, /*threads=*/4);
  const auto serial_out = serial.DetectAll();
  const auto parallel_out = parallel.DetectAll();
  // Same violations in the same order, not merely the same set.
  EXPECT_EQ(serial_out, parallel_out);
  EXPECT_EQ(serial.pairs_checked(), parallel.pairs_checked());
  EXPECT_TRUE(parallel.FullyChecked());
}

TEST(ThetaJoinTest, IncrementalChecksEachPairExactlyOnce) {
  const size_t n = 40;
  Table t = RandomSalaryTable(n, 59, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  detector.set_pruning_enabled(false);
  std::vector<RowId> result = {3, 7, 11, 20, 33};
  (void)detector.DetectIncremental(result);
  // result x rest, plus each unordered pair inside the result once.
  const size_t k = result.size();
  EXPECT_EQ(detector.pairs_checked(), k * (n - k) + k * (k - 1) / 2);
}

TEST(ThetaJoinTest, RepairInvalidatesDetectorState) {
  Schema schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
  Table t("emp", schema);
  // Monotone taxes except row 2, which overtaxes a low salary.
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.10)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.20)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.90)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(4000.0), Value(0.40)}).ok());
  DenialConstraint dc = SalaryDc(schema);
  ThetaJoinDetector detector(&t, &dc, 2);
  // the seed data is dirty
  ASSERT_FALSE(oracle::ViolatingPairs(t, dc).empty());
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));

  // A candidate-only repair keeps the coverage: nothing is re-checked.
  t.SetCandidates(2, 1, {{Value(0.30), 1.0, 0, CandidateKind::kPoint}});
  EXPECT_TRUE(detector.DetectAll().empty());
  EXPECT_EQ(detector.pairs_checked(), 0u);

  // Editing the original value invalidates the column projection and the
  // stale coverage; after Rebuild detection sees the new value and the
  // table is clean.
  t.mutable_cell(2, 1) = Cell(Value(0.30));
  detector.Rebuild();
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));
  EXPECT_TRUE(oracle::ViolatingPairs(t, dc).empty());

  // Estimates are refreshed too: a clean monotone table estimates no
  // errors, while the dirty version estimated some.
  double total = 0;
  for (double v : detector.EstimateErrors()) total += v;
  EXPECT_EQ(total, 0.0);
}

TEST(ThetaJoinTest, CandidateRepairMidWorkloadKeepsDetectionCorrect) {
  // Regression: a candidate-only repair between two incremental passes
  // must keep the detector's coverage (and the arrays its compiled atoms
  // point into) intact.
  Table t = RandomSalaryTable(60, 61, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::set<std::pair<RowId, RowId>> found;
  std::vector<RowId> batch1, batch2;
  for (RowId r = 0; r < 30; ++r) batch1.push_back(r);
  for (RowId r = 30; r < 60; ++r) batch2.push_back(r);
  for (const ViolationPair& p : detector.DetectIncremental(batch1)) {
    found.insert({p.t1, p.t2});
  }
  const size_t after_first = detector.pairs_checked();
  EXPECT_GT(after_first, 0u);
  // Candidate-only repair between the two queries.
  t.SetCandidates(0, 1, {{Value(0.5), 1.0, 0, CandidateKind::kPoint}});
  for (const ViolationPair& p : detector.DetectIncremental(batch2)) {
    found.insert({p.t1, p.t2});
  }
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(found, oracle::ViolatingPairs(t, dc));
}

TEST(ThetaJoinTest, TableReassignmentRefreshesDetector) {
  // Assigning new contents to the table drops its column cache: Rebuild
  // treats it as a wholesale data change and re-points the compiled atoms
  // at the new cache's arrays.
  Table t = RandomSalaryTable(40, 71, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  (void)detector.DetectAll();
  t = RandomSalaryTable(40, 72, 0.3);
  detector.Rebuild();
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));
}

TEST(ThetaJoinTest, EstimateErrorsSeesRepairedValues) {
  Table dirty = RandomSalaryTable(100, 41, 0.4);
  DenialConstraint dc = SalaryDc(dirty.schema());
  ThetaJoinDetector detector(&dirty, &dc, 8);
  double before = 0;
  for (double v : detector.EstimateErrors()) before += v;
  EXPECT_GT(before, 0.0);
  // Repair every tax to the clean monotone value.
  for (RowId r = 0; r < dirty.num_rows(); ++r) {
    const double salary = dirty.cell(r, 0).original().AsDouble();
    dirty.mutable_cell(r, 1) = Cell(Value(salary / 200000.0));
  }
  detector.Rebuild();
  double after = 0;
  for (double v : detector.EstimateErrors()) after += v;
  EXPECT_EQ(after, 0.0);
}

TEST(ThetaJoinTest, EstimateErrorsFlagsDirtyRegions) {
  // Clean monotone data: estimates ~0 everywhere.
  Table clean = RandomSalaryTable(100, 41, 0.0);
  DenialConstraint dc = SalaryDc(clean.schema());
  ThetaJoinDetector cd(&clean, &dc, 8);
  double clean_total = 0;
  for (double v : cd.EstimateErrors()) clean_total += v;

  Table dirty = RandomSalaryTable(100, 41, 0.4);
  ThetaJoinDetector dd(&dirty, &dc, 8);
  double dirty_total = 0;
  for (double v : dd.EstimateErrors()) dirty_total += v;
  EXPECT_GT(dirty_total, clean_total);
}

TEST(ThetaJoinTest, AccuracyEstimateBounds) {
  Table t = RandomSalaryTable(100, 43, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::vector<RowId> result;
  for (RowId r = 0; r < 25; ++r) result.push_back(r);
  const double acc = detector.EstimateAccuracy(result);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_DOUBLE_EQ(detector.EstimateAccuracy({}), 1.0);
}

// ------------------------------------------------ int64 beyond 2^53 --

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Rows (2^53+1, 1) and (2^53, 2): the `a` values differ only beyond double
// precision, so row 0 > row 1 holds on Values but not on their doubles.
Table TwoRowsBeyondTwo53() {
  Table t("t", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  EXPECT_TRUE(t.AppendRow({Value(kTwo53 + 1), Value(int64_t{1})}).ok());
  EXPECT_TRUE(t.AppendRow({Value(kTwo53), Value(int64_t{2})}).ok());
  return t;
}

TEST(ThetaJoinTest, ConstantAtomExactBeyondTwo53) {
  Table t = TwoRowsBeyondTwo53();
  auto dc = ParseConstraint("dc: !(t1.a > 9007199254740992 & t1.b < t2.b)",
                            "t", t.schema())
                .ValueOrDie();
  ThetaJoinDetector detector(&t, &dc, 4);
  detector.set_pruning_enabled(false);
  ASSERT_EQ(oracle::ViolatingPairs(t, dc).size(), 1u);
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));
}

TEST(ThetaJoinTest, PruningExactBeyondTwo53) {
  Table t = TwoRowsBeyondTwo53();
  auto dc = ParseConstraint("dc: !(t1.a > t2.a & t1.b < t2.b)", "t",
                            t.schema())
                .ValueOrDie();
  ThetaJoinDetector detector(&t, &dc, 1);
  ASSERT_EQ(oracle::ViolatingPairs(t, dc).size(), 1u);
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));
}

// int 2^53+1, int 2^53 and double 2^53 as an FD's left-hand side: Equals
// is exact, so int 2^53 and double 2^53 form one group and int 2^53+1 its
// own, ordered by Compare, in every row order.
TEST(FdDetectorTest, MixedIntDoubleKeysGroupExactlyInAnyOrder) {
  const std::vector<Value> keys = {Value(kTwo53 + 1), Value(kTwo53),
                                   Value(static_cast<double>(kTwo53))};
  const Schema schema({{"k", ValueType::kDouble}, {"v", ValueType::kString}});
  auto dc = ParseConstraint("FD k -> v", "t", schema).ValueOrDie();
  std::vector<size_t> perm = {0, 1, 2};
  do {
    SCOPED_TRACE("order " + std::to_string(perm[0]) +
                 std::to_string(perm[1]) + std::to_string(perm[2]));
    Table t("t", schema);
    for (size_t k : perm) {
      ASSERT_TRUE(t.AppendRow({keys[k], Value("v" + std::to_string(k))}).ok());
    }
    // The key index each group holds, in group order.
    auto key_sets = [&](const std::vector<FdGroup>& groups) {
      std::vector<std::set<size_t>> out;
      for (const FdGroup& g : groups) {
        std::set<size_t> ks;
        for (RowId r : g.rows) ks.insert(perm[r]);
        out.push_back(ks);
      }
      return out;
    };
    const std::vector<FdGroup> all =
        DetectFdViolations(t, dc, t.AllRowIds(), /*include_clean=*/true);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_LT(all[0].lhs_key[0].Compare(all[1].lhs_key[0]), 0);
    EXPECT_EQ(key_sets(all),
              (std::vector<std::set<size_t>>{{1, 2}, {0}}));
    const std::vector<FdGroup> violating =
        DetectFdViolations(t, dc, t.AllRowIds());
    EXPECT_EQ(key_sets(violating), (std::vector<std::set<size_t>>{{1, 2}}));
    // Every row finds its own group by its key.
    const GroupMap groups = GroupAllRowsBy(t, {0});
    ASSERT_EQ(groups.size(), 2u);
    for (RowId r = 0; r < t.num_rows(); ++r) {
      const auto it = groups.find(MakeGroupKey(t, r, {0}));
      ASSERT_NE(it, groups.end());
      EXPECT_EQ(it->second.size(), perm[r] == 0 ? 1u : 2u);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// Property: DetectAll and batched DetectIncremental equal the oracle on
// int columns mixing small values with neighbours of 2^53, a double column
// where such ints meet doubles, and a string column under order atoms,
// for random partition counts, with and without pruning.
TEST(ThetaJoinTest, MatchesOracleNearTwo53AcrossSeeds) {
  const std::string kTwo53Text = std::to_string(kTwo53);
  const std::vector<std::string> kRules = {
      "!(t1.a > t2.a & t1.b < t2.b)",
      "!(t1.a >= t2.a & t1.b != t2.b)",
      "!(t1.a > " + kTwo53Text + " & t1.b < t2.b)",
      "!(t1.a <= t2.b & t1.s > t2.s)",
      "!(t1.s < t2.s & t1.a > t2.a)",
      "!(t1.a != t2.a & t1.b == t2.b)",
      "!(t1.d < t2.d & t1.b > t2.b)",
      "!(t1.d == 9007199254740992.0 & t1.a < t2.a)",
      "!(t1.a < t2.d & t1.d >= " + kTwo53Text + ")",
  };
  const Schema schema({{"a", ValueType::kInt},
                       {"b", ValueType::kInt},
                       {"s", ValueType::kString},
                       {"d", ValueType::kDouble}});
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed);
    auto some_int = [&]() {
      return Value(rng.Bernoulli(0.5) ? kTwo53 + rng.UniformInt(-2, 2)
                                      : rng.UniformInt(0, 5));
    };
    Table t("t", schema);
    const int64_t n = rng.UniformInt(2, 24);
    for (int64_t i = 0; i < n; ++i) {
      const char letter = static_cast<char>('a' + rng.UniformInt(0, 4));
      const Value s =
          rng.Bernoulli(0.1) ? Value::Null() : Value(std::string(1, letter));
      const Value d = rng.Bernoulli(0.5)
                          ? some_int()
                          : Value(static_cast<double>(kTwo53) +
                                  2.0 * static_cast<double>(
                                            rng.UniformInt(-1, 1)));
      ASSERT_TRUE(t.AppendRow({some_int(), some_int(), s, d}).ok());
    }
    const std::string& rule = kRules[seed % kRules.size()];
    auto dc = ParseConstraint("dc: " + rule, "t", schema).ValueOrDie();
    const size_t partitions = static_cast<size_t>(rng.UniformInt(1, 6));
    const bool pruning = rng.Bernoulli(0.7);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + rule +
                 " p=" + std::to_string(partitions) +
                 (pruning ? " pruned" : " unpruned"));
    const auto expected = oracle::ViolatingPairs(t, dc);

    ThetaJoinDetector all(&t, &dc, partitions);
    all.set_pruning_enabled(pruning);
    EXPECT_EQ(AsSet(all.DetectAll()), expected);

    ThetaJoinDetector batched(&t, &dc, partitions);
    batched.set_pruning_enabled(pruning);
    std::set<std::pair<RowId, RowId>> found;
    const RowId half = static_cast<RowId>(n / 2);
    std::vector<RowId> first, second;
    for (RowId r = 0; r < static_cast<RowId>(n); ++r) {
      (r < half ? first : second).push_back(r);
    }
    for (const auto* batch : {&first, &second}) {
      for (const ViolationPair& v : batched.DetectIncremental(*batch)) {
        found.insert({v.t1, v.t2});
      }
    }
    EXPECT_EQ(found, expected);
  }
}

// Property sweep: DetectAll == brute force across sizes, seeds, partitions.
struct ThetaParam {
  size_t n;
  uint64_t seed;
  size_t partitions;
  double errors;
};

class ThetaJoinPropertyTest : public ::testing::TestWithParam<ThetaParam> {};

TEST_P(ThetaJoinPropertyTest, MatchesBruteForce) {
  const ThetaParam p = GetParam();
  Table t = RandomSalaryTable(p.n, p.seed, p.errors);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, p.partitions);
  EXPECT_EQ(AsSet(detector.DetectAll()), oracle::ViolatingPairs(t, dc));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThetaJoinPropertyTest,
    ::testing::Values(ThetaParam{1, 1, 4, 0.5}, ThetaParam{2, 2, 4, 0.5},
                      ThetaParam{10, 3, 1, 0.3}, ThetaParam{25, 4, 5, 0.2},
                      ThetaParam{50, 5, 7, 0.1}, ThetaParam{50, 6, 64, 0.4},
                      ThetaParam{33, 7, 8, 0.0}, ThetaParam{77, 8, 16, 0.25}));

// Property sweep: incremental detection over random batches finds every
// violation touching the batches.
class ThetaIncrementalPropertyTest
    : public ::testing::TestWithParam<ThetaParam> {};

TEST_P(ThetaIncrementalPropertyTest, BatchesCoverTouchingViolations) {
  const ThetaParam p = GetParam();
  Table t = RandomSalaryTable(p.n, p.seed, p.errors);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, p.partitions);
  Rng rng(p.seed + 99);
  std::set<std::pair<RowId, RowId>> found;
  std::set<RowId> touched;
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<size_t> rows = rng.SampleWithoutReplacement(
        p.n, std::max<size_t>(1, p.n / 4));
    std::sort(rows.begin(), rows.end());
    for (RowId r : rows) touched.insert(r);
    for (const ViolationPair& v : detector.DetectIncremental(rows)) {
      found.insert({v.t1, v.t2});
    }
  }
  for (const auto& pair : oracle::ViolatingPairs(t, dc)) {
    if (touched.count(pair.first) || touched.count(pair.second)) {
      EXPECT_TRUE(found.count(pair) > 0)
          << "missing (" << pair.first << "," << pair.second << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThetaIncrementalPropertyTest,
    ::testing::Values(ThetaParam{20, 11, 4, 0.3}, ThetaParam{40, 12, 8, 0.2},
                      ThetaParam{60, 13, 6, 0.15},
                      ThetaParam{30, 14, 16, 0.5}));

// ------------------------------------------------------- order sweep --

// DetectAll's order sweep (two same-column cross-tuple order atoms) against
// the unpruned partitioned theta join, the oracle that never sweeps.

std::vector<ViolationPair> Sorted(std::vector<ViolationPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Value RandomCell(Rng* rng, ValueType type, bool with_nulls) {
  if (with_nulls && rng->Bernoulli(0.1)) return Value::Null();
  switch (type) {
    case ValueType::kInt:
      return Value(rng->UniformInt(0, 5));  // few values: many ties
    case ValueType::kDouble:
      return Value(0.5 * static_cast<double>(rng->UniformInt(0, 12)));
    default: {
      std::string s(1, static_cast<char>('a' + rng->UniformInt(0, 4)));
      if (rng->Bernoulli(0.5)) s += static_cast<char>('a' + rng->UniformInt(0, 4));
      return Value(s);
    }
  }
}

std::vector<std::vector<Value>> RandomXyRows(Rng* rng, size_t n,
                                             const Schema& schema,
                                             bool with_nulls) {
  std::vector<std::vector<Value>> rows(n);
  for (auto& row : rows) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      row.push_back(RandomCell(rng, schema.column(c).type, with_nulls));
    }
  }
  return rows;
}

std::vector<RowId> RandomLiveRows(Rng* rng, const Table& t, double p) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (t.is_live(r) && rng->Bernoulli(p)) rows.push_back(r);
  }
  return rows;
}

TEST(OrderSweepTest, MatchesUnprunedThetaJoinAcrossSeeds) {
  const char* kOps[] = {"<", "<=", ">", ">="};
  const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                              ValueType::kString};
  for (uint64_t seed = 0; seed < 128; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 1);
    const Schema schema({{"x", kTypes[seed % 3]},
                         {"y", kTypes[(seed / 3) % 3]}});
    // All 16 (opX, opY) combinations, with atoms written in either tuple
    // orientation and either order.
    const std::string x_op = kOps[seed % 4];
    const std::string y_op = kOps[(seed / 4) % 4];
    const std::string x_atom = (seed / 16) % 2 == 0
                                   ? "t1.x " + x_op + " t2.x"
                                   : "t2.x " + std::string(kOps[(seed % 4) ^ 2]) +
                                         " t1.x";
    const std::string y_atom = "t1.y " + y_op + " t2.y";
    const std::string text =
        (seed / 32) % 2 == 0 ? "dc: !(" + x_atom + " & " + y_atom + ")"
                             : "dc: !(" + y_atom + " & " + x_atom + ")";
    SCOPED_TRACE(text);
    DenialConstraint dc = ParseConstraint(text, "xy", schema).ValueOrDie();
    const bool with_nulls = seed % 5 == 0;

    Table t("xy", schema);
    ASSERT_TRUE(t.AppendRows(RandomXyRows(&rng, 20 + rng.UniformInt(0, 20),
                                          schema, with_nulls))
                    .ok());
    ThetaJoinDetector sweep(&t, &dc, 4);
    ThetaJoinDetector oracle_join(&t, &dc, 4);
    oracle_join.set_pruning_enabled(false);

    auto apply = [&](const TableDelta& delta) {
      EXPECT_EQ(sweep.ApplyDelta(delta), oracle_join.ApplyDelta(delta));
    };
    auto detect_all = [&]() {
      EXPECT_EQ(Sorted(sweep.DetectAll()), Sorted(oracle_join.DetectAll()));
      EXPECT_EQ(sweep.maintained_violations(),
                oracle_join.maintained_violations());
      EXPECT_TRUE(sweep.FullyChecked());
    };

    // Partial coverage: a query-sized DetectIncremental first.
    if (rng.Bernoulli(0.5)) {
      const std::vector<RowId> result = RandomLiveRows(&rng, t, 0.3);
      EXPECT_EQ(Sorted(sweep.DetectIncremental(result)),
                Sorted(oracle_join.DetectIncremental(result)));
    }
    // Interleaved appends and deletes, drained by the next DetectAll.
    for (int round = 0; round < 2; ++round) {
      if (rng.Bernoulli(0.7)) {
        apply(t.AppendRows(RandomXyRows(&rng, rng.UniformInt(1, 8), schema,
                                        with_nulls))
                  .ValueOrDie());
      }
      if (rng.Bernoulli(0.5)) {
        apply(t.DeleteRows(RandomLiveRows(&rng, t, 0.1)).ValueOrDie());
      }
      if (rng.Bernoulli(0.3)) {
        const std::vector<RowId> result = RandomLiveRows(&rng, t, 0.2);
        EXPECT_EQ(Sorted(sweep.DetectIncremental(result)),
                  Sorted(oracle_join.DetectIncremental(result)));
      }
      detect_all();
    }
    EXPECT_EQ(AsSet(sweep.maintained_violations()),
              oracle::ViolatingPairs(t, dc));
  }
}

// The sweep's pairs_checked is one per reported pair, for any thread count,
// on top of the theta-join count of a drain it runs first.
TEST(OrderSweepTest, CountsOnePairPerReportedViolation) {
  Schema schema = SalarySchema();
  Table t("emp", schema);
  // Monotone taxes except row 2 (overtaxed) and row 4 (undertaxed):
  // violations (0,4), (1,4), (2,3), (2,4), (3,4), t1 the lower salary.
  const double rows[][2] = {{1000, 0.10}, {2000, 0.20}, {3000, 0.90},
                            {4000, 0.40}, {5000, 0.05}};
  for (const auto& r : rows) {
    ASSERT_TRUE(t.AppendRow({Value(r[0]), Value(r[1])}).ok());
  }
  DenialConstraint dc = SalaryDc(schema);
  for (size_t threads : {1u, 4u}) {
    ThetaJoinDetector detector(&t, &dc, 2, threads);
    const std::vector<ViolationPair> found = detector.DetectAll();
    EXPECT_EQ(AsSet(found), oracle::ViolatingPairs(t, dc));
    EXPECT_EQ(found.size(), 5u);
    EXPECT_EQ(detector.pairs_checked(), 5u) << threads << " threads";
  }

  // A DetectAll that drains an un-integrated append pays the drain's
  // theta-join pairs (new x old, pruning may skip some) plus one per pair
  // the sweep reports among the rows left unchecked.
  Table u = RandomSalaryTable(40, 71, 0.3);
  ThetaJoinDetector detector(&u, &dc, 4);
  ThetaJoinDetector drain_only(&u, &dc, 4);
  std::vector<RowId> half;
  for (RowId r = 0; r < 20; ++r) half.push_back(r);
  (void)detector.DetectIncremental(half);
  (void)drain_only.DetectIncremental(half);
  const TableDelta delta =
      u.AppendRows({{Value(5000.0), Value(0.9)}}).ValueOrDie();
  (void)detector.ApplyDelta(delta);
  (void)drain_only.ApplyDelta(delta);
  const std::vector<ViolationPair> drained = drain_only.DetectDelta(delta);
  const size_t drain_pairs = drain_only.pairs_checked();
  const std::vector<ViolationPair> all = detector.DetectAll();
  EXPECT_EQ(detector.pairs_checked(),
            drain_pairs + (all.size() - drained.size()));
  EXPECT_EQ(AsSet(detector.maintained_violations()),
            oracle::ViolatingPairs(u, dc));
}

// Shapes the sweep does not take keep the partition matrix: a third atom,
// a cross-column atom, or disabled pruning all count candidate pairs.
TEST(OrderSweepTest, OtherShapesKeepThePartitionMatrix) {
  Schema schema({{"salary", ValueType::kDouble},
                 {"tax", ValueType::kDouble},
                 {"bonus", ValueType::kDouble}});
  Table t("emp", schema);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformDouble(0, 10)),
                             Value(rng.UniformDouble(0, 10)),
                             Value(rng.UniformDouble(0, 10))})
                    .ok());
  }
  for (const char* text :
       {"dc: !(t1.salary < t2.salary & t1.tax > t2.tax & t1.bonus < t2.bonus)",
        "dc: !(t1.salary < t2.tax & t1.tax > t2.tax)"}) {
    DenialConstraint dc = ParseConstraint(text, "emp", schema).ValueOrDie();
    ThetaJoinDetector pruned(&t, &dc, 1);  // one partition: nothing pruned
    const auto found = pruned.DetectAll();
    EXPECT_EQ(AsSet(found), oracle::ViolatingPairs(t, dc)) << text;
    EXPECT_EQ(pruned.pairs_checked(), 30u * 29u / 2u) << text;
  }
  DenialConstraint dc = ParseConstraint(
      "dc: !(t1.salary < t2.salary & t1.tax > t2.tax)", "emp", schema)
                            .ValueOrDie();
  ThetaJoinDetector unpruned(&t, &dc, 4);
  unpruned.set_pruning_enabled(false);
  (void)unpruned.DetectAll();
  EXPECT_EQ(unpruned.pairs_checked(), 30u * 29u / 2u);
}

}  // namespace
}  // namespace daisy
