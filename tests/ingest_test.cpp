// Unit tests for the incremental ingest layer: the transactional Table
// batch-update API, O(delta) write-through ColumnCache extension (appends
// keep the cache, original edits replace it), delta-aware theta-join
// detection, the delta-maintained FD group state, and relaxation-index
// maintenance.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "clean/statistics.h"
#include "common/rng.h"
#include "detect/fd_delta.h"
#include "detect/fd_detector.h"
#include "detect/theta_join.h"
#include "eval_oracle.h"
#include "relax/relaxation.h"
#include "repair/provenance.h"
#include "storage/column_cache.h"
#include "storage/database.h"
#include "storage/table.h"

namespace daisy {
namespace {

Schema SalarySchema() {
  return Schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
}

DenialConstraint SalaryDc(const Schema& schema) {
  return ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                         "emp", schema)
      .ValueOrDie();
}

Table RandomSalaryTable(size_t n, uint64_t seed, double error_fraction) {
  Rng rng(seed);
  Table t("emp", SalarySchema());
  for (size_t i = 0; i < n; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    EXPECT_TRUE(t.AppendRow({Value(salary), Value(tax)}).ok());
  }
  return t;
}

std::vector<std::vector<Value>> RandomSalaryBatch(size_t n, uint64_t seed,
                                                  double error_fraction) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < n; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    rows.push_back({Value(salary), Value(tax)});
  }
  return rows;
}

std::set<std::pair<RowId, RowId>> AsSet(const std::vector<ViolationPair>& v) {
  std::set<std::pair<RowId, RowId>> out;
  for (const ViolationPair& p : v) out.insert({p.t1, p.t2});
  return out;
}

// ------------------------------------------------------ Table batch API --

TEST(TableIngestTest, AppendRowsReturnsContiguousDelta) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(0.1)}).ok());
  const uint64_t gen0 = t.delta_generation();
  auto delta = t.AppendRows({{Value(2.0), Value(0.2)}, {Value(3.0), Value(0.3)}})
                   .ValueOrDie();
  EXPECT_EQ(delta.appended, (std::vector<RowId>{1, 2}));
  EXPECT_TRUE(delta.deleted.empty());
  EXPECT_EQ(delta.generation, gen0 + 1);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_live_rows(), 3u);
}

TEST(TableIngestTest, AppendRowsIsAllOrNothing) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(0.1)}).ok());
  const uint64_t gen0 = t.delta_generation();
  // Second row has a type error: nothing of the batch may land.
  auto result = t.AppendRows({{Value(2.0), Value(0.2)}, {Value("x"), Value(0.3)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.delta_generation(), gen0);
  // Arity mismatch too.
  EXPECT_FALSE(t.AppendRows({{Value(2.0)}}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableIngestTest, AppendRowsRejectsNanAndLeavesTableUntouched) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(0.1)}).ok());
  const ColumnCache::Column& col = t.columns().column(1);
  const uint64_t gen0 = t.delta_generation();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      t.AppendRows({{Value(2.0), Value(0.2)}, {Value(3.0), Value(nan)}}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.delta_generation(), gen0);
  EXPECT_EQ(col.num.size(), 1u);
  EXPECT_FALSE(t.AppendRow({Value(nan), Value(0.3)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableIngestTest, DeleteRowsTombstonesAndValidates) {
  Table t = RandomSalaryTable(6, 3, 0.0);
  auto delta = t.DeleteRows({4, 1}).ValueOrDie();
  EXPECT_EQ(delta.deleted, (std::vector<RowId>{1, 4}));  // sorted
  EXPECT_EQ(t.num_rows(), 6u);      // ids stay stable
  EXPECT_EQ(t.num_live_rows(), 4u);
  EXPECT_FALSE(t.is_live(1));
  EXPECT_TRUE(t.is_live(2));
  EXPECT_EQ(t.AllRowIds(), (std::vector<RowId>{0, 2, 3, 5}));
  EXPECT_EQ(t.deleted_rows_log(), (std::vector<RowId>{1, 4}));

  EXPECT_FALSE(t.DeleteRows({1}).ok());    // already deleted
  EXPECT_FALSE(t.DeleteRows({99}).ok());   // out of range
  EXPECT_FALSE(t.DeleteRows({2, 2}).ok()); // duplicate in batch
  EXPECT_EQ(t.num_live_rows(), 4u);        // failed batches change nothing
}

TEST(TableIngestTest, DeletedRowsLeaveAggregates) {
  Table t = RandomSalaryTable(4, 5, 0.0);
  t.SetCandidates(1, 1, {{Value(0.5), 1.0, 0, CandidateKind::kPoint}});
  EXPECT_EQ(t.CountProbabilisticCells(), 1u);
  ASSERT_TRUE(t.DeleteRows({1}).ok());
  EXPECT_EQ(t.CountProbabilisticCells(), 0u);
}

// ------------------------------------------ ColumnCache identity split --

// Regression for the version-bookkeeping conflation: appending rows must
// extend the projections in place (same cache, so detectors keep their
// incremental coverage), while an in-place edit of an original value must
// replace the cache.
TEST(ColumnCacheDeltaTest, AppendKeepsCacheIdentity) {
  Table t = RandomSalaryTable(20, 7, 0.2);
  const uint64_t id = t.columns().id();
  (void)t.columns().column(0);
  ASSERT_TRUE(t.AppendRows(RandomSalaryBatch(5, 8, 0.2)).ok());
  EXPECT_EQ(t.columns().id(), id);
  EXPECT_EQ(t.columns().column(0).num.size(), 25u);
  // An original-value edit still invalidates.
  t.mutable_cell(0, 0) = Cell(Value(123.0));
  EXPECT_NE(t.columns().id(), id);
  EXPECT_EQ(t.columns().column(0).num[0], 123.0);
}

TEST(ColumnCacheDeltaTest, CandidateRepairPlusAppendKeepsCacheIdentity) {
  // Regression for the version-conflation bug the differential harness
  // caught: a candidate-only repair interleaved with an append once forced
  // a full rebuild that read as a data change — spuriously resetting
  // detector coverage. Candidate writes and appends keep the cache.
  Table t = RandomSalaryTable(20, 9, 0.2);
  const uint64_t id = t.columns().id();
  (void)t.columns().column(1);
  t.SetCandidates(0, 1, {{Value(0.7), 1.0, 0, CandidateKind::kPoint}});
  ASSERT_TRUE(t.AppendRows(RandomSalaryBatch(5, 10, 0.2)).ok());
  EXPECT_EQ(t.columns().id(), id);
  // The same interleaving with an original-value edit still invalidates.
  t.mutable_cell(0, 1) = Cell(Value(0.9));
  ASSERT_TRUE(t.AppendRows(RandomSalaryBatch(2, 11, 0.2)).ok());
  EXPECT_NE(t.columns().id(), id);
}

TEST(ColumnCacheDeltaTest, ExtensionMatchesFullRebuild) {
  // Build incrementally (base + 3 extensions) and from scratch; every
  // projection must be bit-identical — including when the delta introduces
  // new distinct values that land in the middle of the rank order.
  Schema schema({{"x", ValueType::kInt}, {"s", ValueType::kString}});
  auto row = [](int64_t x, const char* s) {
    return std::vector<Value>{Value(x), s == nullptr ? Value::Null()
                                                     : Value(s)};
  };
  std::vector<std::vector<Value>> all = {
      row(5, "mm"), row(1, "zz"), row(5, "aa"), row(3, nullptr),
      row(2, "mm"), row(4, "bb"), row(1, "zz"), row(9, "ca"),
  };
  Table inc("t", schema);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(inc.AppendRow(all[i]).ok());
  (void)inc.columns().column(0);
  (void)inc.columns().column(1);
  ASSERT_TRUE(inc.AppendRows({all[3], all[4]}).ok());
  (void)inc.columns().column(0);  // extend mid-way
  (void)inc.columns().column(1);
  ASSERT_TRUE(inc.AppendRows({all[5], all[6], all[7]}).ok());

  Table scratch("t", schema);
  for (const auto& r : all) ASSERT_TRUE(scratch.AppendRow(r).ok());

  for (size_t c = 0; c < 2; ++c) {
    const ColumnCache::Column& a = inc.columns().column(c);
    const ColumnCache::Column& b = scratch.columns().column(c);
    EXPECT_EQ(a.num, b.num) << "col " << c;
    EXPECT_EQ(a.codes, b.codes) << "col " << c;
    EXPECT_EQ(a.ranks, b.ranks) << "col " << c;
    EXPECT_EQ(a.nulls, b.nulls) << "col " << c;
    EXPECT_EQ(a.dict, b.dict) << "col " << c;
    EXPECT_EQ(a.sorted_distinct, b.sorted_distinct) << "col " << c;
    EXPECT_EQ(a.sorted_rows, b.sorted_rows) << "col " << c;
    EXPECT_EQ(a.sorted_num, b.sorted_num) << "col " << c;
    EXPECT_EQ(a.numeric_only, b.numeric_only) << "col " << c;
    EXPECT_EQ(a.has_nulls, b.has_nulls) << "col " << c;
  }
}

// ------------------------------------------------ theta-join DetectDelta --

TEST(ThetaDeltaTest, DeltaDetectionMatchesFromScratch) {
  Table t = RandomSalaryTable(60, 11, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  (void)detector.DetectAll();
  auto delta = t.AppendRows(RandomSalaryBatch(15, 12, 0.2)).ValueOrDie();
  EXPECT_EQ(detector.ApplyDelta(delta), 0u);  // appends retract nothing
  EXPECT_FALSE(detector.FullyChecked());
  (void)detector.DetectDelta(delta);
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(AsSet(detector.maintained_violations()),
            oracle::ViolatingPairs(t, dc));

  ThetaJoinDetector scratch(&t, &dc, 8);
  auto full = scratch.DetectAll();
  std::sort(full.begin(), full.end());
  EXPECT_EQ(detector.maintained_violations(), full);
}

// Regression pinning the exactly-once pair accounting across a delta: a
// fully-checked base of n rows plus a batch of d pays n*d + d*(d-1)/2
// comparisons, and a following DetectAll pays zero.
TEST(ThetaDeltaTest, DeltaChecksEachPairExactlyOnce) {
  const size_t n = 40, d = 7;
  Table t = RandomSalaryTable(n, 13, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  detector.set_pruning_enabled(false);
  (void)detector.DetectAll();
  auto delta = t.AppendRows(RandomSalaryBatch(d, 14, 0.3)).ValueOrDie();
  (void)detector.ApplyDelta(delta);
  (void)detector.DetectDelta(delta);
  EXPECT_EQ(detector.pairs_checked(), n * d + d * (d - 1) / 2);
  // Re-feeding the same delta is a no-op (its rows are checked).
  EXPECT_TRUE(detector.DetectDelta(delta).empty());
  EXPECT_EQ(detector.pairs_checked(), 0u);
  (void)detector.DetectAll();
  EXPECT_EQ(detector.pairs_checked(), 0u);
}

TEST(ThetaDeltaTest, SequentialDeltasStayExact) {
  Table t = RandomSalaryTable(30, 17, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  (void)detector.DetectAll();
  for (uint64_t step = 0; step < 4; ++step) {
    auto delta =
        t.AppendRows(RandomSalaryBatch(5 + step, 18 + step, 0.25)).ValueOrDie();
    (void)detector.ApplyDelta(delta);
    (void)detector.DetectDelta(delta);
    EXPECT_EQ(AsSet(detector.maintained_violations()),
              oracle::ViolatingPairs(t, dc))
        << "after delta " << step;
  }
  EXPECT_TRUE(detector.FullyChecked());
}

TEST(ThetaDeltaTest, DeletePrunesMaintainedViolations) {
  Table t = RandomSalaryTable(50, 19, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  (void)detector.DetectAll();
  ASSERT_FALSE(detector.maintained_violations().empty());
  // Delete a few rows that participate in violations.
  std::vector<RowId> victims = {detector.maintained_violations()[0].t1,
                                detector.maintained_violations()[0].t2};
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  const size_t before = detector.maintained_violations().size();
  auto delta = t.DeleteRows(victims).ValueOrDie();
  const size_t retracted = detector.ApplyDelta(delta);
  EXPECT_GT(retracted, 0u);
  EXPECT_EQ(detector.maintained_violations().size(), before - retracted);
  EXPECT_EQ(AsSet(detector.maintained_violations()),
            oracle::ViolatingPairs(t, dc));
  EXPECT_TRUE(detector.FullyChecked());  // tombstones need no checking
  // Detection after the delete never visits the tombstones.
  EXPECT_TRUE(detector.DetectAll().empty());
}

TEST(ThetaDeltaTest, DeltaMatchesOracle) {
  Table t = RandomSalaryTable(40, 23, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector columnar(&t, &dc, 8);
  const auto before = oracle::ViolatingPairs(t, dc);
  EXPECT_EQ(AsSet(columnar.DetectAll()), before);
  auto delta = t.AppendRows(RandomSalaryBatch(10, 24, 0.25)).ValueOrDie();
  (void)columnar.ApplyDelta(delta);
  // The delta pass reports exactly the pairs the append introduced.
  std::set<std::pair<RowId, RowId>> added;
  for (const auto& pair : oracle::ViolatingPairs(t, dc)) {
    if (before.count(pair) == 0) added.insert(pair);
  }
  EXPECT_EQ(AsSet(columnar.DetectDelta(delta)), added);
  EXPECT_EQ(AsSet(columnar.maintained_violations()),
            oracle::ViolatingPairs(t, dc));
}

TEST(ThetaDeltaTest, AppliedAppendsIntegrateOnNextDetect) {
  // Regression: applied appends no DetectDelta paid for must not silently
  // lose new-vs-checked-row coverage — the next DetectAll /
  // DetectIncremental integrates them first.
  Table t = RandomSalaryTable(40, 47, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  (void)detector.DetectAll();
  ASSERT_TRUE(detector.FullyChecked());
  // A conflicting row against the checked base: low salary, huge tax.
  auto delta = t.AppendRows({{Value(1500.0), Value(0.99)}}).ValueOrDie();
  (void)detector.ApplyDelta(delta);
  EXPECT_FALSE(detector.FullyChecked());
  auto found = AsSet(detector.DetectAll());
  EXPECT_TRUE(detector.FullyChecked());
  for (const auto& pair : oracle::ViolatingPairs(t, dc)) {
    const bool touches_new = pair.first == 40 || pair.second == 40;
    if (touches_new) {
      EXPECT_TRUE(found.count(pair) > 0)
          << "missing (" << pair.first << "," << pair.second << ")";
    }
  }
  EXPECT_EQ(AsSet(detector.maintained_violations()),
            oracle::ViolatingPairs(t, dc));
  // DetectIncremental drains applied appends too.
  delta = t.AppendRows({{Value(1600.0), Value(0.98)}}).ValueOrDie();
  (void)detector.ApplyDelta(delta);
  (void)detector.DetectIncremental({0, 1, 2});
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(AsSet(detector.maintained_violations()),
            oracle::ViolatingPairs(t, dc));
}

TEST(ThetaDeltaTest, DeltaInterleavedWithIncrementalQueries) {
  Table t = RandomSalaryTable(40, 29, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::vector<RowId> first_half;
  for (RowId r = 0; r < 20; ++r) first_half.push_back(r);
  (void)detector.DetectIncremental(first_half);
  auto delta = t.AppendRows(RandomSalaryBatch(8, 30, 0.25)).ValueOrDie();
  (void)detector.ApplyDelta(delta);
  (void)detector.DetectDelta(delta);  // new rows checked vs ALL old rows
  std::vector<RowId> second_half;
  for (RowId r = 20; r < 40; ++r) second_half.push_back(r);
  (void)detector.DetectIncremental(second_half);
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(AsSet(detector.maintained_violations()),
            oracle::ViolatingPairs(t, dc));
}

// --------------------------------------------------------- FD delta state --

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

bool SameGroups(const std::vector<FdGroup>& a, const std::vector<FdGroup>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(GroupKeyEq()(a[i].lhs_key, b[i].lhs_key))) return false;
    if (a[i].rows != b[i].rows) return false;
    if (a[i].rhs_histogram != b[i].rhs_histogram) return false;
  }
  return true;
}

TEST(FdDeltaTest, MaintainedGroupsMatchFromScratch) {
  Rng rng(31);
  Table t("cities", CitySchema());
  auto random_row = [&]() {
    return std::vector<Value>{
        Value(rng.UniformInt(0, 8)),
        Value("c" + std::to_string(rng.UniformInt(0, 4)))};
  };
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(t.AppendRow(random_row()).ok());
  DenialConstraint fd =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
          .ValueOrDie();
  FdDeltaDetector detector(&t, &fd);
  for (int step = 0; step < 6; ++step) {
    TableDelta delta;
    if (step % 2 == 0) {
      std::vector<std::vector<Value>> batch;
      for (int i = 0; i <= step; ++i) batch.push_back(random_row());
      delta = t.AppendRows(std::move(batch)).ValueOrDie();
    } else {
      std::vector<RowId> live = t.AllRowIds();
      std::vector<RowId> victims = {
          live[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(live.size()) - 1))]};
      delta = t.DeleteRows(victims).ValueOrDie();
    }
    (void)detector.ApplyDelta(delta, nullptr);
    EXPECT_TRUE(SameGroups(detector.ViolatingGroups(),
                           DetectFdViolations(t, fd, t.AllRowIds(), false)))
        << "step " << step;
    EXPECT_TRUE(
        SameGroups(detector.ViolatingGroups(true),
                   DetectFdViolations(t, fd, t.AllRowIds(), true)))
        << "step " << step;
  }
}

TEST(FdDeltaTest, StatsPatchMatchesRecompute) {
  Rng rng(37);
  Database db;
  Table t("cities", CitySchema());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 9)),
                             Value("c" + std::to_string(rng.UniformInt(0, 3)))})
                    .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  Table* table = db.GetTable("cities").ValueOrDie();
  ConstraintSet rules;
  ASSERT_TRUE(
      rules.AddFromText("phi: FD zip -> city", "cities", CitySchema()).ok());
  Statistics maintained;
  ASSERT_TRUE(maintained.Compute(db, rules).ok());
  FdDeltaDetector detector(table, &rules.at(0));

  for (int step = 0; step < 8; ++step) {
    TableDelta delta;
    if (rng.Bernoulli(0.5)) {
      delta = table
                  ->AppendRows({{Value(rng.UniformInt(0, 9)),
                                 Value("c" + std::to_string(
                                            rng.UniformInt(0, 3)))}})
                  .ValueOrDie();
    } else {
      std::vector<RowId> live = table->AllRowIds();
      delta = table
                  ->DeleteRows({live[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(live.size()) - 1))]})
                  .ValueOrDie();
    }
    (void)detector.ApplyDelta(delta, maintained.MutableForRule("phi"));

    Statistics fresh;
    ASSERT_TRUE(fresh.Compute(db, rules).ok());
    const FdRuleStats* m = maintained.ForRule("phi");
    const FdRuleStats* f = fresh.ForRule("phi");
    ASSERT_NE(m, nullptr);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(m->table_rows, f->table_rows) << "step " << step;
    EXPECT_EQ(m->num_violating_rows, f->num_violating_rows) << "step " << step;
    EXPECT_EQ(m->num_violating_groups, f->num_violating_groups)
        << "step " << step;
    EXPECT_DOUBLE_EQ(m->avg_candidates, f->avg_candidates) << "step " << step;
    EXPECT_EQ(m->dirty_lhs_keys, f->dirty_lhs_keys) << "step " << step;
    EXPECT_EQ(m->dirty_rhs_vals, f->dirty_rhs_vals) << "step " << step;
  }
}

// ------------------------------------------------------ relaxation index --

TEST(RelaxDeltaTest, MaintainedIndexMatchesFreshBuild) {
  Rng rng(41);
  Table t("cities", CitySchema());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 5)),
                             Value("c" + std::to_string(rng.UniformInt(0, 3)))})
                    .ok());
  }
  DenialConstraint fd =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
          .ValueOrDie();
  FdRelaxIndex maintained(t, fd.fd());
  auto d1 = t.AppendRows({{Value(2), Value("c9")}, {Value(7), Value("c0")}})
                .ValueOrDie();
  maintained.ApplyDelta(t, fd.fd(), d1);
  auto d2 = t.DeleteRows({3, 10}).ValueOrDie();
  maintained.ApplyDelta(t, fd.fd(), d2);

  FdRelaxIndex fresh(t, fd.fd());
  const std::vector<RowId> answer = {0, 5};
  RelaxResult a = maintained.Relax(t, fd.fd(), answer);
  RelaxResult b = fresh.Relax(t, fd.fd(), answer);
  EXPECT_EQ(a.extra, b.extra);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
}

// ----------------------------------------------------------- provenance --

TEST(ProvenanceDeltaTest, DropRowsForgetsDeletedRows) {
  Table t = RandomSalaryTable(4, 43, 0.0);
  ProvenanceStore store;
  RepairRecord rec;
  rec.rule = "phi";
  rec.sources.push_back({Value(0.5), 1.0, CandidateKind::kPoint});
  store.Record(&t, 1, 1, rec);
  store.Record(&t, 2, 0, rec);
  EXPECT_EQ(store.NumRepairedCells(), 2u);
  store.DropRows({1});
  EXPECT_EQ(store.NumRepairedCells(), 1u);
  EXPECT_FALSE(store.HasRecord(1, 1, "phi"));
  EXPECT_TRUE(store.HasRecord(2, 0, "phi"));
}

}  // namespace
}  // namespace daisy
