// Engine-level scenario and failure-injection tests: degenerate inputs,
// mixed rule sets, OR filters, provenance import, and idempotence.

#include <gtest/gtest.h>

#include "clean/daisy_engine.h"
#include "common/rng.h"
#include "offline/offline_cleaner.h"

namespace daisy {
namespace {

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

TEST(EngineScenarioTest, EmptyTable) {
  Database db;
  ASSERT_TRUE(db.AddTable(Table("cities", CitySchema())).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto report = engine.Query("SELECT * FROM cities WHERE zip = 1");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().output.result.num_rows(), 0u);
}

TEST(EngineScenarioTest, EntirelyCleanTable) {
  Database db;
  Table t("cities", CitySchema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i), Value("c" + std::to_string(i))}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto report =
      engine.Query("SELECT * FROM cities WHERE zip >= 10 AND zip <= 20")
          .ValueOrDie();
  EXPECT_EQ(report.errors_fixed, 0u);
  EXPECT_EQ(report.rules_pruned, 1u);  // statistics: no dirty group
  EXPECT_EQ(report.output.result.num_rows(), 11u);
  EXPECT_EQ(db.GetTable("cities").ValueOrDie()->CountProbabilisticCells(),
            0u);
}

TEST(EngineScenarioTest, AllRowsInOneViolatingGroup) {
  Database db;
  Table t("cities", CitySchema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(7), Value("c" + std::to_string(i % 5))}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto report = engine.Query("SELECT * FROM cities WHERE zip = 7")
                    .ValueOrDie();
  EXPECT_EQ(report.errors_fixed, 20u);
  const Table* cleaned = db.GetTable("cities").ValueOrDie();
  // Every tuple's city got the 5-candidate histogram.
  for (RowId r = 0; r < cleaned->num_rows(); ++r) {
    EXPECT_EQ(cleaned->cell(r, 1).candidates().size(), 5u);
  }
}

TEST(EngineScenarioTest, OrFilterQueries) {
  Database db;
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("c")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3), Value("d")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto report =
      engine.Query("SELECT * FROM cities WHERE zip = 1 OR city = 'd'")
          .ValueOrDie();
  EXPECT_EQ(report.output.result.num_rows(), 3u);
  EXPECT_GT(report.errors_fixed, 0u);
}

TEST(EngineScenarioTest, MixedFdAndDcRules) {
  Database db;
  Table t("emp", Schema({{"dept", ValueType::kInt},
                         {"grade", ValueType::kInt},
                         {"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble}}));
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const int64_t dept = rng.UniformInt(0, 9);
    const int64_t grade = rng.Bernoulli(0.1) ? rng.UniformInt(0, 5) : dept % 3;
    const double salary = rng.UniformDouble(1000, 9000);
    double tax = salary / 20000.0;
    if (rng.Bernoulli(0.05)) tax += 0.3;
    ASSERT_TRUE(
        t.AppendRow({Value(dept), Value(grade), Value(salary), Value(tax)})
            .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  const Schema& schema = db.GetTable("emp").ValueOrDie()->schema();
  ASSERT_TRUE(rules.AddFromText("fd: FD dept -> grade", "emp", schema).ok());
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", schema)
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  // A query touching all four attributes triggers both rules.
  auto report = engine.Query(
                          "SELECT dept, grade, salary, tax FROM emp "
                          "WHERE salary >= 2000 AND salary <= 6000")
                    .ValueOrDie();
  EXPECT_EQ(report.rules_applied, 2u);
  EXPECT_GT(report.errors_fixed, 0u);
}

TEST(EngineScenarioTest, CleanAllRemainingIsIdempotent) {
  Database db;
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  const Cell snapshot = db.GetTable("cities").ValueOrDie()->cell(0, 1);
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  EXPECT_EQ(db.GetTable("cities").ValueOrDie()->cell(0, 1), snapshot);
}

TEST(EngineScenarioTest, ImportProvenanceCarriesFixesAcrossSessions) {
  // Session 1 cleans rule phi over a shared database; session 2 (a fresh
  // engine knowing only psi) imports phi's fixes and adds its own — the
  // merged cells keep both rules' candidates.
  Database db;
  Table t("emp", Schema({{"a", ValueType::kInt},
                         {"b", ValueType::kInt},
                         {"x", ValueType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(1), Value(9), Value("p")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(8), Value("q")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value(8), Value("r")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  const Schema& schema = db.GetTable("emp").ValueOrDie()->schema();

  ProvenanceStore carried;
  {
    ConstraintSet rules;
    ASSERT_TRUE(rules.AddFromText("phi: FD a -> x", "emp", schema).ok());
    DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.CleanAllRemaining().ok());
    carried = *engine.provenance("emp");
  }
  // phi made row 0/1's x probabilistic {p, q}.
  ASSERT_TRUE(db.GetTable("emp").ValueOrDie()->cell(0, 2).is_probabilistic());
  {
    ConstraintSet rules;
    ASSERT_TRUE(rules.AddFromText("psi: FD b -> x", "emp", schema).ok());
    DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.ImportProvenance("emp", carried).ok());
    ASSERT_TRUE(engine.CleanAllRemaining().ok());
  }
  // Rows 1 and 2 share b=8 with different x: psi adds {q, r} candidates;
  // row 1's x now carries candidates from both rules.
  const Cell& x1 = db.GetTable("emp").ValueOrDie()->cell(1, 2);
  ASSERT_TRUE(x1.is_probabilistic());
  std::set<std::string> values;
  for (const Candidate& c : x1.candidates()) {
    values.insert(c.value.ToString());
  }
  EXPECT_TRUE(values.count("p"));  // from phi
  EXPECT_TRUE(values.count("q"));
  EXPECT_TRUE(values.count("r"));  // from psi
}

TEST(EngineScenarioTest, ImportProvenanceRequiresPrepare) {
  Database db;
  ASSERT_TRUE(db.AddTable(Table("cities", CitySchema())).ok());
  ConstraintSet rules;
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ProvenanceStore store;
  EXPECT_FALSE(engine.ImportProvenance("cities", store).ok());
}

TEST(EngineScenarioTest, UnknownTableInQueryFails) {
  Database db;
  ASSERT_TRUE(db.AddTable(Table("cities", CitySchema())).ok());
  ConstraintSet rules;
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_FALSE(engine.Query("SELECT * FROM ghosts").ok());
  EXPECT_FALSE(engine.Query("SELECT ghost FROM cities").ok());
  EXPECT_FALSE(engine.Query("totally not sql").ok());
}

TEST(EngineScenarioTest, ConstraintOnMissingTableFailsPrepare) {
  Database db;
  ASSERT_TRUE(db.AddTable(Table("cities", CitySchema())).ok());
  ConstraintSet rules;
  // Bind the rule text against the cities schema but register it for a
  // table that does not exist.
  auto dc = ParseConstraint("phi: FD zip -> city", "ghosts", CitySchema())
                .ValueOrDie();
  ASSERT_TRUE(rules.Add(std::move(dc)).ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  EXPECT_FALSE(engine.Prepare().ok());
}

TEST(EngineScenarioTest, OfflineAndDaisyAgreeOnDcRepairs) {
  // General-DC equivalence after full coverage (complementing the FD
  // equivalence property test).
  Rng rng(71);
  auto make_table = [&](uint64_t seed) {
    Rng local(seed);
    Table t("emp", Schema({{"salary", ValueType::kDouble},
                           {"tax", ValueType::kDouble}}));
    for (int i = 0; i < 120; ++i) {
      const double salary = local.UniformDouble(1000, 50000);
      double tax = salary / 100000.0;
      if (local.Bernoulli(0.1)) tax += local.UniformDouble(0.1, 0.3);
      EXPECT_TRUE(t.AppendRow({Value(salary), Value(tax)}).ok());
    }
    return t;
  };
  const uint64_t seed = rng.UniformInt(1, 1000);

  Database daisy_db;
  ASSERT_TRUE(daisy_db.AddTable(make_table(seed)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp",
                               daisy_db.GetTable("emp").ValueOrDie()->schema())
                  .ok());
  DaisyEngine engine(&daisy_db, rules, DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());

  Database offline_db;
  ASSERT_TRUE(offline_db.AddTable(make_table(seed)).ok());
  OfflineCleaner cleaner(&offline_db, &rules);
  ASSERT_TRUE(cleaner.CleanAll().ok());

  const Table* a = daisy_db.GetTable("emp").ValueOrDie();
  const Table* b = offline_db.GetTable("emp").ValueOrDie();
  for (RowId r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->cell(r, c), b->cell(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

// ------------------------------------------------------ ingest scenarios --

TEST(EngineIngestTest, AppendIntroducesViolationAgainstRepairedRow) {
  Database db;
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("c")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());

  // First query repairs the zip=1 group: both rows get {a, b}.
  auto r1 = engine.Query("SELECT * FROM cities WHERE zip = 1").ValueOrDie();
  EXPECT_EQ(r1.errors_fixed, 2u);
  const Table* cities = db.GetTable("cities").ValueOrDie();
  EXPECT_EQ(cities->cell(0, 1).candidates().size(), 2u);

  // A new conflicting tuple arrives for the already-repaired group.
  ASSERT_TRUE(engine.AppendRows("cities", {{Value(1), Value("x")}}).ok());

  // The next touching query re-repairs the whole group against the new
  // data: all three members now carry the {a, b, x} histogram, and the
  // report accounts for the settled ingest.
  auto r2 = engine.Query("SELECT * FROM cities WHERE zip = 1").ValueOrDie();
  EXPECT_EQ(r2.delta_rows_checked, 1u);
  EXPECT_EQ(r2.errors_fixed, 3u);
  EXPECT_EQ(r2.output.result.num_rows(), 3u);
  for (RowId r : {RowId{0}, RowId{1}, RowId{3}}) {
    EXPECT_EQ(cities->cell(r, 1).candidates().size(), 3u) << "row " << r;
  }
}

TEST(EngineIngestTest, DeleteRemovingLastViolationReengagesPruning) {
  Database db;
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("c")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());

  // Dirty statistics keep the cleanσ node in the plan...
  auto before = engine.Explain("SELECT * FROM cities WHERE zip = 1")
                    .ValueOrDie();
  EXPECT_NE(before.find("CleanSelect"), std::string::npos);

  // ...until the delete removes the rule's last violation: the maintained
  // statistics drop to zero and plan-time pruning re-engages.
  ASSERT_TRUE(engine.DeleteRows("cities", {1}).ok());
  auto after = engine.Explain("SELECT * FROM cities WHERE zip = 1")
                   .ValueOrDie();
  EXPECT_EQ(after.find("CleanSelect"), std::string::npos);

  auto report = engine.Query("SELECT * FROM cities WHERE zip = 1")
                    .ValueOrDie();
  EXPECT_EQ(report.rules_pruned, 1u);
  EXPECT_EQ(report.errors_fixed, 0u);
  EXPECT_EQ(report.output.result.num_rows(), 1u);  // the tombstone is gone
  EXPECT_EQ(db.GetTable("cities").ValueOrDie()->CountProbabilisticCells(),
            0u);
}

TEST(EngineIngestTest, DeleteResolvingViolationRetractsStaleRepairs) {
  // A delete that turns a repaired violating group clean must retract the
  // survivors' probabilistic fixes — cleaning the post-delete data from
  // scratch would never have produced them.
  Database db;
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("c")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto r1 = engine.Query("SELECT * FROM cities WHERE zip = 1").ValueOrDie();
  EXPECT_EQ(r1.errors_fixed, 2u);
  const Table* cities = db.GetTable("cities").ValueOrDie();
  ASSERT_TRUE(cities->cell(0, 1).is_probabilistic());

  ASSERT_TRUE(engine.DeleteRows("cities", {1}).ok());
  // The surviving row's cell reverts to its deterministic original.
  EXPECT_FALSE(cities->cell(0, 1).is_probabilistic());
  EXPECT_EQ(cities->CountProbabilisticCells(), 0u);
  // And a query that would have admitted it through the stale candidate
  // set no longer does.
  auto r2 = engine.Query("SELECT * FROM cities WHERE city = 'b'")
                .ValueOrDie();
  EXPECT_EQ(r2.output.result.num_rows(), 0u);
  EXPECT_EQ(r2.errors_fixed, 0u);
}

TEST(EngineIngestTest, DeleteRetractingDcPairsRederivesSurvivingRepairs) {
  // General-DC version of the staleness rule: when a delete retracts
  // violating pairs, the rule's accumulated pair evidence is re-derived
  // from the surviving violations — equal to cleaning the post-delete
  // data from scratch.
  const Schema schema({{"salary", ValueType::kDouble},
                       {"tax", ValueType::kDouble}});
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", schema)
                  .ok());
  Database db;
  {
    Table t("emp", schema);
    ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.9)}).ok());  // A
    ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.2)}).ok());  // B
    ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.5)}).ok());  // C
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  DaisyEngine engine(&db, rules,
                     DaisyOptions{DaisyOptions::Mode::kIncremental});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());  // A-B and A-C repaired
  const Table* emp = db.GetTable("emp").ValueOrDie();
  ASSERT_GT(emp->CountProbabilisticCells(), 0u);

  // Deleting C retracts (A,C); A's fixes re-derive from (A,B) alone.
  ASSERT_TRUE(engine.DeleteRows("emp", {2}).ok());
  Database offline_db;
  {
    Table t("emp", schema);
    ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.9)}).ok());
    ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.2)}).ok());
    ASSERT_TRUE(offline_db.AddTable(std::move(t)).ok());
  }
  OfflineCleaner cleaner(&offline_db, &rules);
  ASSERT_TRUE(cleaner.CleanAll().ok());
  const Table* offline = offline_db.GetTable("emp").ValueOrDie();
  for (RowId r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(emp->cell(r, c), offline->cell(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }

  // Deleting B too leaves no violations at all: A reverts to deterministic.
  ASSERT_TRUE(engine.DeleteRows("emp", {1}).ok());
  EXPECT_EQ(emp->CountProbabilisticCells(), 0u);
  EXPECT_FALSE(emp->cell(0, 1).is_probabilistic());
}

TEST(EngineIngestTest, DetectorAppliesDeltaAtWrite) {
  // Ingest deltas are pushed into the DC detector inside the writer
  // section that applied them: right after AppendRows/DeleteRows returns,
  // the detector's const view already reflects the batch — no later call
  // has to sync it.
  const Schema schema({{"salary", ValueType::kDouble},
                       {"tax", ValueType::kDouble}});
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", schema)
                  .ok());
  Database db;
  {
    Table t("emp", schema);
    ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.9)}).ok());  // A
    ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.2)}).ok());  // B
    ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.5)}).ok());  // C
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  DaisyEngine engine(&db, rules,
                     DaisyOptions{DaisyOptions::Mode::kIncremental});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  ASSERT_NE(engine.dc_detector("dc"), nullptr);
  const ThetaJoinDetector& theta = *engine.dc_detector("dc");
  ASSERT_TRUE(theta.FullyChecked());
  ASSERT_EQ(theta.maintained_violations(),
            (std::vector<ViolationPair>{{0, 1}, {0, 2}}));

  // D conflicts with A, B and C; it joins the coverage unchecked at the
  // write, and its pairs wait for the next touching query's DetectDelta.
  ASSERT_TRUE(engine.AppendRows("emp", {{Value(4000.0), Value(0.1)}}).ok());
  EXPECT_FALSE(theta.FullyChecked());
  EXPECT_EQ(theta.maintained_violations(),
            (std::vector<ViolationPair>{{0, 1}, {0, 2}}));

  // Deleting C retracts (A,C) at the write.
  ASSERT_TRUE(engine.DeleteRows("emp", {2}).ok());
  EXPECT_FALSE(theta.FullyChecked());
  EXPECT_EQ(theta.maintained_violations(),
            (std::vector<ViolationPair>{{0, 1}}));

  // Deleting the unchecked arrival restores full coverage at the write.
  ASSERT_TRUE(engine.DeleteRows("emp", {3}).ok());
  EXPECT_TRUE(theta.FullyChecked());
  EXPECT_EQ(theta.maintained_violations(),
            (std::vector<ViolationPair>{{0, 1}}));
}

TEST(EngineIngestTest, SettlingQueryAdmitsRepairedConflicts) {
  // The query that settles an ingest batch must apply the Example-3
  // extra-tuples semantics to the violations its delta drain repaired: a
  // conflicting arrival whose candidate range now satisfies the filter
  // belongs to this query's result, and the identical query re-run must
  // return the same rows.
  const Schema schema({{"salary", ValueType::kDouble},
                       {"tax", ValueType::kDouble}});
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", schema)
                  .ok());
  Database db;
  {
    Table t("emp", schema);
    ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.2)}).ok());
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  DaisyEngine engine(&db, std::move(rules),
                     DaisyOptions{DaisyOptions::Mode::kIncremental});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());

  // A conflicts with the existing row: its tax repair yields <= 0.2.
  ASSERT_TRUE(engine.AppendRows("emp", {{Value(1000.0), Value(0.9)}}).ok());
  const std::string q = "SELECT salary, tax FROM emp WHERE tax <= 0.3";
  auto first = engine.Query(q).ValueOrDie();
  EXPECT_EQ(first.delta_rows_checked, 1u);
  EXPECT_EQ(first.errors_fixed, 1u);
  EXPECT_EQ(first.output.result.num_rows(), 2u);  // repaired A qualifies now
  auto second = engine.Query(q).ValueOrDie();
  EXPECT_EQ(second.output.result.num_rows(), first.output.result.num_rows());
}

TEST(EngineIngestTest, QueriesBetweenIngestBatchesMatchOffline) {
  // Two ingest batches with a query in between; the engine's repairs must
  // equal an offline cleaner run over the final data — the delta-detect
  // passes contribute exactly the evidence a from-scratch detection would.
  auto make_batch = [](uint64_t seed, size_t n) {
    Rng rng(seed);
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < n; ++i) {
      const double salary = rng.UniformDouble(1000, 50000);
      double tax = salary / 100000.0;
      if (rng.Bernoulli(0.15)) tax += rng.UniformDouble(0.1, 0.3);
      rows.push_back({Value(salary), Value(tax)});
    }
    return rows;
  };
  const Schema schema({{"salary", ValueType::kDouble},
                       {"tax", ValueType::kDouble}});
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", schema)
                  .ok());

  Database daisy_db;
  {
    Table t("emp", schema);
    for (auto& row : make_batch(81, 60)) {
      ASSERT_TRUE(t.AppendRow(row).ok());
    }
    ASSERT_TRUE(daisy_db.AddTable(std::move(t)).ok());
  }
  DaisyEngine engine(&daisy_db, rules,
                     DaisyOptions{DaisyOptions::Mode::kIncremental});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());  // full base coverage

  ASSERT_TRUE(engine.AppendRows("emp", make_batch(82, 10)).ok());
  auto mid = engine.Query("SELECT salary, tax FROM emp WHERE salary >= 0")
                 .ValueOrDie();
  EXPECT_EQ(mid.delta_rows_checked, 10u);  // the query settled batch 1
  EXPECT_EQ(mid.output.result.num_rows(), 70u);

  ASSERT_TRUE(engine.AppendRows("emp", make_batch(83, 10)).ok());
  auto last = engine.Query("SELECT salary, tax FROM emp WHERE salary >= 0")
                  .ValueOrDie();
  EXPECT_EQ(last.delta_rows_checked, 10u);  // batch 2, and only batch 2

  // Offline baseline over the final data.
  Database offline_db;
  {
    Table t("emp", schema);
    for (auto& row : make_batch(81, 60)) {
      ASSERT_TRUE(t.AppendRow(row).ok());
    }
    for (auto& row : make_batch(82, 10)) {
      ASSERT_TRUE(t.AppendRow(row).ok());
    }
    for (auto& row : make_batch(83, 10)) {
      ASSERT_TRUE(t.AppendRow(row).ok());
    }
    ASSERT_TRUE(offline_db.AddTable(std::move(t)).ok());
  }
  OfflineCleaner cleaner(&offline_db, &rules);
  ASSERT_TRUE(cleaner.CleanAll().ok());

  const Table* a = daisy_db.GetTable("emp").ValueOrDie();
  const Table* b = offline_db.GetTable("emp").ValueOrDie();
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (RowId r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->cell(r, c), b->cell(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

}  // namespace
}  // namespace daisy
