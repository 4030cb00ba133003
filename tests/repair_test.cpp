// Tests for the repair module: the DPLL SAT solver, provenance-backed
// probabilistic repair of FDs (paper Example 2) and of general DCs
// (Example 5), and Lemma 4 commutativity.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "detect/theta_join.h"
#include "repair/dc_repair.h"
#include "repair/fd_repair.h"
#include "repair/provenance.h"
#include "repair/sat.h"

namespace daisy {
namespace {

// ------------------------------------------------------------------- SAT --

TEST(SatSolverTest, TrivialSat) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{1, 2}};
  SatSolver solver;
  auto r = solver.Solve(f).ValueOrDie();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[1] || r.assignment[2]);
}

TEST(SatSolverTest, UnsatCore) {
  CnfFormula f;
  f.num_vars = 1;
  f.clauses = {{1}, {-1}};
  SatSolver solver;
  EXPECT_FALSE(solver.Solve(f).ValueOrDie().satisfiable);
}

TEST(SatSolverTest, UnitPropagationChains) {
  // x1, x1->x2, x2->x3  encoded as clauses.
  CnfFormula f;
  f.num_vars = 3;
  f.clauses = {{1}, {-1, 2}, {-2, 3}};
  SatSolver solver;
  auto r = solver.Solve(f).ValueOrDie();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[1]);
  EXPECT_TRUE(r.assignment[2]);
  EXPECT_TRUE(r.assignment[3]);
  EXPECT_GE(solver.propagations(), 2u);
}

TEST(SatSolverTest, RejectsMalformedInput) {
  CnfFormula f;
  f.num_vars = 1;
  f.clauses = {{0}};
  SatSolver solver;
  EXPECT_FALSE(solver.Solve(f).ok());
  f.clauses = {{5}};
  EXPECT_FALSE(solver.Solve(f).ok());
  f.clauses = {{}};
  EXPECT_FALSE(solver.Solve(f).ok());
}

TEST(SatSolverTest, EnumerateModels) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{1, 2}};
  SatSolver solver;
  auto models = solver.EnumerateModels(f, 10).ValueOrDie();
  EXPECT_EQ(models.size(), 3u);  // TT, TF, FT
}

// Property: solver verdict matches brute-force across random 3-CNF.
class SatPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int num_vars = 6;
  CnfFormula f;
  f.num_vars = num_vars;
  const int num_clauses = static_cast<int>(rng.UniformInt(3, 14));
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    const int len = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < len; ++l) {
      int v = static_cast<int>(rng.UniformInt(1, num_vars));
      clause.push_back(rng.Bernoulli(0.5) ? v : -v);
    }
    f.clauses.push_back(std::move(clause));
  }
  // Brute force.
  bool brute_sat = false;
  for (int mask = 0; mask < (1 << num_vars) && !brute_sat; ++mask) {
    bool all = true;
    for (const Clause& clause : f.clauses) {
      bool any = false;
      for (Literal lit : clause) {
        const bool val = (mask >> (std::abs(lit) - 1)) & 1;
        if ((lit > 0) == val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }
  SatSolver solver;
  EXPECT_EQ(solver.Solve(f).ValueOrDie().satisfiable, brute_sat);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SatPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(SatRepairFormulaTest, DcFormulaAndInversionSets) {
  CnfFormula f = BuildDcRepairFormula(3);
  EXPECT_EQ(f.num_vars, 3);
  ASSERT_EQ(f.clauses.size(), 1u);
  SatSolver solver;
  // All-atoms-true must be the unique blocked assignment.
  auto models = solver.EnumerateModels(f, 16).ValueOrDie();
  EXPECT_EQ(models.size(), 7u);  // 2^3 - 1

  auto sets = MinimalInversionSets(3, {});
  EXPECT_EQ(sets.size(), 3u);  // singletons
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);

  sets = MinimalInversionSets(3, {true, false, true});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0][0], 1u);

  EXPECT_TRUE(MinimalInversionSets(2, {true, true}).empty());
}

// ------------------------------------------------------------ Provenance --

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

TEST(ProvenanceTest, RecordRebuildsCell) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  RepairRecord rec;
  rec.rule = "phi";
  rec.pair_tag = 0;
  rec.sources = {{Value("LA"), 2.0, CandidateKind::kPoint},
                 {Value("SF"), 1.0, CandidateKind::kPoint}};
  prov.Record(&t, 0, 1, std::move(rec));
  const Cell& cell = t.cell(0, 1);
  ASSERT_TRUE(cell.is_probabilistic());
  ASSERT_EQ(cell.candidates().size(), 2u);
  EXPECT_NEAR(cell.candidates()[0].prob + cell.candidates()[1].prob, 1.0,
              1e-12);
  EXPECT_TRUE(prov.HasRecord(0, 1, "phi"));
  EXPECT_FALSE(prov.HasRecord(0, 1, "psi"));
  EXPECT_EQ(prov.NumRepairedCells(), 1u);
}

TEST(ProvenanceTest, SameRuleRecordReplaces) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  prov.Record(&t, 0, 1,
              {"phi", 0, {{Value("LA"), 1.0, CandidateKind::kPoint}}, {}});
  prov.Record(&t, 0, 1,
              {"phi", 0, {{Value("NY"), 1.0, CandidateKind::kPoint}}, {}});
  const Cell& cell = t.cell(0, 1);
  ASSERT_EQ(cell.candidates().size(), 1u);
  EXPECT_EQ(cell.candidates()[0].value, Value("NY"));
}

TEST(ProvenanceTest, Lemma4MergeIsCommutative) {
  // Two rules repair the same cell; the rebuilt candidate set must not
  // depend on arrival order (Lemma 4).
  auto build = [](bool phi_first) {
    Table t("c", CitySchema());
    EXPECT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
    ProvenanceStore prov;
    RepairRecord phi{"phi", 0,
                     {{Value("LA"), 2.0, CandidateKind::kPoint},
                      {Value("SF"), 1.0, CandidateKind::kPoint}},
                     {0, 1}};
    RepairRecord psi{"psi", 0,
                     {{Value("LA"), 1.0, CandidateKind::kPoint},
                      {Value("NY"), 1.0, CandidateKind::kPoint}},
                     {0, 2}};
    if (phi_first) {
      prov.Record(&t, 0, 1, phi);
      prov.Record(&t, 0, 1, psi);
    } else {
      prov.Record(&t, 0, 1, psi);
      prov.Record(&t, 0, 1, phi);
    }
    return t.cell(0, 1);
  };
  const Cell a = build(true);
  const Cell b = build(false);
  EXPECT_EQ(a, b);
  // Counts union: LA 3, SF 1, NY 1 -> normalized.
  ASSERT_EQ(a.candidates().size(), 3u);
  EXPECT_EQ(a.MostProbable(), Value("LA"));
  EXPECT_NEAR(a.candidates()[0].prob, 3.0 / 5.0, 1e-12);
}

TEST(ProvenanceTest, AppendSourcesAccumulates) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("SF"), 1.0, CandidateKind::kPoint}}, {0});
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("SF"), 1.0, CandidateKind::kPoint},
                      {Value("LA"), 1.0, CandidateKind::kPoint}},
                     {1});
  const Cell& cell = t.cell(0, 1);
  ASSERT_EQ(cell.candidates().size(), 2u);
  // SF count 2, LA count 1.
  EXPECT_EQ(cell.MostProbable(), Value("SF"));
  const std::vector<RepairRecord>* recs = prov.RecordsFor(0, 1);
  ASSERT_NE(recs, nullptr);
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].conflicting_rows, (std::vector<RowId>{0, 1}));
}

TEST(ProvenanceTest, AppendSourcesUnionsConflictSets) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  auto append = [&](const std::vector<RowId>& rows) {
    prov.AppendSources(&t, 0, 1, "dc", 0,
                       {{Value("SF"), 1.0, CandidateKind::kPoint}}, rows);
    return (*prov.RecordsFor(0, 1))[0].conflicting_rows;
  };
  // Empty target: the incoming set as it is.
  EXPECT_EQ(append({4, 9}), (std::vector<RowId>{4, 9}));
  // Every id past the last one: the append-only path.
  EXPECT_EQ(append({12, 20}), (std::vector<RowId>{4, 9, 12, 20}));
  // Only ids already present: unchanged.
  EXPECT_EQ(append({4, 12, 20}), (std::vector<RowId>{4, 9, 12, 20}));
  // Interleaved: new ids below, between and past the present ones, plus
  // one duplicate.
  EXPECT_EQ(append({1, 9, 10, 15, 21}),
            (std::vector<RowId>{1, 4, 9, 10, 12, 15, 20, 21}));
  EXPECT_EQ(append({}), (std::vector<RowId>{1, 4, 9, 10, 12, 15, 20, 21}));
  EXPECT_EQ((*prov.RecordsFor(0, 1))[0].sources[0].count, 5.0);
}

TEST(ProvenanceTest, AppendSourcesKeepsCanonicalSourceOrder) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("SF"), 1.0, CandidateKind::kPoint},
                      {Value("LA"), 1.0, CandidateKind::kLessEq}},
                     {0});
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("NY"), 1.0, CandidateKind::kGreaterThan},
                      {Value("AA"), 1.0, CandidateKind::kLessEq},
                      {Value("LA"), 1.0, CandidateKind::kPoint}},
                     {1});
  // (kind, value) order; the two <= bounds consolidate to the tightest.
  const std::vector<CandidateSource>& src = (*prov.RecordsFor(0, 1))[0].sources;
  ASSERT_EQ(src.size(), 4u);
  EXPECT_EQ(src[0].value, Value("LA"));
  EXPECT_EQ(src[0].kind, CandidateKind::kPoint);
  EXPECT_EQ(src[1].value, Value("SF"));
  EXPECT_EQ(src[1].kind, CandidateKind::kPoint);
  EXPECT_EQ(src[2].value, Value("AA"));
  EXPECT_EQ(src[2].kind, CandidateKind::kLessEq);
  EXPECT_EQ(src[2].count, 2.0);
  EXPECT_EQ(src[3].value, Value("NY"));
  EXPECT_EQ(src[3].kind, CandidateKind::kGreaterThan);
}

TEST(ProvenanceTest, CanonicalizeDcRecordSortsAndMerges) {
  RepairRecord rec{"dc",
                   0,
                   {{Value(7.0), 1.0, CandidateKind::kGreaterEq},
                    {Value(3.0), 2.0, CandidateKind::kPoint},
                    {Value(9.0), 1.0, CandidateKind::kGreaterEq},
                    {Value(1.0), 1.0, CandidateKind::kPoint}},
                   {9, 2, 9, 5, 2}};
  CanonicalizeDcRecord(&rec);
  EXPECT_EQ(rec.conflicting_rows, (std::vector<RowId>{2, 5, 9}));
  ASSERT_EQ(rec.sources.size(), 3u);
  EXPECT_EQ(rec.sources[0].value, Value(1.0));
  EXPECT_EQ(rec.sources[1].value, Value(3.0));
  EXPECT_EQ(rec.sources[2].value, Value(9.0));
  EXPECT_EQ(rec.sources[2].count, 2.0);
}

// ------------------------------------------------------------- FD repair --

Table CitiesTable() {
  Table t("cities", CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

TEST(FdRepairTest, Example2Probabilities) {
  // Paper Example 2 over Table 2a: repair the 9001 cluster (rows 0-3 are
  // the relaxed scope of the "Los Angeles" query).
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  auto stats =
      RepairFdViolations(&t, dc, {0, 1, 2, 3}, &prov).ValueOrDie();
  EXPECT_EQ(stats.violating_groups, 1u);
  EXPECT_EQ(stats.tuples_repaired, 3u);  // rows 0,1,2 (the 9001 group)

  // Row 1 (9001, San Francisco): city candidates {LA 67%, SF 33%}.
  const Cell& city1 = t.cell(1, 1);
  ASSERT_TRUE(city1.is_probabilistic());
  ASSERT_EQ(city1.candidates().size(), 2u);
  EXPECT_EQ(city1.MostProbable(), Value("Los Angeles"));
  for (const Candidate& c : city1.candidates()) {
    if (c.value == Value("Los Angeles")) EXPECT_NEAR(c.prob, 2.0 / 3, 1e-12);
    if (c.value == Value("San Francisco")) EXPECT_NEAR(c.prob, 1.0 / 3, 1e-12);
    EXPECT_EQ(c.pair_id, 0);  // rhs-candidate instance
  }
  // Row 1 zip candidates {9001 50%, 10001 50%} (tuples with City=SF).
  const Cell& zip1 = t.cell(1, 0);
  ASSERT_TRUE(zip1.is_probabilistic());
  ASSERT_EQ(zip1.candidates().size(), 2u);
  for (const Candidate& c : zip1.candidates()) {
    EXPECT_NEAR(c.prob, 0.5, 1e-12);
    EXPECT_EQ(c.pair_id, 1);  // lhs-candidate instance
  }

  // Row 0 (9001, Los Angeles): city gets the same histogram, zip stays
  // clean ({Zip | City=LA} is single-valued).
  EXPECT_TRUE(t.cell(0, 1).is_probabilistic());
  EXPECT_FALSE(t.cell(0, 0).is_probabilistic());

  // Rows 3 and 4 were not in a violating group within scope: untouched.
  EXPECT_FALSE(t.cell(3, 1).is_probabilistic());
  EXPECT_FALSE(t.cell(4, 1).is_probabilistic());
}

TEST(FdRepairTest, IdempotentPerRule) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, dc, t.AllRowIds(), &prov).ValueOrDie();
  const Cell snapshot = t.cell(1, 1);
  auto again = RepairFdViolations(&t, dc, t.AllRowIds(), &prov).ValueOrDie();
  EXPECT_EQ(again.tuples_repaired, 0u);  // skipped via provenance
  EXPECT_EQ(t.cell(1, 1), snapshot);
}

TEST(FdRepairTest, RequiresFd) {
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble}}));
  auto dc = ParseConstraint("!(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", t.schema())
                .ValueOrDie();
  ProvenanceStore prov;
  EXPECT_FALSE(RepairFdViolations(&t, dc, {}, &prov).ok());
}

TEST(FdRepairTest, MultiAttributeLhs) {
  Schema s({{"a", ValueType::kInt},
            {"b", ValueType::kInt},
            {"c", ValueType::kString}});
  Table t("t", s);
  ASSERT_TRUE(t.AppendRow({Value(1), Value(2), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(2), Value("y")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(3), Value("x")}).ok());
  auto dc = ParseConstraint("FD a, b -> c", "t", s).ValueOrDie();
  ProvenanceStore prov;
  auto stats = RepairFdViolations(&t, dc, t.AllRowIds(), &prov).ValueOrDie();
  EXPECT_EQ(stats.violating_groups, 1u);
  // Rows 0 and 1 get rhs candidates {x, y}; lhs attr b of row 1 gets
  // candidates from tuples with c = 'y'... which is only itself -> clean;
  // lhs of row 0 from tuples with c='x': b in {2, 3}.
  ASSERT_TRUE(t.cell(0, 2).is_probabilistic());
  EXPECT_EQ(t.cell(0, 2).candidates().size(), 2u);
  EXPECT_TRUE(t.cell(0, 1).is_probabilistic());
  EXPECT_FALSE(t.cell(1, 1).is_probabilistic());
}

// ------------------------------------------------------------- DC repair --

TEST(DcRepairTest, Example5CandidateFixes) {
  // Paper Example 5: t2{3000, 0.2, 32}, t3{2000, 0.3, 43} violate
  // ¬(t1.salary < t2.salary ∧ t1.tax > t2.tax) with t3 as t1.
  Schema s({{"salary", ValueType::kDouble},
            {"tax", ValueType::kDouble},
            {"age", ValueType::kInt}});
  Table t("emp", s);
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.1), Value(31)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.2), Value(32)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.3), Value(43)}).ok());
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", s)
                .ValueOrDie();
  ProvenanceStore prov;
  auto stats =
      RepairDcViolations(&t, dc, {{2, 1}}, &prov).ValueOrDie();
  EXPECT_EQ(stats.violating_groups, 1u);

  // t2.salary: {3000 50%, <=2000 50%} — keep or drop below t3's salary.
  const Cell& salary2 = t.cell(1, 0);
  ASSERT_TRUE(salary2.is_probabilistic());
  ASSERT_EQ(salary2.candidates().size(), 2u);
  bool saw_point = false, saw_range = false;
  for (const Candidate& c : salary2.candidates()) {
    EXPECT_NEAR(c.prob, 0.5, 1e-12);
    if (c.kind == CandidateKind::kPoint) {
      saw_point = true;
      EXPECT_EQ(c.value, Value(3000.0));
    } else {
      saw_range = true;
      EXPECT_EQ(c.kind, CandidateKind::kLessEq);
      EXPECT_EQ(c.value, Value(2000.0));
    }
  }
  EXPECT_TRUE(saw_point);
  EXPECT_TRUE(saw_range);

  // t2.tax: {0.2 50%, >=0.3 50%}.
  const Cell& tax2 = t.cell(1, 1);
  ASSERT_TRUE(tax2.is_probabilistic());
  bool saw_geq = false;
  for (const Candidate& c : tax2.candidates()) {
    if (c.kind == CandidateKind::kGreaterEq) {
      saw_geq = true;
      EXPECT_EQ(c.value, Value(0.3));
    }
  }
  EXPECT_TRUE(saw_geq);

  // t3 (the t1 side) gets the symmetric fixes: salary >= 3000, tax <= 0.2.
  const Cell& salary3 = t.cell(2, 0);
  ASSERT_TRUE(salary3.is_probabilistic());
  bool saw3 = false;
  for (const Candidate& c : salary3.candidates()) {
    if (c.kind == CandidateKind::kGreaterEq) {
      saw3 = true;
      EXPECT_EQ(c.value, Value(3000.0));
    }
  }
  EXPECT_TRUE(saw3);

  // age untouched.
  EXPECT_FALSE(t.cell(1, 2).is_probabilistic());

  // Every candidate can actually repair: MayEqual over the enforced range.
  EXPECT_TRUE(salary2.MayEqual(Value(1500.0)));
  EXPECT_FALSE(salary2.MayEqual(Value(2500.0)));
}

TEST(DcRepairTest, MultiplePairsAccumulateFrequencies) {
  Schema s({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
  Table t("emp", s);
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.1), }).ok());
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.3)}).ok());
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", s)
                .ValueOrDie();
  // Row 1 and row 2 both violate against row 0 (as t1).
  ProvenanceStore prov;
  (void)RepairDcViolations(&t, dc, {{1, 0}, {2, 0}}, &prov).ValueOrDie();
  // Row 0's salary cell accumulated two range fixes (<=1000, <=2000) that
  // consolidate to the tightest bound (<=1000, count 2) plus its original
  // (count 2): two candidates, equal frequency.
  const Cell& salary0 = t.cell(0, 0);
  ASSERT_TRUE(salary0.is_probabilistic());
  ASSERT_EQ(salary0.candidates().size(), 2u);
  EXPECT_EQ(salary0.MostProbable(), Value(3000.0));
  for (const Candidate& c : salary0.candidates()) {
    EXPECT_NEAR(c.prob, 0.5, 1e-12);
    if (c.kind != CandidateKind::kPoint) {
      EXPECT_EQ(c.kind, CandidateKind::kLessEq);
      EXPECT_EQ(c.value, Value(1000.0));  // tightest of {<=1000, <=2000}
    }
  }
}

TEST(DcRepairTest, RejectsFdInput) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  EXPECT_FALSE(RepairDcViolations(&t, dc, {}, &prov).ok());
}

// Regression: every partner value of an inverted `!=` atom is its own
// point candidate. Row 0 (LA) conflicts with SF and NY as t1; its city
// cell must keep both, not just the larger.
TEST(DcRepairTest, NotEqualAtomKeepsEveryPartnerValue) {
  Schema s({{"salary", ValueType::kDouble}, {"city", ValueType::kString}});
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.city != t2.city)",
                            "emp", s)
                .ValueOrDie();
  const std::vector<ViolationPair> pairs = {{0, 1}, {0, 2}, {1, 2}};
  std::vector<ViolationPair> reversed(pairs.rbegin(), pairs.rend());
  std::vector<Table> tables;
  std::vector<ProvenanceStore> stores(2);
  const std::vector<ViolationPair>* orders[] = {&pairs, &reversed};
  for (const std::vector<ViolationPair>* order : orders) {
    Table t("emp", s);
    ASSERT_TRUE(t.AppendRow({Value(1000.0), Value("LA")}).ok());
    ASSERT_TRUE(t.AppendRow({Value(2000.0), Value("SF")}).ok());
    ASSERT_TRUE(t.AppendRow({Value(3000.0), Value("NY")}).ok());
    ASSERT_TRUE(
        RepairDcViolations(&t, dc, *order, &stores[tables.size()]).ok());
    tables.push_back(std::move(t));
  }
  const std::vector<RepairRecord>* recs = stores[0].RecordsFor(0, 1);
  ASSERT_NE(recs, nullptr);
  ASSERT_EQ(recs->size(), 1u);
  const std::vector<CandidateSource>& src = (*recs)[0].sources;
  ASSERT_EQ(src.size(), 3u);
  EXPECT_EQ(src[0].value, Value("LA"));
  EXPECT_EQ(src[0].count, 2.0);
  EXPECT_EQ(src[1].value, Value("NY"));
  EXPECT_EQ(src[1].count, 1.0);
  EXPECT_EQ(src[2].value, Value("SF"));
  EXPECT_EQ(src[2].count, 1.0);
  for (const CandidateSource& c : src) {
    EXPECT_EQ(c.kind, CandidateKind::kPoint);
  }
  const Cell& city0 = tables[0].cell(0, 1);
  ASSERT_EQ(city0.candidates().size(), 3u);
  EXPECT_EQ(city0.MostProbable(), Value("LA"));
  EXPECT_NEAR(city0.candidates()[0].prob, 0.5, 1e-12);
  // The reversed pair order gives the same records and cells.
  EXPECT_EQ(stores[0].records().size(), stores[1].records().size());
  for (RowId r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(tables[0].cell(r, c) == tables[1].cell(r, c));
    }
  }
}

Table RandomRepairTable(uint64_t seed, const Schema& schema) {
  Rng rng(seed);
  const char* kCities[] = {"LA", "SF", "NY", "SEA"};
  Table t("emp", schema);
  for (int i = 0; i < 30; ++i) {
    // Few salaries and a noisy tax: ties and many violations.
    const double salary = 1000.0 * static_cast<double>(rng.UniformInt(1, 8));
    const double tax = 0.05 * static_cast<double>(rng.UniformInt(0, 10));
    EXPECT_TRUE(t.AppendRow({Value(salary), Value(tax),
                             Value(kCities[rng.UniformInt(0, 3)])})
                    .ok());
  }
  return t;
}

// Seeded property: a DC repair depends on the set of violating pairs only.
// A shuffled copy of the pairs, fed in two calls, yields the same records
// (sources, counts, conflict sets) and the same cells as one call in
// detection order.
TEST(DcRepairTest, RepairIsIndependentOfPairOrder) {
  Schema s({{"salary", ValueType::kDouble},
            {"tax", ValueType::kDouble},
            {"city", ValueType::kString}});
  for (const char* text :
       {"dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
        "dc: !(t1.salary <= t2.salary & t1.city != t2.city)"}) {
    auto dc = ParseConstraint(text, "emp", s).ValueOrDie();
    for (uint64_t seed = 0; seed < 25; ++seed) {
      SCOPED_TRACE(std::string(text) + " seed " + std::to_string(seed));
      Table a = RandomRepairTable(seed, s);
      Table b = RandomRepairTable(seed, s);
      ThetaJoinDetector detector(&a, &dc, 4);
      const std::vector<ViolationPair> pairs = detector.DetectAll();
      ASSERT_FALSE(pairs.empty());
      std::vector<ViolationPair> shuffled = pairs;
      Rng rng(seed + 1000);
      rng.Shuffle(&shuffled);
      const size_t half = shuffled.size() / 2;
      ProvenanceStore pa, pb;
      ASSERT_TRUE(RepairDcViolations(&a, dc, pairs, &pa).ok());
      ASSERT_TRUE(RepairDcViolations(
                      &b, dc, {shuffled.begin() + half, shuffled.end()}, &pb)
                      .ok());
      ASSERT_TRUE(RepairDcViolations(
                      &b, dc, {shuffled.begin(), shuffled.begin() + half}, &pb)
                      .ok());
      ASSERT_EQ(pa.records().size(), pb.records().size());
      for (auto ia = pa.records().begin(), ib = pb.records().begin();
           ia != pa.records().end(); ++ia, ++ib) {
        ASSERT_EQ(ia->first, ib->first);
        ASSERT_EQ(ia->second.size(), 1u);
        ASSERT_EQ(ib->second.size(), 1u);
        const RepairRecord& ra = ia->second[0];
        const RepairRecord& rb = ib->second[0];
        EXPECT_EQ(ra.conflicting_rows, rb.conflicting_rows);
        ASSERT_EQ(ra.sources.size(), rb.sources.size());
        for (size_t k = 0; k < ra.sources.size(); ++k) {
          EXPECT_EQ(ra.sources[k].value, rb.sources[k].value);
          EXPECT_EQ(ra.sources[k].value.type(), rb.sources[k].value.type());
          EXPECT_EQ(ra.sources[k].count, rb.sources[k].count);
          EXPECT_EQ(ra.sources[k].kind, rb.sources[k].kind);
        }
      }
      for (RowId r = 0; r < a.num_rows(); ++r) {
        for (size_t c = 0; c < a.num_columns(); ++c) {
          EXPECT_TRUE(a.cell(r, c) == b.cell(r, c)) << r << "," << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace daisy
