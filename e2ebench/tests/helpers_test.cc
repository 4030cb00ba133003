// Unit tests of the benchmark program's helpers: the named-percentile rule,
// span self time, and the ExplainAnalyze page parser (against a page
// captured from the engine, tests/testdata/analyze_q1.txt).

#include "helpers.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace e2e {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(NamedPercentileTest, P90NeedsTenSamplesAbove) {
  const Percentile p = NamedPercentile(Ramp(100), 0.90);
  EXPECT_TRUE(p.supported);
  EXPECT_EQ(p.value, 90);
  EXPECT_EQ(p.above, 10u);
  EXPECT_EQ(p.samples, 100u);

  const Percentile short_of = NamedPercentile(Ramp(99), 0.90);
  EXPECT_FALSE(short_of.supported);
  EXPECT_EQ(short_of.above, 9u);
  EXPECT_EQ(short_of.value, 0);
}

TEST(NamedPercentileTest, P95NeedsTwoHundredAndP50Twenty) {
  EXPECT_TRUE(NamedPercentile(Ramp(200), 0.95).supported);
  EXPECT_EQ(NamedPercentile(Ramp(200), 0.95).value, 190);
  EXPECT_FALSE(NamedPercentile(Ramp(199), 0.95).supported);
  EXPECT_TRUE(NamedPercentile(Ramp(20), 0.50).supported);
  EXPECT_EQ(NamedPercentile(Ramp(20), 0.50).value, 10);
  EXPECT_FALSE(NamedPercentile(Ramp(19), 0.50).supported);
  EXPECT_FALSE(NamedPercentile({}, 0.50).supported);
}

TEST(NamedPercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = Ramp(300);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(NamedPercentile(v, 0.95).value,
            NamedPercentile(reversed, 0.95).value);
}

Span At(const char* name, int64_t start, int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, NestedChildrenCountOnlyAtTheirParent) {
  // root [0,100) > a [10,60) > b [20,30); root > c [70,80).
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("a", 10, 60, 0), At("b", 20, 30, 1),
                                   At("c", 70, 80, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 50 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTimeTest, OverlappingChildrenAreCountedOnce) {
  // Two concurrent children [10,50) and [30,70): union 60; one that
  // sticks out of the parent [90,130) counts only its inside part [90,100).
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("x", 10, 50, 0), At("y", 30, 70, 0),
                                   At("z", 90, 130, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[3], 40);
}

TEST(SelfTimeTest, ChildInsideAnotherChildDoesNotDoubleCount) {
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("x", 10, 90, 0), At("y", 20, 30, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 20);
}

TEST(SelfTimeTest, RecorderMergeRebasesParents) {
  SpanRecorder a;
  const int ra = a.Begin("a", -1, 1);
  a.End(ra);
  SpanRecorder b;
  const int rb = b.Begin("b", -1, 2);
  const int cb = b.Begin("b.child", rb, 2);
  b.End(cb);
  b.End(rb);
  a.Merge(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(a.spans()[1].parent, -1);
}

std::string ReadTestdata(const std::string& name) {
  std::ifstream in(std::string(E2E_TESTDATA_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(AnalyzePageTest, ParsesCapturedWideQueryPage) {
  const std::string text = ReadTestdata("analyze_q1.txt");
  ASSERT_FALSE(text.empty());
  AnalyzePage page;
  std::string error;
  ASSERT_TRUE(ParseAnalyzePage(text, &page, &error)) << error;

  // Plan section: Project > CleanJoin > {CleanSelect > Filter > Scan,
  //                                      CleanSelect > Scan}.
  ASSERT_EQ(page.plan.size(), 7u);
  EXPECT_EQ(page.plan[0].kind, "Project");
  EXPECT_EQ(page.plan[0].depth, 0);
  EXPECT_LT(page.plan[0].est_rows, 0);  // Project carries no estimate
  EXPECT_EQ(page.plan[1].kind, "CleanJoin");
  EXPECT_EQ(page.plan[1].depth, 1);
  EXPECT_EQ(page.plan[1].est_rows, 2437);
  EXPECT_EQ(page.plan[1].rows, 32600u);
  EXPECT_EQ(page.plan[0].rows, 32600u);
  EXPECT_EQ(page.plan[2].kind, "CleanSelect");
  EXPECT_EQ(page.plan[3].kind, "Filter");
  EXPECT_EQ(page.plan[4].kind, "Scan");
  EXPECT_EQ(page.plan[4].depth, 4);
  EXPECT_EQ(page.plan[4].rows, 4000u);

  // Trace section, with self = inclusive - children's inclusive.
  ASSERT_EQ(page.trace.size(), 7u);
  const PlanLine& project = page.trace[0];
  const PlanLine& join = page.trace[1];
  EXPECT_EQ(project.kind, "Project");
  EXPECT_EQ(project.open_us, 33518u);
  EXPECT_EQ(project.self_us, 33518u - 5556u);
  EXPECT_EQ(project.self_us, project.inclusive_us() - join.inclusive_us());
  EXPECT_EQ(join.self_us, join.inclusive_us() - page.trace[2].inclusive_us() -
                              page.trace[5].inclusive_us());
  const PlanLine& filter = page.trace[3];
  EXPECT_EQ(filter.kind, "Filter");
  EXPECT_EQ(filter.next_us, 1067u);
  EXPECT_EQ(filter.self_us,
            filter.inclusive_us() - page.trace[4].inclusive_us());
  EXPECT_EQ(page.trace[6].kind, "Scan");
  EXPECT_EQ(page.trace[6].self_us, page.trace[6].inclusive_us());
}

TEST(AnalyzePageTest, SwitchedToFullAndDeltaRowsAreRead) {
  const std::string text =
      "Aggregate [select=[dept, SUM(tax) AS total_tax] group_by=[dept]] "
      "rows=10\n"
      "  CleanSelect [rule=dc dc] [adaptive] rows=4977 delta rows checked: 8 "
      "switched-to-full\n"
      "    Filter [emp: (salary >= 5000 AND salary <= 9000)] [columnar] "
      "rows=4977\n"
      "      Scan [emp] rows=5200\n"
      "trace:\n"
      "Aggregate [select=[dept, SUM(tax) AS total_tax] group_by=[dept]] "
      "open_us=4092 next_us=0 rows=10\n"
      "  CleanSelect [rule=dc dc] [adaptive] open_us=1288 next_us=3 "
      "rows=4977\n"
      "    Filter [emp: (salary >= 5000 AND salary <= 9000)] [columnar] "
      "open_us=11 next_us=1239 rows=4977\n"
      "      Scan [emp] open_us=0 next_us=19 rows=5200\n";
  AnalyzePage page;
  std::string error;
  ASSERT_TRUE(ParseAnalyzePage(text, &page, &error)) << error;
  EXPECT_TRUE(page.plan[1].switched_to_full);
  EXPECT_EQ(page.plan[1].rows, 4977u);
  EXPECT_FALSE(page.plan[0].switched_to_full);
  EXPECT_EQ(page.trace[0].self_us, 4092u - 1291u);
  EXPECT_EQ(page.trace[1].self_us, 1291u - 1250u);
  EXPECT_EQ(page.trace[2].self_us, 1250u - 19u);
}

TEST(AnalyzePageTest, RejectsPagesWithoutTraceOrWithBadLines) {
  AnalyzePage page;
  std::string error;
  EXPECT_FALSE(ParseAnalyzePage("Scan [emp] rows=5\n", &page, &error));
  EXPECT_FALSE(ParseAnalyzePage(
      "Scan [emp] rows=5\ntrace:\nScan [emp] open_us=x next_us=0 rows=5\n",
      &page, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

TEST(QErrorTest, SymmetricAndFloored) {
  EXPECT_DOUBLE_EQ(QError(100, 400), 4.0);
  EXPECT_DOUBLE_EQ(QError(400, 100), 4.0);
  EXPECT_DOUBLE_EQ(QError(0, 3), 3.0);
}

TEST(RowHashTest, ChecksumIgnoresRowOrderButNotValues) {
  using daisy::Value;
  const std::vector<Value> r1 = {Value(int64_t{1}), Value(2.5), Value("a")};
  const std::vector<Value> r2 = {Value(int64_t{2}), Value(2.5), Value("a")};
  EXPECT_EQ(RowHash(r1) + RowHash(r2), RowHash(r2) + RowHash(r1));
  EXPECT_NE(RowHash(r1), RowHash(r2));
  // Type matters: int 1 and double 1.0 differ.
  EXPECT_NE(RowHash({Value(int64_t{1})}), RowHash({Value(1.0)}));
}

TEST(JsonTest, NumbersRoundTripAndStringsEscape) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(std::stod(JsonNumber(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace e2e
