// Ingest-delta bench: delta detection vs full re-detection on the
// theta-join workload.
//
// Setup: a 50k-row salary/tax relation under the order DC
// ¬(t1.salary < t2.salary ∧ t1.tax > t2.tax), fully checked, then an
// append batch of {100, 1k, 10k} rows. Without delta maintenance the
// post-ingest query pays a full re-detection over n+d rows — DetectAll's
// order sweep for this DC shape, O(n log n + n²/64 + |V|), counting one
// pair per reported violation; the delta path (ApplyDelta, then
// DetectDelta — both timed) pays the partition rebuild and the new x old
// + new x new partial theta-join with pairwise partition pruning, counting
// every candidate pair. Both paths must produce the identical violation
// set (checked here per batch).
//
// Output: one line per batch size with both wall times, the checked-pair
// counts, and the speedup.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "detect/theta_join.h"

using namespace daisy;
using namespace daisy::bench;

namespace {

constexpr size_t kBaseRows = 50000;
constexpr size_t kPartitions = 64;
constexpr double kErrorFraction = 0.001;

void FillRow(Rng* rng, std::vector<Value>* row) {
  const double salary = rng->UniformDouble(1000, 100000);
  double tax = salary / 200000.0;
  if (rng->Bernoulli(kErrorFraction)) tax += rng->UniformDouble(0.1, 0.5);
  row->clear();
  row->push_back(Value(salary));
  row->push_back(Value(tax));
}

Table BaseTable(uint64_t seed) {
  Rng rng(seed);
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble}}));
  t.Reserve(kBaseRows);
  std::vector<Value> row;
  for (size_t i = 0; i < kBaseRows; ++i) {
    FillRow(&rng, &row);
    CheckOk(t.AppendRow(row), "append base row");
  }
  return t;
}

std::vector<std::vector<Value>> Batch(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows(n);
  for (size_t i = 0; i < n; ++i) FillRow(&rng, &rows[i]);
  return rows;
}

std::vector<ViolationPair> Sorted(std::vector<ViolationPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

int main() {
  WarmupHeap();
  BenchJsonWriter json("ingest_delta");
  std::printf("# Ingest delta: DetectDelta vs full re-detection "
              "(base=%zu rows, p=%zu, dc=salary/tax)\n",
              kBaseRows, kPartitions);
  std::printf("# %-8s %12s %12s %14s %14s %9s\n", "append", "delta_s",
              "full_s", "delta_pairs", "full_pairs", "speedup");

  const char* kRule = "dc: !(t1.salary < t2.salary & t1.tax > t2.tax)";
  for (size_t batch_size : {size_t{100}, size_t{1000}, size_t{10000}}) {
    // Delta path: warm detector over the base, then pay only the batch.
    Table delta_table = BaseTable(7);
    Schema schema = delta_table.schema();
    auto dc = UnwrapOrDie(ParseConstraint(kRule, "emp", schema), "parse dc");
    ThetaJoinDetector maintained(&delta_table, &dc, kPartitions);
    (void)maintained.DetectAll();
    TableDelta delta = UnwrapOrDie(
        delta_table.AppendRows(Batch(100 + batch_size, batch_size)),
        "append batch");

    Timer delta_timer;
    (void)maintained.ApplyDelta(delta);
    (void)maintained.DetectDelta(delta);
    const double delta_s = delta_timer.ElapsedSeconds();
    const size_t delta_pairs = maintained.pairs_checked();

    // Full path: what the pre-delta engine paid — re-detection from
    // scratch over the grown table.
    Table full_table = delta_table;
    ThetaJoinDetector scratch(&full_table, &dc, kPartitions);
    Timer full_timer;
    std::vector<ViolationPair> full = scratch.DetectAll();
    const double full_s = full_timer.ElapsedSeconds();
    const size_t full_pairs = scratch.pairs_checked();

    // Identical violation sets or the comparison is meaningless.
    if (maintained.maintained_violations() != Sorted(std::move(full))) {
      std::fprintf(stderr, "[bench] violation sets diverged at d=%zu\n",
                   batch_size);
      return 1;
    }

    std::printf("  %-8zu %12.4f %12.4f %14zu %14zu %8.1fx\n", batch_size,
                delta_s, full_s, delta_pairs, full_pairs,
                delta_s > 0 ? full_s / delta_s : 0.0);

    BenchResult result;
    result.name = "append_" + std::to_string(batch_size);
    result.wall_ms = delta_s * 1e3;
    result.counters = {{"full_ms", full_s * 1e3},
                       {"delta_pairs", static_cast<double>(delta_pairs)},
                       {"full_pairs", static_cast<double>(full_pairs)},
                       {"speedup", delta_s > 0 ? full_s / delta_s : 0.0}};
    result.config = {{"base_rows", std::to_string(kBaseRows)},
                     {"partitions", std::to_string(kPartitions)},
                     {"rule", kRule}};
    json.Add(std::move(result));
  }
  return 0;
}
