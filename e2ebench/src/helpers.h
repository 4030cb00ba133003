// Helpers of the end-to-end benchmark program (main.cc): the named-
// percentile rule, in-memory spans with self time, the parser of the
// `trace:` page DaisyEngine::ExplainAnalyze renders, an order-insensitive
// result checksum, and a small JSON writer. Unit-tested by
// tests/helpers_test.cc.

#ifndef E2EBENCH_HELPERS_H_
#define E2EBENCH_HELPERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace e2e {

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// A named percentile is reported only when at least this many samples lie
/// above it, so p50 needs 20 samples, p90 needs 100 and p95 needs 200.
constexpr size_t kMinSamplesAbove = 10;

/// Nearest-rank percentile of `samples` at quantile `q` (0 < q < 1).
struct Percentile {
  bool supported = false;  ///< false: too few samples; `value` is 0
  double value = 0;
  size_t samples = 0;
  size_t above = 0;  ///< samples strictly ranked above the reported one
};

/// Applies the rule: with n samples, the nearest rank is ceil(q*n) and the
/// n - ceil(q*n) samples ranked above it must number kMinSamplesAbove or
/// more, else the percentile is refused (supported = false).
Percentile NamedPercentile(std::vector<double> samples, double q);

/// Median by nearest rank, without the sample rule (used for medians of a
/// handful of repeated set-up or recovery timings).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One timed call. `parent` indexes the same SpanRecorder (-1 = root);
/// spans of one benchmark operation share `op_id`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t op_id = 0;
};

/// Records spans in memory (one recorder per thread; not thread-safe).
class SpanRecorder {
 public:
  /// Opens a span now; returns its index for End() and as a parent.
  int Begin(const std::string& name, int parent, uint64_t op_id);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  /// Appends `other`'s spans, re-basing their parent indexes.
  void Merge(const SpanRecorder& other);

 private:
  std::vector<Span> spans_;
};

/// RAII helper: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int parent,
             uint64_t op_id)
      : rec_(rec), index_(rec->Begin(name, parent, op_id)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Steady-clock nanoseconds.
int64_t NowNs();

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may nest
/// their own children, overlap one another, or stick out of the parent;
/// only the covered part inside the parent counts).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// ExplainAnalyze pages.
// ---------------------------------------------------------------------------

/// One operator of a rendered plan. Kind is the label's first word
/// (Scan, Filter, CleanSelect, HashJoin, CleanJoin, Aggregate, Project).
struct PlanLine {
  std::string kind;
  std::string label;
  int depth = 0;
  // Plan section (est_rows < 0 when the node carries no estimate).
  double est_rows = -1;
  uint64_t rows = 0;
  bool switched_to_full = false;
  // Trace section.
  uint64_t open_us = 0;
  uint64_t next_us = 0;
  uint64_t inclusive_us() const { return open_us + next_us; }
  /// inclusive_us minus the children's inclusive_us (floored at 0).
  uint64_t self_us = 0;
};

struct AnalyzePage {
  std::vector<PlanLine> plan;   ///< the annotated plan tree, pre-order
  std::vector<PlanLine> trace;  ///< the `trace:` section, pre-order
};

/// Parses an ExplainAnalyze rendering: the plan tree, then a `trace:` line,
/// then one `<label> open_us=N next_us=N rows=N` line per operator, both
/// indented two spaces per level. Fails (returns false, `error` set) on a
/// page without a trace section or with a malformed line.
bool ParseAnalyzePage(const std::string& text, AnalyzePage* page,
                      std::string* error);

/// max(est, actual) / min(est, actual), both floored at 1.
double QError(double est_rows, double actual_rows);

// ---------------------------------------------------------------------------
// Result checksum.
// ---------------------------------------------------------------------------

/// Order-insensitive checksum of a result: the wrapping sum of a 64-bit
/// hash of each row's values (type tag + exact bits), so equal multisets of
/// rows give equal sums however they are ordered.
uint64_t RowHash(const std::vector<daisy::Value>& row);

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s);
/// Shortest round-trip decimal form; non-finite values become 0.
std::string JsonNumber(double v);

}  // namespace e2e

#endif  // E2EBENCH_HELPERS_H_
