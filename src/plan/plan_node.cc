#include "plan/plan_node.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "detect/group_by.h"
#include "query/eval.h"

namespace daisy {

const char* QueryTerminationToString(QueryTermination t) {
  switch (t) {
    case QueryTermination::kComplete:
      return "complete";
    case QueryTermination::kRowLimit:
      return "row-limit";
    case QueryTermination::kTimeout:
      return "timeout";
    case QueryTermination::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Status ExecContext::CheckResources(PlanNode* node) {
  ++checks;
  QueryTermination trip = QueryTermination::kComplete;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    trip = QueryTermination::kCancelled;
  } else if (trip_after_checks != 0 && checks >= trip_after_checks) {
    trip = QueryTermination::kCancelled;
  } else if (has_deadline &&
             std::chrono::steady_clock::now() >= deadline) {
    trip = QueryTermination::kTimeout;
  }
  if (trip == QueryTermination::kComplete) return Status::OK();
  termination = trip;
  cut_node = node->Label();
  node->stats().cut = trip;
  if (trip == QueryTermination::kTimeout) {
    return Status::Timeout("query deadline exceeded at " + cut_node);
  }
  return Status::Cancelled("query cancelled at " + cut_node);
}

void PlanNode::ResetStatsRecursive() {
  stats_ = NodeStats{};
  for (const auto& child : children_) child->ResetStatsRecursive();
}

Result<std::vector<RowId>> RowSetNode::Drain(ExecContext* ctx) {
  DAISY_RETURN_IF_ERROR(Open(ctx));
  std::vector<RowId> out;
  RowIdBatch batch;
  while (true) {
    DAISY_ASSIGN_OR_RETURN(bool more, NextBatch(ctx, &batch));
    if (!more) break;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

// ------------------------------------------------------------------ Scan --

ScanNode::ScanNode(const Table* table)
    : RowSetNode(Kind::kScan), table_(table) {}

std::string ScanNode::Label() const {
  return "Scan [" + table_->name() + "]";
}

Status ScanNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  pos_ = 0;
  // Snapshot pin: rows appended after this point (there are none while the
  // engine's lock protocol holds; Plan::Execute trips otherwise) stay
  // invisible for the whole execution instead of appearing mid-scan.
  end_ = table_->Snapshot().num_rows;
  ctx->rows_scanned += table_->num_live_rows();
  return Status::OK();
}

Result<bool> ScanNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  const size_t n = end_;
  if (pos_ >= n) return false;
  out->clear();
  out->reserve(std::min(ctx->batch_size, n - pos_));
  // Tombstoned rows are invisible to every operator above the scan.
  while (pos_ < n && out->size() < ctx->batch_size) {
    if (table_->is_live(pos_)) out->push_back(pos_);
    ++pos_;
  }
  stats_.rows_out += out->size();
  ++stats_.batches;
  return true;
}

// ---------------------------------------------------------------- Filter --

FilterNode::FilterNode(const Table* table, const Expr* expr,
                       std::unique_ptr<PlanNode> child)
    : RowSetNode(Kind::kFilter), table_(table), expr_(expr) {
  child_rows_ = static_cast<RowSetNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string FilterNode::Label() const {
  // The compiled filter is the only evaluator; the tag stays so EXPLAIN
  // text (goldens, recorded plans) keeps its shape.
  return "Filter [" + table_->name() + ": " + expr_->ToString() +
         "] [columnar]";
}

Status FilterNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_RETURN_IF_ERROR(child_rows_->Open(ctx));
  parallel_ = false;
  parallel_rows_.clear();
  parallel_pos_ = 0;
  DAISY_ASSIGN_OR_RETURN(CompiledFilter compiled,
                         CompiledFilter::Compile(*table_, *expr_));
  compiled_ = std::make_unique<CompiledFilter>(std::move(compiled));
  // Minimum-work gate: below two morsels the thread create/join overhead
  // exceeds the scan itself, so small tables keep the serial pull.
  if (ctx->worker_threads > 1 && children_[0]->kind() == Kind::kScan &&
      table_->Snapshot().num_rows >= 2 * kMorselRows) {
    DAISY_RETURN_IF_ERROR(ParallelScan(ctx));
    parallel_ = true;
  }
  return Status::OK();
}

Status FilterNode::ParallelScan(ExecContext* ctx) {
  // The child Scan was Opened (snapshot pinned, rows_scanned accounted)
  // but is not pulled: the morsel pool scans the same pinned range
  // directly against the compiled filter.
  const size_t n = table_->Snapshot().num_rows;
  const size_t morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<std::vector<RowId>> matches(morsels);
  std::vector<size_t> live_in_morsel(morsels, 0);
  std::atomic<size_t> next{0};
  std::atomic<bool> interrupted{false};
  auto work = [&]() {
    while (true) {
      const size_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels) break;
      // Per-morsel cancellation probe (read-only, so safe off-thread); the
      // serial CheckResources below records the cut after the pool joins.
      if (interrupted.load(std::memory_order_relaxed) ||
          ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      const RowId lo = m * kMorselRows;
      const RowId hi = std::min<RowId>(n, lo + kMorselRows);
      std::vector<RowId>& out = matches[m];
      for (RowId r = lo; r < hi; ++r) {
        if (!table_->is_live(r)) continue;
        ++live_in_morsel[m];
        if (compiled_->Matches(r)) out.push_back(r);
      }
    }
  };
  const size_t workers =
      std::min(ctx->worker_threads, std::max<size_t>(1, morsels));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t t = 0; t < workers; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (interrupted.load(std::memory_order_relaxed)) {
    // The same condition the workers observed still holds (cancel flags
    // stay set, deadlines stay expired), so this records the cut here and
    // returns the typed error; the partial morsel results are discarded.
    DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  }

  // Deterministic merge: morsel order == ascending row order == the exact
  // stream the serial pull produces.
  size_t total_live = 0, total_matches = 0;
  for (size_t m = 0; m < morsels; ++m) {
    total_live += live_in_morsel[m];
    total_matches += matches[m].size();
  }
  parallel_rows_.reserve(total_matches);
  for (std::vector<RowId>& m : matches) {
    parallel_rows_.insert(parallel_rows_.end(), m.begin(), m.end());
  }
  // The bypassed Scan still reports what it (logically) produced; this
  // node's own counters accrue as the materialized stream is served.
  NodeStats& scan_stats = children_[0]->stats();
  scan_stats.rows_out = total_live;
  scan_stats.batches = morsels;
  stats_.rows_in = total_live;
  return Status::OK();
}

Result<bool> FilterNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  if (parallel_) {
    DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
    if (parallel_pos_ >= parallel_rows_.size()) return false;
    const size_t count =
        std::min(ctx->batch_size, parallel_rows_.size() - parallel_pos_);
    out->assign(parallel_rows_.begin() + parallel_pos_,
                parallel_rows_.begin() + parallel_pos_ + count);
    parallel_pos_ += count;
    stats_.rows_out += count;
    ++stats_.batches;
    return true;
  }
  RowIdBatch in;
  DAISY_ASSIGN_OR_RETURN(bool more, child_rows_->NextBatch(ctx, &in));
  if (!more) return false;
  stats_.rows_in += in.size();
  out->clear();
  for (RowId r : in) {
    if (compiled_->Matches(r)) out->push_back(r);
  }
  stats_.rows_out += out->size();
  ++stats_.batches;
  return true;
}

// ----------------------------------------------------------- CleanSelect --

std::string CleanRuleStep::Label() const {
  return "CleanSelect [rule=" + dc->name() + (dc->IsFd() ? " fd" : " dc") +
         "]" + (adaptive ? " [adaptive]" : "") +
         (deferred ? " [deferred]" : "");
}

Result<CleanSelectResult> CleanRuleStep::Run(PlanNode* node, ExecContext* ctx,
                                             const std::vector<RowId>& rows,
                                             bool* switched) const {
  // Per-rule boundary: a rule's Run is all-or-nothing, so cutting here —
  // after the input was materialized but before this rule cleaned — leaves
  // the cleaning state exactly the prefix of rules that ran before it.
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(node));
  DAISY_ASSIGN_OR_RETURN(CleanSelectResult cres,
                         op->Run(filter, rows, options));

  PlanNode::NodeStats& stats = node->stats();
  CleaningExecStats& cs = ctx->cleaning;
  ++cs.rules_applied;
  if (deferred) ++cs.rules_deferred;
  if (cres.pruned) {
    ++cs.rules_pruned;
    stats.pruned = true;
  }
  cs.extra_tuples += cres.extra_tuples;
  cs.errors_fixed += cres.errors_fixed;
  cs.tuples_scanned += cres.tuples_scanned;
  cs.detect_ops += cres.detect_ops;
  cs.delta_rows_checked += cres.delta_rows_checked;
  stats.delta_rows_checked = cres.delta_rows_checked;
  cs.used_dc_full_clean |= cres.used_full_clean;
  cs.min_estimated_accuracy =
      std::min(cs.min_estimated_accuracy, cres.estimated_accuracy);

  // Cost-model bookkeeping and the adaptive switch (Section 5.2.3). Pruned
  // invocations did no relaxation/repair work and accrue no incremental
  // cost. The planner armed `adaptive` at construction; the trigger itself
  // is inherently data-dependent.
  const double width =
      rule_stats != nullptr ? rule_stats->avg_candidates : 2.0;
  if (!cres.pruned) {
    QueryCostSample sample;
    sample.dataset_size = table->num_live_rows();
    sample.result_size = cres.final_rows.size();
    sample.extra_size = cres.extra_tuples;
    sample.errors = cres.errors_fixed;
    sample.detect_ops = cres.detect_ops;
    sample.candidate_width = width;
    cost->RecordQuery(sample);
  }
  if (adaptive && !op->fully_checked()) {
    const size_t epsilon = rule_stats != nullptr
                               ? rule_stats->num_violating_rows
                               : table->num_live_rows() / 10;
    const size_t groups = rule_stats != nullptr
                              ? rule_stats->num_violating_groups
                              : std::max<size_t>(1, epsilon / 10);
    if (cost->ShouldSwitchToFull(table->num_live_rows(), groups, epsilon,
                                 width)) {
      // The full-clean sweep is another all-or-nothing unit; re-check the
      // budget before committing to it.
      DAISY_RETURN_IF_ERROR(ctx->CheckResources(node));
      DAISY_ASSIGN_OR_RETURN(CleanSelectResult fres, op->CleanRemaining());
      cs.switched_to_full = true;
      stats.switched_to_full = true;
      cs.errors_fixed += fres.errors_fixed;
      if (switched != nullptr) *switched = true;
    }
  }
  return cres;
}

CleanSelectNode::CleanSelectNode(CleanRuleStep step,
                                 std::unique_ptr<PlanNode> child)
    : RowSetNode(Kind::kCleanSelect), step_(step) {
  child_rows_ = static_cast<RowSetNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string CleanSelectNode::Label() const { return step_.Label(); }

Status CleanSelectNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  rows_.clear();
  pos_ = 0;
  DAISY_ASSIGN_OR_RETURN(std::vector<RowId> rows, child_rows_->Drain(ctx));
  stats_.rows_in = rows.size();
  bool switched = false;
  DAISY_ASSIGN_OR_RETURN(CleanSelectResult cres,
                         step_.Run(this, ctx, rows, &switched));
  if (switched) {
    // Recompute the qualifying rows over the now-clean table.
    DAISY_ASSIGN_OR_RETURN(rows_, FilterRows(*step_.table, step_.filter,
                                             step_.table->AllRowIds()));
  } else {
    rows_ = std::move(cres.final_rows);
  }
  return Status::OK();
}

Result<bool> CleanSelectNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  if (pos_ >= rows_.size()) return false;
  const size_t count = std::min(ctx->batch_size, rows_.size() - pos_);
  out->assign(rows_.begin() + pos_, rows_.begin() + pos_ + count);
  pos_ += count;
  stats_.rows_out += count;
  ++stats_.batches;
  return true;
}

// -------------------------------------------------------------- HashJoin --

namespace {

// The possible-candidate equality the hash probe implements, for one
// (probe, build) pair: a possible value of the probe cell equals one of
// the build cell's hash keys (its point candidates, or its original when
// certain), or the build cell carries a range candidate CellsMayMatch
// admits.
bool KeysMayMatch(const Cell& probe, const Cell& build) {
  const std::vector<Value> probe_values = probe.PossibleValues();
  if (!build.is_probabilistic()) {
    return std::find(probe_values.begin(), probe_values.end(),
                     build.original()) != probe_values.end();
  }
  bool has_range = false;
  for (const Candidate& c : build.candidates()) {
    if (c.kind != CandidateKind::kPoint) {
      has_range = true;
      continue;
    }
    if (std::find(probe_values.begin(), probe_values.end(), c.value) !=
        probe_values.end()) {
      return true;
    }
  }
  return has_range && CellsMayMatch(probe, CompareOp::kEq, build);
}

std::string PredToString(const std::vector<const Table*>& tables,
                         const JoinPred& p) {
  return tables[p.left_table]->name() + "." +
         tables[p.left_table]->schema().column(p.left_col).name + " = " +
         tables[p.right_table]->name() + "." +
         tables[p.right_table]->schema().column(p.right_col).name;
}

}  // namespace

HashJoinNode::HashJoinNode(Kind kind, const std::vector<const Table*>* tables,
                           std::vector<JoinPred> preds, uint64_t left_mask,
                           uint64_t right_mask, int left_from, int right_from,
                           bool build_left, std::unique_ptr<PlanNode> left,
                           std::unique_ptr<PlanNode> right)
    : JoinSourceNode(kind),
      tables_(tables),
      preds_(std::move(preds)),
      left_mask_(left_mask),
      right_mask_(right_mask),
      left_from_(left_from),
      right_from_(right_from),
      build_left_(build_left) {
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

std::string HashJoinNode::Label() const {
  std::ostringstream oss;
  oss << (kind_ == Kind::kCleanJoin ? "CleanJoin [" : "HashJoin [");
  if (preds_.empty()) oss << "cartesian";
  for (size_t i = 0; i < preds_.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << PredToString(*tables_, preds_[i]);
  }
  oss << "] [build=" << (build_left_ ? "left" : "right") << "]";
  return oss.str();
}

Result<std::vector<JoinedRow>> HashJoinNode::SideRows(ExecContext* ctx,
                                                      size_t side) {
  PlanNode* child = children_[side].get();
  const int from = side == 0 ? left_from_ : right_from_;
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  if (from >= 0) {
    auto* rows_child = static_cast<RowSetNode*>(child);
    DAISY_ASSIGN_OR_RETURN(std::vector<RowId> rows, rows_child->Drain(ctx));
    std::vector<JoinedRow> out;
    out.reserve(rows.size());
    for (RowId r : rows) {
      JoinedRow j(tables_->size(), 0);
      j[static_cast<size_t>(from)] = r;
      out.push_back(std::move(j));
    }
    return out;
  }
  return static_cast<JoinSourceNode*>(child)->ExecuteJoined(ctx);
}

Result<std::vector<JoinedRow>> HashJoinNode::ExecuteJoined(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_ASSIGN_OR_RETURN(std::vector<JoinedRow> left, SideRows(ctx, 0));
  DAISY_ASSIGN_OR_RETURN(std::vector<JoinedRow> right, SideRows(ctx, 1));
  stats_.rows_in += left.size() + right.size();
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));

  std::vector<JoinedRow>& build = build_left_ ? left : right;
  std::vector<JoinedRow>& probe = build_left_ ? right : left;
  const uint64_t build_mask = build_left_ ? left_mask_ : right_mask_;
  std::vector<JoinedRow> out;
  auto emit = [&](const JoinedRow& prow, const JoinedRow& b) {
    JoinedRow j = prow;
    for (size_t t = 0; t < j.size(); ++t) {
      if (((build_mask >> t) & 1u) != 0) j[t] = b[t];
    }
    out.push_back(std::move(j));
  };

  if (preds_.empty()) {
    out.reserve(probe.size() * build.size());
    for (const JoinedRow& prow : probe) {
      for (const JoinedRow& b : build) emit(prow, b);
    }
  } else {
    // Each predicate resolved into its build-side and probe-side ends.
    struct Ends {
      size_t bt, bc, pt, pc;
    };
    std::vector<Ends> ends;
    ends.reserve(preds_.size());
    for (const JoinPred& p : preds_) {
      if (((build_mask >> p.left_table) & 1u) != 0) {
        ends.push_back({p.left_table, p.left_col, p.right_table, p.right_col});
      } else {
        ends.push_back({p.right_table, p.right_col, p.left_table, p.left_col});
      }
    }
    const Ends& key = ends[0];
    auto others_match = [&](const JoinedRow& prow, const JoinedRow& b) {
      for (size_t k = 1; k < ends.size(); ++k) {
        const Ends& e = ends[k];
        if (!KeysMayMatch((*tables_)[e.pt]->cell(prow[e.pt], e.pc),
                          (*tables_)[e.bt]->cell(b[e.bt], e.bc))) {
          return false;
        }
      }
      return true;
    };
    const Table& btab = *(*tables_)[key.bt];
    const Table& ptab = *(*tables_)[key.pt];

    // Build: every point candidate of a build row's key cell hashes the
    // build index; rows whose cell carries range candidates also go to a
    // linear-probe side list. Keyed by build-side tuple index instead of
    // base row id so each joined build tuple pairs with each probe tuple
    // at most once.
    std::unordered_map<Value, std::vector<size_t>, ValueHash> hash;
    std::vector<size_t> range_rows;
    hash.reserve(build.size());
    for (size_t i = 0; i < build.size(); ++i) {
      const Cell& cell = btab.cell(build[i][key.bt], key.bc);
      bool has_range = false;
      if (cell.is_probabilistic()) {
        for (const Candidate& c : cell.candidates()) {
          if (c.kind != CandidateKind::kPoint) {
            has_range = true;
            continue;
          }
          hash[c.value].push_back(i);
        }
      } else {
        hash[cell.original()].push_back(i);
      }
      if (has_range) range_rows.push_back(i);
    }

    std::vector<size_t> matched;
    for (const JoinedRow& prow : probe) {
      const Cell& pcell = ptab.cell(prow[key.pt], key.pc);
      matched.clear();
      for (const Value& v : pcell.PossibleValues()) {
        auto it = hash.find(v);
        if (it == hash.end()) continue;
        matched.insert(matched.end(), it->second.begin(), it->second.end());
      }
      std::sort(matched.begin(), matched.end());
      matched.erase(std::unique(matched.begin(), matched.end()),
                    matched.end());
      // Range rows append to the tail; membership checks must stay within
      // the sorted hash-match prefix.
      const size_t sorted_end = matched.size();
      for (size_t i : range_rows) {
        if (std::binary_search(matched.begin(), matched.begin() + sorted_end,
                               i)) {
          continue;
        }
        if (CellsMayMatch(pcell, CompareOp::kEq,
                          btab.cell(build[i][key.bt], key.bc))) {
          matched.push_back(i);
        }
      }
      // The remaining predicates filter the hashed matches.
      if (ends.size() > 1) {
        matched.erase(std::remove_if(matched.begin(), matched.end(),
                                     [&](size_t i) {
                                       return !others_match(prow, build[i]);
                                     }),
                      matched.end());
      }
      // Per-probe emission sorted by build tuple: when the build child is a
      // leaf this is its row-id order, which is what lets the planner skip
      // the root sort on FROM-order trees.
      std::sort(matched.begin(), matched.end(),
                [&build](size_t a, size_t b) { return build[a] < build[b]; });
      for (size_t i : matched) emit(prow, build[i]);
    }
  }

  // Canonical order at the tree root: a left-deep FROM-order tree emits
  // rows lexicographically sorted by FROM-position row-id tuple (per-step
  // sorted extension of an inductively sorted prefix), so sorting here
  // makes any join order produce byte-identical output. The planner skips
  // it when the tree IS the FROM-order chain.
  if (sort_output_) std::sort(out.begin(), out.end());
  stats_.rows_out = out.size();
  ++stats_.batches;
  return out;
}

// ----------------------------------------------------------- CleanJoined --

CleanJoinedNode::CleanJoinedNode(CleanRuleStep step, size_t table_idx,
                                 std::unique_ptr<PlanNode> child)
    : JoinSourceNode(Kind::kCleanSelect), step_(step), table_idx_(table_idx) {
  child_join_ = static_cast<JoinSourceNode*>(child.get());
  children_.push_back(std::move(child));
}

Result<std::vector<JoinedRow>> CleanJoinedNode::ExecuteJoined(
    ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_ASSIGN_OR_RETURN(std::vector<JoinedRow> joined,
                         child_join_->ExecuteJoined(ctx));
  stats_.rows_in = joined.size();

  // The distinct rows this table contributes to the join survivors — the
  // only rows of it whose cells the answer can possibly read. A selective
  // join below makes this set (much) smaller than the full qualifying set
  // the in-chain placement would clean.
  std::vector<RowId> rows;
  rows.reserve(joined.size());
  for (const JoinedRow& j : joined) rows.push_back(j[table_idx_]);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  DAISY_RETURN_IF_ERROR(step_.Run(this, ctx, rows, nullptr).status());
  // No qualifying-row recompute after a full-clean switch: the planner's
  // placement gate guarantees the rule's repairs touch no filter or
  // join-key column, so the joined row set is invariant under the full
  // clean.

  // The joined rows pass through unchanged — the placement gate makes them
  // invariant under this rule's repairs; the output builder above reads
  // the repaired cells.
  stats_.rows_out = joined.size();
  ++stats_.batches;
  return joined;
}

// ---------------------------------------------------------------- Output --

namespace {

struct BoundItem {
  bool star = false;
  size_t table_idx = 0;
  size_t col_idx = 0;
  AggFunc agg = AggFunc::kNone;
  std::string out_name;
  ValueType out_type = ValueType::kString;
};

Result<std::vector<BoundItem>> BindSelectList(
    const SelectStmt& stmt, const std::vector<const Table*>& tables) {
  std::vector<BoundItem> items;
  auto resolve = [&](const ColumnRef& ref, size_t* t_idx,
                     size_t* c_idx) -> Status {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!ref.table.empty() && tables[i]->name() != ref.table) continue;
      auto idx = tables[i]->schema().ColumnIndex(ref.column);
      if (idx.ok()) {
        *t_idx = i;
        *c_idx = idx.value();
        return Status::OK();
      }
      if (!ref.table.empty()) return idx.status();
    }
    return Status::NotFound("cannot resolve select column " + ref.ToString());
  };
  for (const SelectItem& item : stmt.select_list) {
    if (item.star && item.agg == AggFunc::kNone) {
      // Expand `*` into every column of every table.
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t c = 0; c < tables[i]->schema().num_columns(); ++c) {
          BoundItem b;
          b.table_idx = i;
          b.col_idx = c;
          b.out_name = tables.size() > 1
                           ? tables[i]->name() + "." +
                                 tables[i]->schema().column(c).name
                           : tables[i]->schema().column(c).name;
          b.out_type = tables[i]->schema().column(c).type;
          items.push_back(std::move(b));
        }
      }
      continue;
    }
    BoundItem b;
    b.agg = item.agg;
    if (item.star) {
      b.star = true;  // COUNT(*)
      b.out_name = item.alias.empty() ? "count" : item.alias;
      b.out_type = ValueType::kInt;
      items.push_back(std::move(b));
      continue;
    }
    DAISY_RETURN_IF_ERROR(resolve(item.col, &b.table_idx, &b.col_idx));
    const Column& src = tables[b.table_idx]->schema().column(b.col_idx);
    b.out_name = !item.alias.empty()
                     ? item.alias
                     : (item.agg == AggFunc::kNone
                            ? (tables.size() > 1
                                   ? tables[b.table_idx]->name() + "." +
                                         src.name
                                   : src.name)
                            : std::string(AggFuncToString(item.agg)) + "_" +
                                  src.name);
    if (item.agg == AggFunc::kNone) {
      b.out_type = src.type;
    } else if (item.agg == AggFunc::kCount) {
      b.out_type = ValueType::kInt;
    } else if (item.agg == AggFunc::kMin || item.agg == AggFunc::kMax) {
      b.out_type = src.type;
    } else {
      b.out_type = ValueType::kDouble;
    }
    items.push_back(std::move(b));
  }
  return items;
}

// Aggregation accumulator over most-probable values.
struct AggState {
  double sum = 0;
  size_t count = 0;
  Value min;
  Value max;

  void Add(const Value& v) {
    ++count;
    if (v.is_numeric()) sum += v.AsDouble();
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || v > max) max = v;
  }

  Value Finish(AggFunc f, ValueType out_type) const {
    switch (f) {
      case AggFunc::kCount:
        return Value(static_cast<int64_t>(count));
      case AggFunc::kSum:
        return out_type == ValueType::kInt
                   ? Value(static_cast<int64_t>(sum))
                   : Value(sum);
      case AggFunc::kAvg:
        return count == 0 ? Value::Null()
                          : Value(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
      case AggFunc::kNone:
        return Value::Null();
    }
    return Value::Null();
  }
};

// Projects or groups-and-aggregates the joined rows into the result.
Result<QueryOutput> BuildOutput(const SelectStmt& stmt,
                                const std::vector<const Table*>& tables,
                                std::vector<JoinedRow> joined) {
  DAISY_ASSIGN_OR_RETURN(std::vector<BoundItem> items,
                         BindSelectList(stmt, tables));
  QueryOutput out;
  for (const Table* t : tables) out.table_names.push_back(t->name());

  std::vector<Column> out_cols;
  out_cols.reserve(items.size());
  for (const BoundItem& b : items) out_cols.push_back({b.out_name, b.out_type});

  const bool aggregating = stmt.has_aggregate() || !stmt.group_by.empty();
  if (!aggregating) {
    out.result = Table("result", Schema(std::move(out_cols)));
    out.result.Reserve(joined.size());
    for (const JoinedRow& j : joined) {
      Row row;
      row.cells.reserve(items.size());
      for (const BoundItem& b : items) {
        row.cells.push_back(
            tables[b.table_idx]->cell(j[b.table_idx], b.col_idx));
      }
      out.result.AppendRowUnchecked(std::move(row));
    }
    out.lineage = std::move(joined);
    return out;
  }

  // Bind group-by columns.
  std::vector<std::pair<size_t, size_t>> group_cols;  // (table, col)
  for (const ColumnRef& ref : stmt.group_by) {
    bool found = false;
    for (size_t i = 0; i < tables.size() && !found; ++i) {
      if (!ref.table.empty() && tables[i]->name() != ref.table) continue;
      auto idx = tables[i]->schema().ColumnIndex(ref.column);
      if (idx.ok()) {
        group_cols.emplace_back(i, idx.value());
        found = true;
      }
    }
    if (!found) {
      return Status::NotFound("cannot resolve group-by column " +
                              ref.ToString());
    }
  }

  struct GroupAgg {
    GroupKey key;
    std::vector<AggState> states;
  };
  std::unordered_map<GroupKey, size_t, GroupKeyHash, GroupKeyEq> index;
  std::vector<GroupAgg> groups;
  for (const JoinedRow& j : joined) {
    GroupKey key;
    key.reserve(group_cols.size());
    for (const auto& [t, c] : group_cols) {
      key.push_back(tables[t]->cell(j[t], c).MostProbable());
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.push_back({key, std::vector<AggState>(items.size())});
    }
    GroupAgg& g = groups[it->second];
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      if (b.agg == AggFunc::kNone) continue;
      if (b.star) {
        g.states[i].Add(Value(static_cast<int64_t>(1)));
      } else {
        g.states[i].Add(tables[b.table_idx]->cell(j[b.table_idx], b.col_idx)
                            .MostProbable());
      }
    }
  }

  out.result = Table("result", Schema(std::move(out_cols)));
  out.result.Reserve(groups.size());
  for (const GroupAgg& g : groups) {
    Row row;
    row.cells.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      if (b.agg != AggFunc::kNone) {
        row.cells.emplace_back(g.states[i].Finish(b.agg, b.out_type));
        continue;
      }
      // Non-aggregate column: must be a group-by key; take its value.
      Value v;
      for (size_t k = 0; k < group_cols.size(); ++k) {
        if (group_cols[k].first == b.table_idx &&
            group_cols[k].second == b.col_idx) {
          v = g.key[k];
          break;
        }
      }
      row.cells.emplace_back(std::move(v));
    }
    out.result.AppendRowUnchecked(std::move(row));
  }
  out.lineage = std::move(joined);
  return out;
}

}  // namespace

OutputNode::OutputNode(Kind kind, const SelectStmt* stmt,
                       const std::vector<const Table*>* tables,
                       std::unique_ptr<PlanNode> child)
    : PlanNode(kind), stmt_(stmt), tables_(tables) {
  children_.push_back(std::move(child));
}

std::string OutputNode::Label() const {
  std::ostringstream oss;
  oss << (kind_ == Kind::kAggregate ? "Aggregate [select=[" : "Project [");
  for (size_t i = 0; i < stmt_->select_list.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << stmt_->select_list[i].ToString();
  }
  if (kind_ == Kind::kAggregate) {
    oss << "]";
    if (!stmt_->group_by.empty()) {
      oss << " group_by=[";
      for (size_t i = 0; i < stmt_->group_by.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << stmt_->group_by[i].ToString();
      }
      oss << "]";
    }
  }
  oss << "]";
  return oss.str();
}

Result<QueryOutput> OutputNode::ExecuteOutput(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  // The row limit only truncates what the client receives. Cleaning (and,
  // for projections, the SPJ pipeline past the limit) still completes —
  // CleanSelect children clean their whole qualifying set at Open — so a
  // row-limited query leaves exactly the state of its unlimited twin.
  auto mark_row_limit = [&] {
    if (ctx->termination == QueryTermination::kComplete) {
      ctx->termination = QueryTermination::kRowLimit;
      ctx->cut_node = Label();
      stats_.cut = QueryTermination::kRowLimit;
    }
  };
  std::vector<JoinedRow> joined;
  PlanNode* child = children_[0].get();
  const size_t limit = kind_ == Kind::kProject ? ctx->row_limit : 0;
  if (auto* join_child = dynamic_cast<JoinSourceNode*>(child)) {
    DAISY_ASSIGN_OR_RETURN(joined, join_child->ExecuteJoined(ctx));
    if (limit != 0 && joined.size() > limit) {
      joined.resize(limit);
      mark_row_limit();
    }
  } else {
    auto* rows_child = static_cast<RowSetNode*>(child);
    DAISY_RETURN_IF_ERROR(rows_child->Open(ctx));
    std::vector<RowId> rows;
    RowIdBatch batch;
    bool truncated = false;
    while (true) {
      DAISY_ASSIGN_OR_RETURN(bool more, rows_child->NextBatch(ctx, &batch));
      if (!more) break;
      rows.insert(rows.end(), batch.begin(), batch.end());
      if (limit != 0 && rows.size() > limit) {
        truncated = true;
        break;
      }
    }
    if (truncated) {
      rows.resize(limit);
      mark_row_limit();
    }
    joined.reserve(rows.size());
    for (RowId r : rows) joined.push_back(JoinedRow{r});
  }
  stats_.rows_in = joined.size();
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  DAISY_ASSIGN_OR_RETURN(
      QueryOutput out,
      BuildOutput(*stmt_, *tables_, std::move(joined)));
  if (kind_ == Kind::kAggregate && ctx->row_limit != 0 &&
      out.result.num_rows() > ctx->row_limit) {
    // Aggregates only know their output cardinality after grouping;
    // rebuild the result with the first `row_limit` groups (cells keep
    // their candidate sets).
    Table head(out.result.name(), out.result.schema());
    head.Reserve(ctx->row_limit);
    for (RowId r = 0; r < ctx->row_limit; ++r) {
      head.AppendRowUnchecked(out.result.row(r));
    }
    out.result = std::move(head);
    mark_row_limit();
  }
  stats_.rows_out = out.result.num_rows();
  ++stats_.batches;
  return out;
}

// --------------------------------------------------------------- Explain --

namespace {

void RenderNode(const PlanNode& node, size_t depth, bool executed,
                std::ostringstream* oss) {
  if (node.HiddenInExplain()) {
    for (const auto& child : node.children()) {
      RenderNode(*child, depth, executed, oss);
    }
    return;
  }
  for (size_t i = 0; i < depth; ++i) *oss << "  ";
  *oss << node.Label();
  if (node.est_rows() >= 0.0) {
    *oss << " est_rows=" << static_cast<long long>(std::llround(node.est_rows()))
         << " est_cost="
         << static_cast<long long>(std::llround(node.est_cost()));
  }
  if (executed) {
    *oss << " rows=" << node.stats().rows_out;
    if (node.stats().delta_rows_checked > 0) {
      *oss << " delta rows checked: " << node.stats().delta_rows_checked;
    }
    if (node.stats().pruned) *oss << " pruned";
    if (node.stats().switched_to_full) *oss << " switched-to-full";
    if (node.stats().cut != QueryTermination::kComplete) {
      *oss << " cut=" << QueryTerminationToString(node.stats().cut);
    }
  }
  *oss << "\n";
  for (const auto& child : node.children()) {
    RenderNode(*child, depth + 1, executed, oss);
  }
}

void RenderTraceNode(const PlanNode& node, size_t depth,
                     std::ostringstream* oss) {
  if (node.HiddenInExplain()) {
    for (const auto& child : node.children()) {
      RenderTraceNode(*child, depth, oss);
    }
    return;
  }
  for (size_t i = 0; i < depth; ++i) *oss << "  ";
  *oss << node.Label() << " open_us=" << node.stats().open_us
       << " next_us=" << node.stats().next_us
       << " rows=" << node.stats().rows_out << "\n";
  for (const auto& child : node.children()) {
    RenderTraceNode(*child, depth + 1, oss);
  }
}

}  // namespace

std::string RenderPlanTree(const PlanNode& root, bool executed) {
  std::ostringstream oss;
  RenderNode(root, 0, executed, &oss);
  return oss.str();
}

std::string RenderPlanTrace(const PlanNode& root) {
  std::ostringstream oss;
  RenderTraceNode(root, 0, &oss);
  return oss.str();
}

}  // namespace daisy
