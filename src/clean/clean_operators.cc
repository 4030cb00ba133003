#include "clean/clean_operators.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "plan/compiled_filter.h"
#include "relax/relaxation.h"
#include "repair/dc_repair.h"
#include "repair/fd_repair.h"

namespace daisy {

CleanSelect::CleanSelect(Table* table, const DenialConstraint* dc,
                         ProvenanceStore* provenance, const Statistics* stats,
                         ThetaJoinDetector* theta)
    : table_(table),
      dc_(dc),
      provenance_(provenance),
      stats_(stats),
      theta_(theta) {
  checked_.assign(table_->num_rows(), false);
  for (RowId r = 0; r < checked_.size(); ++r) {
    if (!table_->is_live(r)) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
}

void CleanSelect::MarkChecked(const std::vector<RowId>& rows) {
  for (RowId r : rows) {
    if (!checked_[r]) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
}

CleanSelectPersistState CleanSelect::ExportPersistState() const {
  CleanSelectPersistState state;
  state.checked.reserve(checked_.size());
  for (bool b : checked_) state.checked.push_back(b ? 1 : 0);
  state.pending_rows = pending_rows_;
  state.pending_deltas = pending_deltas_;
  return state;
}

Status CleanSelect::ImportPersistState(const CleanSelectPersistState& state) {
  if (state.checked.size() != table_->num_rows()) {
    return Status::InvalidArgument(
        "cleanσ state for " + dc_->name() + " covers " +
        std::to_string(state.checked.size()) + " rows, table " +
        table_->name() + " has " + std::to_string(table_->num_rows()));
  }
  checked_.assign(state.checked.size(), false);
  checked_count_ = 0;
  for (size_t r = 0; r < state.checked.size(); ++r) {
    if (state.checked[r] != 0) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
  pending_rows_ = state.pending_rows;
  pending_deltas_ = state.pending_deltas;
  // The relaxation index stays lazy: its delta-maintained contents are
  // bit-identical to a fresh build over the restored table.
  relax_index_.reset();
  return Status::OK();
}

void CleanSelect::ApplyDelta(const TableDelta& delta,
                             const std::vector<RowId>& stale_rows) {
  if (!delta.appended.empty() && checked_.size() <= delta.appended.back()) {
    checked_.resize(delta.appended.back() + 1, false);
  }
  for (RowId r : delta.deleted) {
    if (r < checked_.size() && !checked_[r]) {
      checked_[r] = true;  // a tombstone needs no cleaning
      ++checked_count_;
    }
    // A pending arrival deleted before any query settled it is nothing.
    auto pending = std::find(pending_rows_.begin(), pending_rows_.end(), r);
    if (pending != pending_rows_.end()) pending_rows_.erase(pending);
  }
  for (RowId r : stale_rows) {
    // Earlier fixes of these rows may be incomplete against the new data
    // (e.g. an appended conflict for an already-repaired tuple): uncover
    // them so the next touching query re-runs relax -> detect -> repair.
    if (r < checked_.size() && checked_[r] && table_->is_live(r)) {
      checked_[r] = false;
      --checked_count_;
    }
  }
  for (RowId r : delta.appended) {
    if (table_->is_live(r)) pending_rows_.push_back(r);
  }
  if (dc_->IsFd()) {
    if (relax_index_ != nullptr) {
      relax_index_->ApplyDelta(*table_, dc_->fd(), delta);
    }
  } else if (!delta.empty()) {
    pending_deltas_.push_back(delta);
  }
}

Status CleanSelect::DrainPendingDeltas(CleanSelectResult* out,
                                       std::vector<ViolationPair>* drained) {
  // Nothing pending: return without touching any member — concurrent
  // quiescent readers run this from the engine's shared path, so even a
  // clear() of an already-empty vector would be a racy write.
  if (pending_deltas_.empty() && pending_rows_.empty()) return Status::OK();
  for (const TableDelta& delta : pending_deltas_) {
    std::vector<ViolationPair> violations = theta_->DetectDelta(delta);
    out->detect_ops += theta_->pairs_checked();
    DAISY_ASSIGN_OR_RETURN(
        RepairStats stats,
        RepairDcViolations(table_, *dc_, violations, provenance_));
    out->errors_fixed += stats.tuples_repaired;
    drained->insert(drained->end(), violations.begin(), violations.end());
    // DetectDelta cross-checked the batch against everything: the rows are
    // as covered as a query result after DetectIncremental.
    std::vector<RowId> covered;
    covered.reserve(delta.appended.size());
    for (RowId r : delta.appended) {
      if (table_->is_live(r)) covered.push_back(r);
    }
    MarkChecked(covered);
  }
  pending_deltas_.clear();
  out->delta_rows_checked += pending_rows_.size();
  pending_rows_.clear();
  return Status::OK();
}

Status CleanSelect::JoinConflictExtras(
    const Expr* filter, const std::vector<ViolationPair>& violations,
    CleanSelectResult* out) {
  if (violations.empty()) return Status::OK();
  std::unordered_set<RowId> in_result(out->final_rows.begin(),
                                      out->final_rows.end());
  std::vector<RowId> outside;
  for (const ViolationPair& v : violations) {
    if (in_result.insert(v.t1).second) outside.push_back(v.t1);
    if (in_result.insert(v.t2).second) outside.push_back(v.t2);
  }
  out->extra_tuples += outside.size();
  DAISY_ASSIGN_OR_RETURN(std::vector<RowId> qualifying_extras,
                         FilterRows(*table_, filter, outside));
  out->final_rows.insert(out->final_rows.end(), qualifying_extras.begin(),
                         qualifying_extras.end());
  std::sort(out->final_rows.begin(), out->final_rows.end());
  out->final_rows.erase(
      std::unique(out->final_rows.begin(), out->final_rows.end()),
      out->final_rows.end());
  return Status::OK();
}

double CleanSelect::checked_fraction() const {
  return checked_.empty()
             ? 1.0
             : static_cast<double>(checked_count_) /
                   static_cast<double>(checked_.size());
}

Result<CleanSelectResult> CleanSelect::Run(
    const Expr* filter, const std::vector<RowId>& dirty_result,
    const CleaningOptions& options) {
  assert(checked_.size() == table_->num_rows() &&
         "CleanSelect missed an ApplyDelta for an append");
  if (dc_->IsFd()) return RunFd(filter, dirty_result, options);
  return RunDc(filter, dirty_result, options);
}

Result<CleanSelectResult> CleanSelect::RunFd(
    const Expr* filter, const std::vector<RowId>& dirty_result,
    const CleaningOptions& options) {
  CleanSelectResult out;
  out.final_rows = dirty_result;
  // The group statistics were delta-maintained at ingest; this query is the
  // first to consult them, which settles the pending delta accounting.
  // (Guarded clear: quiescent readers must not write the empty vector.)
  out.delta_rows_checked = pending_rows_.size();
  if (!pending_rows_.empty()) pending_rows_.clear();

  // Fast path 1: the whole result was already checked by this rule — its
  // cells are final (Lemma 1) and the probabilistic filter semantics of the
  // enclosing query already admit candidate qualifiers.
  bool all_checked = true;
  for (RowId r : dirty_result) {
    if (!checked_[r]) {
      all_checked = false;
      break;
    }
  }
  if (all_checked && !dirty_result.empty()) {
    out.pruned = true;
    return out;
  }

  // Fast path 2: statistics pruning — the result touches no dirty group.
  if (options.use_statistics_pruning && stats_ != nullptr &&
      !stats_->RowsTouchDirty(*table_, *dc_, dirty_result)) {
    out.pruned = true;
    MarkChecked(dirty_result);
    return out;
  }

  // (a) relax: correlated tuples via Algorithm 1, served from the per-rule
  // correlation index (built once over the immutable original values).
  if (relax_index_ == nullptr) {
    relax_index_ = std::make_unique<FdRelaxIndex>(*table_, dc_->fd());
  }
  const FdRuleStats* rule_stats =
      stats_ != nullptr ? stats_->ForRule(dc_->name()) : nullptr;
  FdRelaxIndex::DirtyFilter dirty_filter;
  const FdRelaxIndex::DirtyFilter* filter_ptr = nullptr;
  if (options.use_statistics_pruning && rule_stats != nullptr) {
    dirty_filter.lhs_keys = &rule_stats->dirty_lhs_keys;
    dirty_filter.already_checked = &checked_;
    filter_ptr = &dirty_filter;
  }
  RelaxResult relaxed =
      relax_index_->Relax(*table_, dc_->fd(), dirty_result, filter_ptr);
  out.extra_tuples = relaxed.extra.size();
  out.relax_iterations = relaxed.iterations;
  out.tuples_scanned = relaxed.tuples_scanned;

  // (b) detect + fix within the relaxed scope.
  std::vector<RowId> scope = dirty_result;
  scope.insert(scope.end(), relaxed.extra.begin(), relaxed.extra.end());
  DAISY_ASSIGN_OR_RETURN(RepairStats stats,
                         RepairFdViolations(table_, *dc_, scope, provenance_));
  out.errors_fixed = stats.tuples_repaired;
  out.detect_ops = scope.size();

  // (c) the in-place update already happened through the provenance store;
  // recompute the qualifying set: extras whose candidates may satisfy the
  // filter now belong to the corrected result (Example 3).
  DAISY_ASSIGN_OR_RETURN(std::vector<RowId> qualifying_extras,
                         FilterRows(*table_, filter, relaxed.extra));
  out.final_rows.insert(out.final_rows.end(), qualifying_extras.begin(),
                        qualifying_extras.end());
  std::sort(out.final_rows.begin(), out.final_rows.end());
  out.final_rows.erase(
      std::unique(out.final_rows.begin(), out.final_rows.end()),
      out.final_rows.end());

  MarkChecked(scope);
  return out;
}

Result<CleanSelectResult> CleanSelect::RunDc(
    const Expr* filter, const std::vector<RowId>& dirty_result,
    const CleaningOptions& options) {
  if (theta_ == nullptr) {
    return Status::Internal("CleanSelect for a general DC needs a detector");
  }
  CleanSelectResult out;
  out.final_rows = dirty_result;

  // Pay for the ingested rows first: new x old + new x new pairs, at
  // O(delta) instead of the full matrix. The drained violations feed the
  // same extra-tuples join as query-detected ones — a conflicting arrival
  // whose repair now satisfies the filter belongs to THIS query's result,
  // not the next one's.
  std::vector<ViolationPair> violations;
  DAISY_RETURN_IF_ERROR(DrainPendingDeltas(&out, &violations));

  if (theta_->FullyChecked()) {
    // "Pruned" means this invocation skipped cleaning entirely — a drain
    // that settled ingested rows did real detection/repair work.
    out.pruned = out.delta_rows_checked == 0;
    DAISY_RETURN_IF_ERROR(JoinConflictExtras(filter, violations, &out));
    return out;
  }

  out.estimated_accuracy = theta_->EstimateAccuracy(dirty_result);
  std::vector<ViolationPair> detected;
  if (out.estimated_accuracy < options.accuracy_threshold) {
    // Algorithm 2: predicted accuracy below threshold — clean everything.
    detected = theta_->DetectAll();
    out.used_full_clean = true;
  } else {
    std::vector<RowId> sorted_result = dirty_result;
    std::sort(sorted_result.begin(), sorted_result.end());
    detected = theta_->DetectIncremental(sorted_result);
  }
  out.detect_ops += theta_->pairs_checked();

  DAISY_ASSIGN_OR_RETURN(
      RepairStats stats,
      RepairDcViolations(table_, *dc_, detected, provenance_));
  out.errors_fixed += stats.tuples_repaired;

  violations.insert(violations.end(), detected.begin(), detected.end());
  DAISY_RETURN_IF_ERROR(JoinConflictExtras(filter, violations, &out));

  MarkChecked(dirty_result);
  if (out.used_full_clean) MarkChecked(table_->AllRowIds());
  return out;
}

Result<CleanSelectResult> CleanSelect::CleanRemaining() {
  CleanSelectResult out;
  if (dc_->IsFd()) {
    out.delta_rows_checked = pending_rows_.size();
    pending_rows_.clear();
    // Repair every not-yet-checked tuple. The scope must include the whole
    // table so candidate distributions are complete.
    std::vector<RowId> all = table_->AllRowIds();
    DAISY_ASSIGN_OR_RETURN(RepairStats stats,
                           RepairFdViolations(table_, *dc_, all, provenance_));
    out.errors_fixed = stats.tuples_repaired;
    out.detect_ops = all.size();
    MarkChecked(all);
    return out;
  }
  // Delta batches first: DetectAll skips checked-row pairs, so the new x
  // old cross pairs must be paid through DetectDelta before full coverage
  // is declared. No result set here, so the drained pairs need no
  // extra-tuples join.
  std::vector<ViolationPair> drained;
  DAISY_RETURN_IF_ERROR(DrainPendingDeltas(&out, &drained));
  std::vector<ViolationPair> violations = theta_->DetectAll();
  out.detect_ops += theta_->pairs_checked();
  DAISY_ASSIGN_OR_RETURN(
      RepairStats stats,
      RepairDcViolations(table_, *dc_, violations, provenance_));
  out.errors_fixed += stats.tuples_repaired;
  out.used_full_clean = true;
  MarkChecked(table_->AllRowIds());
  return out;
}

}  // namespace daisy
