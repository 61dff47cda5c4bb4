#include "core/fixpoint.h"

#include <optional>
#include <utility>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/profile.h"
#include "obs/quality.h"
#include "repair/strategy.h"

namespace bigdansing {

namespace {

/// Closes the quality run on every exit path — normal return, early Status
/// return, and StageError unwinding alike — so a scrape never sees a run
/// stuck in_progress after its loop finished.
struct QualityRunGuard {
  uint64_t run_id = 0;
  const bool* converged = nullptr;
  ~QualityRunGuard() {
    if (run_id != 0) {
      QualityRecorder::Instance().EndRun(run_id, *converged);
    }
  }
};

/// Cells repaired in more than one iteration: the oscillation freezing
/// exists to terminate.
uint64_t OscillatingCells(const FreezeState& freeze) {
  uint64_t n = 0;
  for (const auto& [cell, count] : freeze.update_counts) {
    if (count >= 2) ++n;
  }
  return n;
}

}  // namespace

Result<FixPointResult> RunFixPoint(ExecutionContext* ctx,
                                   const CleanOptions& options,
                                   FixPointParams params,
                                   FixPointScope* scope) {
  FixPointResult out;
  out.changed_rows = std::move(params.changed_rows);
  CleanReport& report = out.report;
  FreezeState& freeze = *params.freeze;
  const RepairStrategy& repair_strategy =
      RepairStrategyFor(options.repair_mode);

  // Scoped so nested detect/repair stages all see the run's fault policy
  // and the context is restored on return.
  std::optional<ScopedFaultPolicy> scoped_policy;
  if (options.fault_policy.has_value()) {
    scoped_policy.emplace(ctx, *options.fault_policy);
  }

  // Data-quality plane: one run record per loop, folding every iteration's
  // violation/fix/unresolved attribution. One relaxed load when off.
  QualityRecorder& quality = QualityRecorder::Instance();
  const bool quality_on = quality.enabled();
  const uint64_t quality_run =
      quality_on ? quality.BeginRun(params.num_rules, params.table->num_rows(),
                                    params.quality_session)
                 : 0;
  QualityRunGuard quality_guard{quality_run, &report.converged};
  if (quality_on && params.profile_input) {
    quality.RecordProfile(quality_run, ProfileTable(ctx, *params.table));
  }
  const Schema& schema = params.table->schema();
  auto column_name = [&schema](size_t col) {
    return col < schema.num_attributes() ? schema.attribute(col)
                                         : std::string();
  };

  TraceRecorder& trace = TraceRecorder::Instance();
  LineageRecorder& lineage = LineageRecorder::Instance();
  std::vector<CellRef> changed_cells;
  // Defensive boundary: detection and repair already map StageError to
  // Status, but a stage failure escaping a future code path must still
  // surface as a Status here, never as a crash.
  try {
    for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
      IterationReport it;
      QualityIterationSample sample;
      sample.iteration = iter;

      Stopwatch detect_timer;
      std::optional<ScopedSpan> detect_span;
      if (trace.enabled()) {
        detect_span.emplace("detect:iter" + std::to_string(iter), "phase");
      }
      auto detections = scope->Detect(
          iter, out.changed_rows, detect_span ? &*detect_span : nullptr);
      if (!detections.ok()) return detections.status();
      it.detect_seconds = detect_timer.ElapsedSeconds();
      report.total_detect_seconds += it.detect_seconds;
      detect_span.reset();

      // Pool all rules' violations; drop violations whose fixes only touch
      // frozen cells ("violations with no possible fixes" terminate the
      // loop, §2.1).
      std::vector<ViolationWithFixes> violations;
      for (auto& d : *detections) {
        for (auto& vf : d.violations) {
          bool repairable = false;
          for (const auto& f : vf.fixes) {
            if (freeze.frozen.count(f.left.ref) == 0) {
              repairable = true;
              break;
            }
          }
          if (!repairable) continue;
          if (quality_on) {
            // A violation attributes to the column of its first candidate
            // fix — deterministic, so the per-rule sums reconcile exactly
            // with the lineage ledger and the report.
            ++sample.violations[vf.violation.rule_name]
                               [column_name(vf.fixes.front().left.ref.column)];
          }
          violations.push_back(std::move(vf));
        }
      }
      it.violations = violations.size();

      if (!violations.empty()) {
        Stopwatch repair_timer;
        std::optional<ScopedSpan> repair_span;
        if (trace.enabled()) {
          repair_span.emplace("repair:iter" + std::to_string(iter), "phase");
          repair_span->Annotate("violations",
                                static_cast<uint64_t>(violations.size()));
        }
        const bool lineage_on = lineage.enabled();
        const bool track = lineage_on || quality_on;
        auto pass = repair_strategy.Repair(ctx, violations, options.repair);
        if (!pass.ok()) return pass.status();
        const std::vector<CellAssignment>& assignments = pass->applied;
        const std::vector<FixProvenance>& provenance = pass->provenance;

        // Apply, skipping frozen cells and no-op assignments. While tracked,
        // each changed cell gets a ledger entry with the provenance the
        // repair pass attached (missing when lineage was toggled mid-run).
        std::unordered_set<uint64_t> resolved;
        changed_cells.clear();
        for (size_t i = 0; i < assignments.size(); ++i) {
          const CellAssignment& a = assignments[i];
          if (freeze.frozen.count(a.cell) > 0) continue;
          Row* row = scope->FindRow(a.cell.row_id);
          if (row == nullptr || a.cell.column >= row->size()) continue;
          if (row->value(a.cell.column) == a.value) continue;
          if (track) {
            const FixProvenance* p =
                i < provenance.size() ? &provenance[i] : nullptr;
            const std::string rule = p != nullptr ? p->rule : std::string();
            if (p != nullptr) resolved.insert(p->violation_id);
            ++out.lineage_by_rule[rule].applied_fixes;
            if (quality_on) ++sample.fixes[rule][column_name(a.cell.column)];
            if (lineage_on) {
              LineageEntry entry;
              entry.row_id = a.cell.row_id;
              entry.column = a.cell.column;
              entry.attribute = column_name(a.cell.column);
              entry.old_value = row->value(a.cell.column);
              entry.new_value = a.value;
              entry.iteration = iter;
              entry.rule = rule;
              if (p != nullptr) {
                entry.violation_id = p->violation_id;
                entry.strategy = p->strategy;
                entry.component = p->component;
              }
              lineage.RecordFix(std::move(entry));
            }
          }
          row->set_value(a.cell.column, a.value);
          changed_cells.push_back(a.cell);
        }
        it.applied_fixes = changed_cells.size();
        if (!changed_cells.empty()) scope->CellsChanged(changed_cells);

        if (track) {
          // Every pooled violation with no applied fix this iteration
          // survives into the next detect pass (or the end of the run)
          // unresolved.
          for (uint64_t vid = 0; vid < violations.size(); ++vid) {
            if (resolved.count(vid) > 0) continue;
            const std::string& rule = violations[vid].violation.rule_name;
            lineage.RecordUnresolved(rule, vid, iter);
            ++out.lineage_by_rule[rule].unresolved;
            if (quality_on) {
              ++sample.unresolved[rule][column_name(
                  violations[vid].fixes.front().left.ref.column)];
            }
          }
        }
        it.repair_seconds = repair_timer.ElapsedSeconds();
        report.total_repair_seconds += it.repair_seconds;
        if (repair_span) {
          repair_span->Annotate("applied_fixes",
                                static_cast<uint64_t>(it.applied_fixes));
        }

        if (it.applied_fixes > 0) {
          // The next iteration re-verifies what this repair proposed; every
          // proposed cell counts toward its freeze threshold.
          out.changed_rows.clear();
          for (const auto& a : assignments) {
            out.changed_rows.insert(a.cell.row_id);
            if (++freeze.update_counts[a.cell] >=
                options.freeze_after_updates) {
              freeze.frozen.insert(a.cell);
            }
          }
        }
      }
      report.iterations.push_back(it);
      // Nothing repairable, or nothing applicable: the remaining violations
      // have no possible fixes.
      report.converged = it.violations == 0 || it.applied_fixes == 0;

      if (quality_on) {
        // Sampled after the freeze bookkeeping so the curve point reflects
        // the state the next iteration starts from.
        sample.frozen_cells = freeze.frozen.size();
        sample.oscillating_cells = OscillatingCells(freeze);
        quality.RecordIteration(quality_run, sample);
      }
      if (report.converged) break;
    }
  } catch (const StageError& e) {
    return e.status();
  }
  return out;
}

}  // namespace bigdansing
