#ifndef BIGDANSING_CORE_FIXPOINT_H_
#define BIGDANSING_CORE_FIXPOINT_H_

// The cleanse fix-point loop of §2.1–2.2 — detect, pool the repairable
// violations, repair, freeze cells that keep changing — written once and
// shared by BigDansing::Clean() and every StreamSession window. Internal to
// src/core; callers differ only in what each iteration detects and in how a
// row is found by id.

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lineage.h"
#include "common/status.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "rules/violation.h"

namespace bigdansing {

class ScopedSpan;

/// Oscillation termination (§2.2: "the algorithm puts a special variable on
/// such units after a fixed number of iterations"): how often each cell was
/// proposed for repair, and the cells frozen once that count reaches
/// CleanOptions::freeze_after_updates. Clean() keeps one per run; a stream
/// session keeps one for its whole life, across windows.
struct FreezeState {
  std::unordered_map<CellRef, size_t, CellRefHash> update_counts;
  std::unordered_set<CellRef, CellRefHash> frozen;
};

/// What one caller of RunFixPoint supplies.
class FixPointScope {
 public:
  virtual ~FixPointScope() = default;

  /// Detects the violations of iteration `iteration` (1-based), one result
  /// per rule that ran, in rule order. `changed_rows` holds the row of
  /// every assignment the previous iteration's repair proposed (the run's
  /// seed on the first iteration). `span` is the iteration's detect phase
  /// span, null while tracing is off.
  virtual Result<std::vector<DetectionResult>> Detect(
      size_t iteration, const std::unordered_set<RowId>& changed_rows,
      ScopedSpan* span) = 0;

  /// The live row `id`, or null when it is gone.
  virtual Row* FindRow(RowId id) = 0;

  /// Called after each repair pass that changed cells, with those cells.
  virtual void CellsChanged(const std::vector<CellRef>& cells) {
    (void)cells;
  }
};

struct FixPointParams {
  /// The repaired table: sizes the quality run, names the columns the
  /// quality plane attributes to, and is profiled when `profile_input`.
  const Table* table = nullptr;
  size_t num_rules = 0;
  /// Quality-run namespace: empty for Clean(), the session name for stream
  /// windows.
  std::string quality_session;
  bool profile_input = false;
  /// Handed to the first iteration's Detect as its changed rows.
  std::unordered_set<RowId> changed_rows;
  FreezeState* freeze = nullptr;
};

struct FixPointResult {
  CleanReport report;
  /// Applied fixes and unresolved survivors of this run per rule; filled
  /// only while the lineage ledger or the quality recorder is on.
  std::map<std::string, LineageSummary> lineage_by_rule;
  /// Rows the last repair pass proposed to change. A run that stops at the
  /// iteration cap has not re-verified them.
  std::unordered_set<RowId> changed_rows;
};

/// Runs the fix-point loop for at most options.max_iterations iterations
/// under options.fault_policy: each iteration's violations are pooled
/// (dropping those whose fixes touch only frozen cells), repaired by
/// RepairStrategyFor(options.repair_mode), and applied through
/// scope->FindRow with ledger and quality attribution. Emits the
/// detect:iterN / repair:iterN phase spans and one quality run. Converges
/// when an iteration pools no violation or applies no fix.
Result<FixPointResult> RunFixPoint(ExecutionContext* ctx,
                                   const CleanOptions& options,
                                   FixPointParams params,
                                   FixPointScope* scope);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_FIXPOINT_H_
