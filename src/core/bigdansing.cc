#include "core/bigdansing.h"

#include <cstdio>
#include <optional>
#include <unordered_set>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/fixpoint.h"
#include "core/stream_session.h"

namespace bigdansing {

namespace {

/// Clean()'s detection scope: the whole table every iteration, or — with
/// incremental_redetection — only violations involving the rows the
/// previous repair changed, verified by one full pass before converging.
class CleanScope final : public FixPointScope {
 public:
  CleanScope(const RuleEngine& engine, Table* table,
             const std::vector<RulePtr>& rules, bool incremental)
      : engine_(engine),
        table_(table),
        rules_(rules),
        incremental_(incremental) {}

  Result<std::vector<DetectionResult>> Detect(
      size_t iteration, const std::unordered_set<RowId>& changed_rows,
      ScopedSpan* span) override {
    DetectRequest full_request;
    full_request.table = table_;
    full_request.rules = rules_;
    if (!incremental_ || iteration == 1) return engine_.Detect(full_request);
    if (span != nullptr) {
      span->Annotate("mode", std::string("incremental"));
      span->Annotate("changed_rows",
                     static_cast<uint64_t>(changed_rows.size()));
    }
    std::vector<DetectionResult> partial;
    partial.reserve(rules_.size());
    size_t found = 0;
    for (const auto& rule : rules_) {
      DetectRequest request;
      request.table = table_;
      request.rules = {rule};
      request.changed_rows = &changed_rows;
      auto d = engine_.Detect(request);
      if (!d.ok()) return d.status();
      found += d->front().violations.size();
      partial.push_back(std::move(d->front()));
    }
    // Incremental pass is clean: verify with one full detection so the
    // converged result is identical to the non-incremental mode.
    if (found == 0) return engine_.Detect(full_request);
    return partial;
  }

  Row* FindRow(RowId id) override { return table_->FindMutableRowById(id); }

 private:
  const RuleEngine& engine_;
  Table* table_;
  const std::vector<RulePtr>& rules_;
  const bool incremental_;
};

}  // namespace

std::string CleanReport::ToString() const {
  std::string out = "CleanReport: iterations=" +
                    std::to_string(iterations.size()) +
                    (converged ? " (converged)" : " (iteration cap)");
  for (size_t i = 0; i < iterations.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\n  iter %zu: violations=%zu fixes=%zu detect=%.3fs "
                  "repair=%.3fs",
                  i + 1, iterations[i].violations, iterations[i].applied_fixes,
                  iterations[i].detect_seconds, iterations[i].repair_seconds);
    out += buf;
  }
  return out;
}

size_t ApplyAssignments(
    Table* table, const std::vector<CellAssignment>& assignments,
    const std::unordered_set<CellRef, CellRefHash>* frozen) {
  size_t changed = 0;
  for (const auto& a : assignments) {
    if (frozen != nullptr && frozen->count(a.cell) > 0) continue;
    Row* row = table->FindMutableRowById(a.cell.row_id);
    if (row == nullptr || a.cell.column >= row->size()) continue;
    if (row->value(a.cell.column) != a.value) {
      row->set_value(a.cell.column, a.value);
      ++changed;
    }
  }
  return changed;
}

BigDansing::BigDansing(ExecutionContext* ctx, CleanOptions options)
    : ctx_(ctx), options_(std::move(options)) {}

Result<std::unique_ptr<StreamSession>> BigDansing::OpenStream(
    Table* table, const std::vector<RulePtr>& rules,
    StreamOptions options) const {
  // Not make_unique: the constructor is private to the BigDansing friend.
  std::unique_ptr<StreamSession> session(
      new StreamSession(ctx_, table, rules, std::move(options)));
  Status status = session->Init();
  if (!status.ok()) return status;
  return session;
}

Result<std::unique_ptr<StreamSession>> BigDansing::OpenStream(
    Table* table, const std::vector<RulePtr>& rules) const {
  StreamOptions options;
  options.clean = options_;
  return OpenStream(table, rules, std::move(options));
}

Result<CleanReport> BigDansing::Clean(Table* table,
                                      const std::vector<RulePtr>& rules) const {
  // The whole fix-point run is one job span; each iteration contributes a
  // detect and a repair phase span underneath it.
  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> job_span;
  if (trace.enabled()) {
    job_span.emplace("clean", "job");
    job_span->Annotate("rules", static_cast<uint64_t>(rules.size()));
    job_span->Annotate("max_iterations",
                       static_cast<uint64_t>(options_.max_iterations));
  }

  RuleEngine engine(ctx_, options_.planner);
  CleanScope scope(engine, table, rules, options_.incremental_redetection);
  FreezeState freeze;
  FixPointParams params;
  params.table = table;
  params.num_rules = rules.size();
  params.profile_input = true;
  params.freeze = &freeze;
  auto run = RunFixPoint(ctx_, options_, std::move(params), &scope);
  if (!run.ok()) return run.status();
  CleanReport& report = run->report;
  // Per-rule lineage tally for THIS run (the recorder is process-global, so
  // its summaries may span several Clean calls; the EXPLAIN annotations must
  // only reflect this job).
  const auto& lineage_by_rule = run->lineage_by_rule;

  size_t total_fixes = 0;
  size_t total_violations = 0;
  for (const auto& i : report.iterations) {
    total_fixes += i.applied_fixes;
    total_violations += i.violations;
  }
  size_t total_unresolved = 0;
  for (const auto& [rule, s] : lineage_by_rule) total_unresolved += s.unresolved;

  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("clean.iterations")
      .Add(static_cast<uint64_t>(report.iterations.size()));
  registry.GetCounter("clean.fixes_applied")
      .Add(static_cast<uint64_t>(total_fixes));
  registry.GetCounter("clean.violations_pooled")
      .Add(static_cast<uint64_t>(total_violations));
  registry.GetCounter("clean.unresolved_violations")
      .Add(static_cast<uint64_t>(total_unresolved));

  if (job_span) {
    job_span->Annotate("iterations",
                       static_cast<uint64_t>(report.iterations.size()));
    job_span->Annotate("converged",
                       std::string(report.converged ? "true" : "false"));
    // Fold the ledger rollup of this run into the EXPLAIN tree: one pair of
    // annotations per rule with at least one applied fix or survivor.
    for (const auto& [rule, s] : lineage_by_rule) {
      job_span->Annotate("lineage." + rule + ".fixes", s.applied_fixes);
      job_span->Annotate("lineage." + rule + ".unresolved", s.unresolved);
    }
  }
  return std::move(report);
}

}  // namespace bigdansing
