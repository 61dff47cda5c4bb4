// Benchmark driver. Generates one workload's inputs from a seed with
// src/datagen, serializes them with SerializeTableBinary, and then acts as a
// user of the program: set-up loads the tables back with
// DeserializeTableBinary, and every public call (Detect, Clean, OpenStream,
// Append, Retract, Poll, Flush) is timed from outside. Outputs are checked
// as they come back. The driver prints one JSON document of raw samples on
// stdout; perfbench/run.py reduces it to the reported metrics.
//
// Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                         --out-dir DIR
//
// With --trace 1 the driver also records spans around each call into a
// layer (kept in memory, written to DIR/<workload>-<seed>-trace.json at the
// end) and the per-layer counters; those runs are not used for the
// end-to-end metrics.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "core/bigdansing.h"
#include "core/stream_session.h"
#include "data/dictionary.h"
#include "data/storage.h"
#include "datagen/datagen.h"
#include "dataflow/context.h"
#include "repair/hypergraph.h"
#include "repair/quality.h"
#include "repair/strategy.h"
#include "rules/parser.h"

namespace perfbench {
namespace {

using namespace bigdansing;
using Clock = std::chrono::steady_clock;

// One process, nproc workers: a single ExecutionContext(kWorkers).
constexpr size_t kWorkers = 4;
// Set-up runs this many times per run; run.py reports the median.
constexpr int kSetupRepeats = 11;
// The batch loops run at least this many repetitions whatever --seconds is.
constexpr size_t kMinReps = 3;

// Workload sizes. Shared by every seed; only the generator seed varies.
// They are chosen so that a run's medians move little from seed to seed:
// at 10 % errors TaxB's violations chain into a handful of giant hypergraph
// components whose repair time varies several-fold between seeds, while at
// 5 % the components stay small and their repair cost adds up evenly.
constexpr size_t kHaiRows = 50000;
constexpr size_t kTaxbRows = 20000;
constexpr size_t kStreamBaseRows = 10000;
constexpr size_t kStreamBatchRows = kStreamBaseRows / 100;  // 1 % batches.
// Rows the stream appends, cycled: twice the window, so a re-appended row's
// previous copy left the window long before.
constexpr size_t kStreamSourceRows = 2 * kStreamBaseRows;
constexpr double kErrorRate = 0.1;
constexpr double kTaxbErrorRate = 0.05;

// Run ids of spans outside the measured operations (ops count from 0,
// set-ups from -1 down).
constexpr int64_t kLayerRunBase = 1000000;
constexpr int64_t kFinalRun = 2000000;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// In-memory span log. Spans are opened around calls into the program's
// layers; a span's parent is another span index (-1 for a root), and spans
// of one operation share its run id.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  int Begin(const char* name, int parent, int64_t run) {
    if (!on_) return -1;
    spans_.push_back({name, parent, run, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    if (id >= 0) spans_[id].end_ns = NowNs();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"run\":" << s.run
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}";
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t run;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, int64_t run)
      : log_(log), id_(log->Begin(name, parent, run)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// One attempted operation: a public call (or, for a stream window, the
// Append/Retract/Poll sequence of one batch) and whether it returned OK and
// passed its output check.
struct Op {
  const char* kind;
  bool ok;
  double wall_s;
  size_t rows;
  bool traced;
};

// Everything a run reports; serialized as the raw JSON document.
struct RunOutput {
  std::string workload;
  uint64_t seed = 0;
  size_t rows = 0;
  std::vector<double> setup_s;
  std::vector<Op> ops;
  const char* latency_op = "";
  const char* throughput_op = "";
  // "median": rows / median wall of one throughput op; "total": rows over
  // wall summed across all throughput ops (sustained ingest).
  const char* throughput_reduce = "median";
  double residual = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> layers;
  std::string spans_file;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Steals() {
  return MetricsRegistry::Instance().GetCounter("threadpool.steals").Value();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) Die("cannot write " + path);
}

Table LoadTable(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Must(DeserializeTableBinary(bytes), "DeserializeTableBinary");
}

std::vector<RulePtr> ParseRules(const std::vector<std::string>& texts) {
  std::vector<RulePtr> rules;
  for (const auto& t : texts) rules.push_back(Must(ParseRule(t), "ParseRule"));
  return rules;
}

size_t ViolationCount(const std::vector<DetectionResult>& results) {
  size_t n = 0;
  for (const auto& r : results) n += r.violations.size();
  return n;
}

// Sums of the dataflow counters over a set of stage reports.
struct StageTotals {
  double busy_s = 0.0;
  double kernel_busy_s = 0.0;
  double straggler_weighted = 0.0;
  uint64_t retries = 0;
};

StageTotals SumStages(const std::vector<StageReport>& reports) {
  StageTotals t;
  for (const auto& r : reports) {
    t.busy_s += r.busy_seconds;
    if (r.name.rfind("kernel:", 0) == 0) t.kernel_busy_s += r.busy_seconds;
    t.straggler_weighted += r.StragglerRatio() * r.busy_seconds;
    t.retries += r.retries;
  }
  return t;
}

// Accumulates the per-layer counters of the traced operations; every
// reported value is a mean per traced operation.
class LayerSums {
 public:
  void Add(const std::string& name, double v) { sums_[name] += v; }
  void Count() { ++n_; }
  void MeanInto(std::map<std::string, double>* out) const {
    for (const auto& [k, v] : sums_) {
      (*out)[k] = n_ ? v / static_cast<double>(n_) : 0.0;
    }
  }

 private:
  std::map<std::string, double> sums_;
  size_t n_ = 0;
};

// Dataflow layer counters of `ctx` since its last Metrics::Reset, given the
// wall time the calls that produced them took.
void AddDataflow(LayerSums* sums, const Metrics& m, double wall_s,
                 uint64_t steals) {
  const StageTotals t = SumStages(m.StageReports());
  sums->Add("dataflow.shuffled_records",
            static_cast<double>(m.shuffled_records()));
  sums->Add("dataflow.stages", static_cast<double>(m.stages()));
  sums->Add("dataflow.tasks", static_cast<double>(m.tasks()));
  sums->Add("dataflow.busy_s", t.busy_s);
  sums->Add("dataflow.sim_wall_s", m.SimulatedWallSeconds());
  sums->Add("dataflow.utilization",
            wall_s > 0 ? t.busy_s / (wall_s * kWorkers) : 0.0);
  sums->Add("dataflow.straggler_ratio",
            t.busy_s > 0 ? t.straggler_weighted / t.busy_s : 0.0);
  sums->Add("dataflow.retries", static_cast<double>(t.retries));
  sums->Add("common.threadpool_steals", static_cast<double>(steals));
}

// EncodeColumns timed alone over the given base-table columns.
void TraceEncode(SpanLog* log, int64_t run, ExecutionContext* ctx,
                 const Table& table, const std::vector<std::string>& columns,
                 LayerSums* sums) {
  std::vector<std::vector<size_t>> groups;
  for (const auto& c : columns) {
    groups.push_back({Must(table.schema().IndexOf(c), "IndexOf")});
  }
  auto data = Dataset<Row>::FromVector(ctx, std::vector<Row>(table.rows()));
  EncodedColumnSet encoded;
  {
    ScopedSpan span(log, "data.encode", -1, run);
    encoded = EncodeColumns(data, groups);
  }
  double pool_values = 0;
  for (const auto& [col, ec] : encoded.columns) {
    pool_values += static_cast<double>(ec.pool->size());
  }
  sums->Add("data.pool_values", pool_values);
}

// ---------------------------------------------------------------------------
// Batch workloads: each repetition runs Detect on the loaded table
// (read-only), then Clean on a fresh copy.

struct BatchSpec {
  std::vector<std::string> rules;
  RepairMode mode;
  // Columns the rules read (encoded alone in the traced run).
  std::vector<std::string> columns;
  // Numeric attribute for distance-based quality; empty -> exact match.
  std::string distance_attribute;
};

struct BatchSetup {
  std::unique_ptr<ExecutionContext> ctx;
  std::unique_ptr<BigDansing> system;
  std::vector<RulePtr> rules;
  Table table;
};

std::unique_ptr<BatchSetup> SetUpBatch(const BatchSpec& spec, const std::string& path,
                      SpanLog* log, int64_t run, double* wall_s) {
  const auto t0 = Clock::now();
  ScopedSpan root(log, "setup", -1, run);
  BatchSetup s;
  {
    ScopedSpan span(log, "data.load", root.id(), run);
    s.table = LoadTable(path);
  }
  s.rules = ParseRules(spec.rules);
  s.ctx = std::make_unique<ExecutionContext>(kWorkers);
  CleanOptions options;
  options.repair_mode = spec.mode;
  s.system = std::make_unique<BigDansing>(s.ctx.get(), options);
  {
    ScopedSpan span(log, "core.detect", root.id(), run);
    Must(s.system->Detect(s.table, s.rules), "warm-up Detect");
  }
  *wall_s = SecondsSince(t0);
  return std::make_unique<BatchSetup>(std::move(s));
}

void RunBatch(const BatchSpec& spec, GeneratedData data, double seconds,
              SpanLog* log, const std::string& input_path, RunOutput* out) {
  out->rows = data.dirty.num_rows();
  out->latency_op = "detect";
  out->throughput_op = "clean";
  WriteFile(input_path, SerializeTableBinary(data.dirty));

  std::unique_ptr<BatchSetup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double wall = 0;
    setup.reset();
    setup = SetUpBatch(spec, input_path, log, -1 - i, &wall);
    out->setup_s.push_back(wall);
  }
  BatchSetup& s = *setup;

  // Reference violation count from the interpreted engine (kernels off).
  s.ctx->set_kernels_enabled(false);
  const size_t reference =
      ViolationCount(Must(s.system->Detect(s.table, s.rules), "reference"));
  s.ctx->set_kernels_enabled(true);

  LayerSums sums;
  std::vector<double> detect_walls;
  Table repaired;
  const RepairStrategy& strategy = RepairStrategyFor(spec.mode);
  const BlackBoxOptions repair_options;
  const auto start = Clock::now();
  for (size_t rep = 0; rep < kMinReps || SecondsSince(start) < seconds;
       ++rep) {
    // Traced runs alternate traced and untraced repetitions, so the
    // overhead of the spans themselves can be read off.
    const bool traced = log->on() && rep % 2 == 0;
    SpanLog off(false);
    SpanLog* rec = traced ? log : &off;
    const int64_t run = static_cast<int64_t>(rep);
    s.ctx->metrics().Reset();
    const uint64_t steals0 = Steals();

    std::vector<DetectionResult> detected;
    std::vector<StageReport> detect_reports;
    Result<CleanReport> report = Status::Internal("not run");
    double detect_wall = 0, clean_wall = 0;
    {
      ScopedSpan root(rec, "rep", -1, run);
      auto t0 = Clock::now();
      bool ok = false;
      {
        ScopedSpan span(rec, "core.detect", root.id(), run);
        auto result = s.system->Detect(s.table, s.rules);
        ok = result.ok();
        if (ok) detected = std::move(result).value();
      }
      detect_wall = SecondsSince(t0);
      ok = ok && ViolationCount(detected) == reference;
      out->ops.push_back({"detect", ok, detect_wall, out->rows, traced});
      if (ok) detect_walls.push_back(detect_wall);
      detect_reports = s.ctx->metrics().StageReports();

      Table working;
      {
        ScopedSpan span(rec, "data.copy", root.id(), run);
        working = s.table;
      }
      t0 = Clock::now();
      {
        ScopedSpan span(rec, "core.clean", root.id(), run);
        report = s.system->Clean(&working, s.rules);
      }
      clean_wall = SecondsSince(t0);
      ok = report.ok() && report->converged;
      out->ops.push_back({"clean", ok, clean_wall, out->rows, traced});
      repaired = std::move(working);
    }
    if (!traced) continue;

    sums.Count();
    // Dataflow counters of the Detect + Clean pair.
    AddDataflow(&sums, s.ctx->metrics(), detect_wall + clean_wall,
                Steals() - steals0);
    sums.Add("rules.kernel_busy_s", SumStages(detect_reports).kernel_busy_s);
    double calls = 0, cand = 0, result_pairs = 0, part_total = 0,
           part_kept = 0;
    for (const auto& r : detected) {
      calls += static_cast<double>(r.detect_calls);
      cand += static_cast<double>(r.ocjoin_stats.candidate_pairs);
      result_pairs += static_cast<double>(r.ocjoin_stats.result_pairs);
      part_total += static_cast<double>(r.ocjoin_stats.partition_pairs_total);
      part_kept +=
          static_cast<double>(r.ocjoin_stats.partition_pairs_after_pruning);
    }
    sums.Add("core.detect_calls", calls);
    sums.Add("core.violation_yield",
             calls > 0 ? static_cast<double>(reference) / calls : 0.0);
    sums.Add("core.ocjoin_candidate_pairs", cand);
    sums.Add("core.ocjoin_result_pairs", result_pairs);
    sums.Add("core.ocjoin_pruned_ratio",
             part_total > 0 ? 1.0 - part_kept / part_total : 0.0);
    if (report.ok()) {
      sums.Add("core.clean_iterations",
               static_cast<double>(report->num_iterations()));
      sums.Add("core.clean_detect_s", report->total_detect_seconds);
      sums.Add("core.clean_repair_s", report->total_repair_seconds);
    }

    // Layer calls timed alone, outside the measured repetition.
    const int64_t lrun = kLayerRunBase + run;
    TraceEncode(log, lrun, s.ctx.get(), s.table, spec.columns, &sums);
    std::vector<ViolationWithFixes> flat;
    for (const auto& r : detected) {
      flat.insert(flat.end(), r.violations.begin(), r.violations.end());
    }
    size_t cc_groups = 0;
    {
      ScopedSpan span(log, "repair.hypergraph_cc", -1, lrun);
      ViolationHypergraph graph(flat);
      cc_groups = graph.ConnectedComponentGroups().size();
    }
    Result<RepairPassResult> pass = Status::Internal("not run");
    const auto t0 = Clock::now();
    {
      ScopedSpan span(log, "repair.pass", -1, lrun);
      pass = strategy.Repair(s.ctx.get(), flat, repair_options);
    }
    const double pass_wall = SecondsSince(t0);
    const bool pass_ok = pass.ok() && pass->num_components == cc_groups;
    out->ops.push_back({"repair_pass", pass_ok, pass_wall, out->rows, true});
    if (pass_ok) {
      const double applied = static_cast<double>(pass->applied.size());
      const double undone = static_cast<double>(pass->num_undone);
      sums.Add("repair.components",
               static_cast<double>(pass->num_components));
      sums.Add("repair.fix_yield",
               applied + undone > 0 ? applied / (applied + undone) : 0.0);
    }
  }

  // Repair quality of the last Clean (identical on every repetition).
  if (!spec.distance_attribute.empty()) {
    auto d = Must(EvaluateRepairDistance(data.dirty, repaired, data.clean,
                                         spec.distance_attribute),
                  "EvaluateRepairDistance");
    out->residual = d.dirty_distance > 0
                        ? d.repaired_distance / d.dirty_distance
                        : 0.0;
  } else {
    const size_t before =
        Must(data.dirty.CountDifferingCells(data.clean), "CountDifferingCells");
    const size_t after =
        Must(repaired.CountDifferingCells(data.clean), "CountDifferingCells");
    out->residual =
        before > 0 ? static_cast<double>(after) / static_cast<double>(before)
                   : 0.0;
  }
  auto q = Must(EvaluateRepair(data.dirty, repaired, data.clean),
                "EvaluateRepair");
  out->precision = q.precision;
  out->recall = q.recall;

  if (log->on()) {
    sums.MeanInto(&out->layers);
    // Same Detect on one worker, against the median 4-worker Detect.
    ExecutionContext single(1);
    BigDansing one(&single, CleanOptions());
    const auto t0 = Clock::now();
    Must(one.Detect(s.table, s.rules), "1-worker Detect");
    const double single_wall = SecondsSince(t0);
    std::sort(detect_walls.begin(), detect_walls.end());
    const double median4 =
        detect_walls.empty() ? 0.0 : detect_walls[detect_walls.size() / 2];
    out->layers["dataflow.speedup_vs_1worker"] =
        median4 > 0 ? single_wall / median4 : 0.0;
  }
}

// ---------------------------------------------------------------------------
// Stream workload.

// Members are destroyed in reverse order, so the session closes before the
// table and the context it points to go away.
struct StreamSetup {
  std::unique_ptr<ExecutionContext> ctx;
  std::unique_ptr<BigDansing> system;
  std::vector<RulePtr> rules;
  std::unique_ptr<Table> table;
  Table source;
  std::unique_ptr<StreamSession> session;
  double open_flush_s = 0.0;
};

const std::vector<std::string> kStreamRules = {"phi1: FD: zipcode -> city",
                                               "phi6: FD: zipcode -> state"};

StreamOptions MakeStreamOptions() {
  StreamOptions options;
  options.batch_rows = kStreamBatchRows;
  options.session_name = "perfbench";
  return options;
}

std::unique_ptr<StreamSetup> SetUpStream(const std::string& base_path,
                                         const std::string& source_path,
                                         SpanLog* log, int64_t run,
                                         double* wall_s) {
  const auto t0 = Clock::now();
  ScopedSpan root(log, "setup", -1, run);
  StreamSetup s;
  {
    ScopedSpan span(log, "data.load", root.id(), run);
    s.table = std::make_unique<Table>(LoadTable(base_path));
    s.source = LoadTable(source_path);
  }
  s.rules = ParseRules(kStreamRules);
  s.ctx = std::make_unique<ExecutionContext>(kWorkers);
  s.system = std::make_unique<BigDansing>(s.ctx.get(), CleanOptions());
  const auto t1 = Clock::now();
  {
    ScopedSpan span(log, "stream.open", root.id(), run);
    s.session = Must(
        s.system->OpenStream(s.table.get(), s.rules, MakeStreamOptions()),
        "OpenStream");
  }
  {
    ScopedSpan span(log, "stream.flush", root.id(), run);
    auto flushed = Must(s.session->Flush(), "base Flush");
    if (!flushed.converged) Die("base Flush did not converge");
  }
  s.open_flush_s = SecondsSince(t1);
  *wall_s = SecondsSince(t0);
  return std::make_unique<StreamSetup>(std::move(s));
}

size_t DifferingCells(const Row& a, const Row& b) {
  size_t n = 0;
  for (size_t c = 0; c < a.size(); ++c) n += a.value(c) == b.value(c) ? 0 : 1;
  return n;
}

void RunStream(GeneratedData data, double seconds, SpanLog* log,
               const std::string& base_path, const std::string& source_path,
               RunOutput* out) {
  out->rows = kStreamBaseRows;
  out->latency_op = "window";
  out->throughput_op = "window";
  out->throughput_reduce = "total";
  {
    Table base(data.dirty.schema());
    Table source(data.dirty.schema());
    for (size_t i = 0; i < data.dirty.num_rows(); ++i) {
      (i < kStreamBaseRows ? base : source)
          .AppendRowWithId(data.dirty.row(i));
    }
    WriteFile(base_path, SerializeTableBinary(base));
    WriteFile(source_path, SerializeTableBinary(source));
  }

  std::unique_ptr<StreamSetup> setup;
  std::vector<double> open_flush;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double wall = 0;
    setup.reset();  // The previous session closes before the next opens.
    setup = SetUpStream(base_path, source_path, log, -1 - i, &wall);
    out->setup_s.push_back(wall);
    open_flush.push_back(setup->open_flush_s);
  }
  StreamSetup& s = *setup;
  StreamSession& session = *s.session;

  // Ground-truth row of every row id the session sees: base rows keep their
  // generator ids, appended rows get fresh ids in order.
  std::vector<size_t> truth_of(kStreamBaseRows);
  std::deque<RowId> live;
  for (const Row& row : session.table().rows()) {
    truth_of[static_cast<size_t>(row.id())] = static_cast<size_t>(row.id());
    live.push_back(row.id());
  }
  RowId next_id = static_cast<RowId>(kStreamBaseRows);
  size_t cursor = 0;

  LayerSums sums;
  const StreamSessionStats stats0 = session.stats();
  const size_t reports0 = session.metrics().StageReports().size();
  const uint64_t shuffled0 = session.metrics().shuffled_records();
  const uint64_t stages0 = session.metrics().stages();
  const uint64_t tasks0 = session.metrics().tasks();
  const double sim0 = session.metrics().SimulatedWallSeconds();
  const uint64_t steals0 = Steals();

  const auto start = Clock::now();
  for (size_t w = 0; w < kMinReps || SecondsSince(start) < seconds; ++w) {
    const bool traced = log->on() && w % 2 == 0;
    SpanLog off(false);
    SpanLog* rec = traced ? log : &off;
    const int64_t run = static_cast<int64_t>(w);

    // A sliding window over the stream: append one 1 % batch and retract
    // the same number of the oldest live rows, so the table (and with it
    // the per-window cost) stays at its base size for the whole run.
    std::vector<Row> batch;
    batch.reserve(kStreamBatchRows);
    for (size_t i = 0; i < kStreamBatchRows; ++i) {
      const size_t src = cursor++ % kStreamSourceRows;
      batch.emplace_back(next_id++, s.source.row(src).values());
      truth_of.push_back(kStreamBaseRows + src);
      live.push_back(batch.back().id());
    }
    std::vector<RowId> retract(live.begin(), live.begin() + kStreamBatchRows);
    live.erase(live.begin(), live.begin() + kStreamBatchRows);

    bool ok = true;
    size_t candidates = 0, dirty_blocks = 0, iterations = 0;
    double detect_s = 0, repair_s = 0;
    const auto t0 = Clock::now();
    {
      ScopedSpan root(rec, "window", -1, run);
      {
        ScopedSpan span(rec, "stream.append", root.id(), run);
        ok = session.Append(std::move(batch)).ok() && ok;
      }
      {
        ScopedSpan span(rec, "stream.retract", root.id(), run);
        ok = session.Retract(retract).ok() && ok;
      }
      while (ok && session.pending_batches() > 0) {
        ScopedSpan span(rec, "stream.poll", root.id(), run);
        auto report = session.Poll();
        ok = report.ok();
        if (!ok) break;
        candidates += report->candidate_rows;
        dirty_blocks += report->dirty_blocks;
        iterations += report->iterations;
        detect_s += report->detect_seconds;
        repair_s += report->repair_seconds;
      }
    }
    const double wall = SecondsSince(t0);
    ok = ok && session.table().num_rows() == kStreamBaseRows;
    out->ops.push_back({"window", ok, wall, kStreamBatchRows, traced});
    if (!traced) continue;
    sums.Count();
    sums.Add("stream.candidate_rows", static_cast<double>(candidates));
    sums.Add("stream.dirty_blocks", static_cast<double>(dirty_blocks));
    sums.Add("core.clean_iterations", static_cast<double>(iterations));
    sums.Add("core.clean_detect_s", detect_s);
    sums.Add("core.clean_repair_s", repair_s);
    sums.Add("repair.pass_s", repair_s);
  }
  const size_t windows = out->ops.size();
  const StreamSessionStats stats1 = session.stats();
  if (log->on()) {
    // Session dataflow counters over every window of the loop (traced and
    // untraced alike), per window.
    const auto reports = session.metrics().StageReports();
    const StageTotals t = SumStages(std::vector<StageReport>(
        reports.begin() + static_cast<std::ptrdiff_t>(reports0), reports.end()));
    double loop_wall = 0;
    for (const Op& op : out->ops) loop_wall += op.wall_s;
    const double per = 1.0 / static_cast<double>(windows);
    auto& L = out->layers;
    L["dataflow.shuffled_records"] =
        per * static_cast<double>(session.metrics().shuffled_records() -
                                  shuffled0);
    L["dataflow.stages"] =
        per * static_cast<double>(session.metrics().stages() - stages0);
    L["dataflow.tasks"] =
        per * static_cast<double>(session.metrics().tasks() - tasks0);
    L["dataflow.busy_s"] = per * t.busy_s;
    L["dataflow.sim_wall_s"] =
        per * (session.metrics().SimulatedWallSeconds() - sim0);
    L["dataflow.utilization"] = t.busy_s / (loop_wall * kWorkers);
    L["dataflow.straggler_ratio"] =
        t.busy_s > 0 ? t.straggler_weighted / t.busy_s : 0.0;
    L["dataflow.retries"] = per * static_cast<double>(t.retries);
    L["common.threadpool_steals"] =
        per * static_cast<double>(Steals() - steals0);
    L["rules.kernel_busy_s"] = per * t.kernel_busy_s;
    L["stream.index_rows"] = static_cast<double>(stats1.index_rows);
    L["stream.pool_growths"] =
        per * static_cast<double>(stats1.pool_growths - stats0.pool_growths);
    L["stream.kernel_rebinds"] =
        per *
        static_cast<double>(stats1.kernel_rebinds - stats0.kernel_rebinds);
    std::map<std::string, double> means;
    sums.MeanInto(&means);
    for (const auto& [k, v] : means) L[k] = v;
    L["stream.candidate_rows_per_row"] =
        means["stream.candidate_rows"] / static_cast<double>(kStreamBatchRows);
    L.erase("stream.candidate_rows");
  }

  // The final Flush drains the session and verifies the whole table; its
  // output check also compares the incremental index against a fresh
  // session built over the final table.
  {
    ScopedSpan root(log, "final", -1, kFinalRun);
    bool ok = false;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(log, "stream.flush", root.id(), kFinalRun);
      auto flushed = session.Flush();
      ok = flushed.ok() && flushed->converged;
    }
    const double wall = SecondsSince(t0);
    Table final_table = session.table();
    auto fresh = Must(
        s.system->OpenStream(&final_table, s.rules, MakeStreamOptions()),
        "OpenStream over the final table");
    if (ok && fresh->IndexFingerprints() != session.IndexFingerprints()) {
      ok = false;
      out->check_failures.push_back("index fingerprints differ from a fresh "
                                    "session over the final table");
    }
    out->ops.push_back({"flush", ok, wall, kStreamBaseRows, log->on()});
  }

  // Quality over the live rows: cells still wrong after the stream cleaned
  // them over the cells that were wrong when they arrived.
  size_t before = 0, after = 0, updates = 0, correct = 0;
  for (const Row& row : session.table().rows()) {
    const size_t src = truth_of[static_cast<size_t>(row.id())];
    const Row& truth = data.clean.row(src);
    const Row& dirty = data.dirty.row(src);
    before += DifferingCells(dirty, truth);
    after += DifferingCells(row, truth);
    for (size_t c = 0; c < row.size(); ++c) {
      if (!(row.value(c) == dirty.value(c))) {
        ++updates;
        correct += row.value(c) == truth.value(c) ? 1 : 0;
      }
    }
  }
  out->residual = before ? static_cast<double>(after) / before : 0.0;
  out->precision = updates ? static_cast<double>(correct) / updates : 0.0;
  out->recall = before ? static_cast<double>(correct) / before : 0.0;

  if (log->on()) {
    // OpenStream + base Flush on a one-worker context, against the median
    // four-worker set-up.
    Table base = LoadTable(base_path);
    ExecutionContext single(1);
    BigDansing one(&single, CleanOptions());
    const auto t0 = Clock::now();
    auto session1 =
        Must(one.OpenStream(&base, s.rules, MakeStreamOptions()), "OpenStream");
    Must(session1->Flush(), "1-worker Flush");
    const double single_wall = SecondsSince(t0);
    std::sort(open_flush.begin(), open_flush.end());
    out->layers["dataflow.speedup_vs_1worker"] =
        single_wall / open_flush[open_flush.size() / 2];
    LayerSums enc;
    for (int i = 0; i < kSetupRepeats; ++i) {
      enc.Count();
      TraceEncode(log, kLayerRunBase + i, s.ctx.get(), base, {"zipcode", "city", "state"},
                  &enc);
    }
    enc.MeanInto(&out->layers);
  }
}

// ---------------------------------------------------------------------------

std::string ToJson(const RunOutput& o) {
  std::ostringstream js;
  js << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
     << ",\"rows\":" << o.rows << ",\"workers\":" << kWorkers
     << ",\"latency_op\":\"" << o.latency_op << "\",\"throughput_op\":\""
     << o.throughput_op << "\",\"throughput_reduce\":\""
     << o.throughput_reduce << "\",\"setup_s\":[";
  for (size_t i = 0; i < o.setup_s.size(); ++i) {
    js << (i ? "," : "") << Num(o.setup_s[i]);
  }
  js << "],\"ops\":[";
  for (size_t i = 0; i < o.ops.size(); ++i) {
    const Op& op = o.ops[i];
    js << (i ? "," : "") << "{\"kind\":\"" << op.kind
       << "\",\"ok\":" << (op.ok ? "true" : "false")
       << ",\"wall_s\":" << Num(op.wall_s) << ",\"rows\":" << op.rows
       << ",\"traced\":" << (op.traced ? "true" : "false") << "}";
  }
  js << "],\"quality\":{\"residual\":" << Num(o.residual)
     << ",\"precision\":" << Num(o.precision)
     << ",\"recall\":" << Num(o.recall) << "},\"peak_rss_mb\":"
     << Num(PeakRssMb()) << ",\"check_failures\":[";
  for (size_t i = 0; i < o.check_failures.size(); ++i) {
    js << (i ? "," : "") << "\"" << o.check_failures[i] << "\"";
  }
  js << "],\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : o.layers) {
    js << (first ? "" : ",") << "\"" << k << "\":" << Num(v);
    first = false;
  }
  js << "},\"spans_file\":\"" << o.spans_file << "\"}";
  return js.str();
}

int Main(int argc, char** argv) {
  std::string workload, out_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--out-dir") {
      out_dir = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || workload.empty() || out_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    Die("usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 --out-dir DIR");
  }

  RunOutput out;
  out.workload = workload;
  out.seed = seed;
  SpanLog log(trace == 1);
  const std::string prefix =
      out_dir + "/" + workload + "-" + std::to_string(seed);
  if (workload == "hai_fd_batch") {
    const BatchSpec spec{{"phi6: FD: zipcode -> state",
                          "phi7: FD: phone -> zipcode",
                          "phi8: FD: provider_id -> city, phone"},
                         RepairMode::kEquivalenceClass,
                         {"zipcode", "state", "phone", "provider_id", "city"},
                         ""};
    RunBatch(spec, GenerateHai(kHaiRows, kErrorRate, seed), seconds, &log,
             prefix + ".bin", &out);
  } else if (workload == "taxb_dc_batch") {
    const BatchSpec spec{
        {"phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate"},
        RepairMode::kHypergraph,
        {"salary", "rate"},
        "rate"};
    RunBatch(spec, GenerateTaxB(kTaxbRows, kTaxbErrorRate, seed), seconds, &log,
             prefix + ".bin", &out);
  } else if (workload == "taxa_stream") {
    RunStream(GenerateTaxA(kStreamBaseRows + kStreamSourceRows, kErrorRate,
                           seed),
              seconds, &log, prefix + "-base.bin", prefix + "-source.bin",
              &out);
  } else {
    Die("unknown workload " + workload);
  }
  std::remove((prefix + ".bin").c_str());
  std::remove((prefix + "-base.bin").c_str());
  std::remove((prefix + "-source.bin").c_str());
  if (log.on()) {
    out.spans_file = prefix + "-trace.json";
    if (!log.Write(out.spans_file)) Die("cannot write " + out.spans_file);
  }
  std::printf("%s\n", ToJson(out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
