#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "repair/quality.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"

namespace bigdansing {
namespace {

/// Incremental re-detection through the unified request API.
Result<DetectionResult> DetectIncremental(
    const RuleEngine& engine, const Table& table, const RulePtr& rule,
    const std::unordered_set<RowId>& changed) {
  DetectRequest request;
  request.table = &table;
  request.rules = {rule};
  request.changed_rows = &changed;
  auto results = engine.Detect(request);
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

std::set<std::pair<RowId, RowId>> PairSet(const DetectionResult& result) {
  std::set<std::pair<RowId, RowId>> pairs;
  for (const auto& vf : result.violations) {
    auto ids = vf.violation.RowIds();
    if (ids.size() != 2) continue;
    pairs.insert({std::min(ids[0], ids[1]), std::max(ids[0], ids[1])});
  }
  return pairs;
}

TEST(Incremental, BlockedRuleFindsExactlyTouchedViolations) {
  auto data = GenerateTaxA(3000, 0.1, 31);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());

  // Changed rows = all rows involved in violations: the incremental pass
  // must find the same violation set.
  std::unordered_set<RowId> changed;
  for (const auto& vf : full->violations) {
    for (RowId id : vf.violation.RowIds()) changed.insert(id);
  }
  auto incremental = DetectIncremental(engine, data.dirty, rule, changed);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(PairSet(*incremental), PairSet(*full));
  // It visited fewer blocks than the full pass probed.
  EXPECT_LE(incremental->detect_calls, full->detect_calls);
}

TEST(Incremental, SubsetOfChangesFindsSubsetOfViolations) {
  auto data = GenerateTaxA(3000, 0.1, 32);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->violations.empty());

  // Only one violating row marked as changed: the incremental result must
  // be a non-empty subset of the full result containing that row.
  RowId target = full->violations[0].violation.RowIds()[0];
  auto incremental = DetectIncremental(engine, data.dirty, rule, {target});
  ASSERT_TRUE(incremental.ok());
  auto inc_pairs = PairSet(*incremental);
  auto full_pairs = PairSet(*full);
  EXPECT_FALSE(inc_pairs.empty());
  for (const auto& p : inc_pairs) {
    EXPECT_TRUE(full_pairs.count(p)) << p.first << "," << p.second;
  }
}

TEST(Incremental, EmptyChangeSetFindsNothing) {
  auto data = GenerateTaxA(500, 0.1, 33);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto incremental = DetectIncremental(engine, data.dirty, rule, {});
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->violations.empty());
  EXPECT_EQ(incremental->detect_calls, 0u);
}

TEST(Incremental, UnblockedDcMatchesFullOnChangedRows) {
  auto data = GenerateTaxB(800, 0.1, 34);
  auto rule = *ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());
  std::unordered_set<RowId> changed;
  for (const auto& vf : full->violations) {
    for (RowId id : vf.violation.RowIds()) changed.insert(id);
  }
  auto incremental = DetectIncremental(engine, data.dirty, rule, changed);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(PairSet(*incremental), PairSet(*full));
}

TEST(Incremental, NoDuplicateProbesWhenBothSidesChanged) {
  // Two changed rows violating with each other must yield exactly one
  // violation, not two.
  Table t(Schema({"salary", "rate"}));
  t.AppendRow({Value(static_cast<int64_t>(100)), Value(static_cast<int64_t>(9))});
  t.AppendRow({Value(static_cast<int64_t>(200)), Value(static_cast<int64_t>(5))});
  auto rule = *ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate");
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto incremental = DetectIncremental(engine, t, rule, {0, 1});
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(incremental->violations.size(), 1u);
}

TEST(Incremental, SymmetricUnblockedRuleMatchesFullDetect) {
  // A symmetric, unblocked rule: full detection probes each unordered pair
  // once (lower table position first), so the changed-rows path must too —
  // whether one or both rows of the violating pair changed.
  Table t(Schema({"a"}));
  t.AppendRow({Value(static_cast<int64_t>(1))});
  t.AppendRow({Value(static_cast<int64_t>(2))});
  auto rule = std::make_shared<UdfRule>("always");
  rule->set_symmetric(true).set_detect(
      [](const Schema& schema, const Row& a, const Row& b,
         std::vector<Violation>* out) {
        Violation v;
        v.rule_name = "always";
        v.cells.push_back(UdfRule::MakeUdfCell(a, 0, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(b, 0, schema));
        out->push_back(std::move(v));
      });
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(t, rule);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->violations.size(), 1u);
  auto ordered = [](const DetectionResult& result) {
    std::multiset<std::vector<RowId>> out;
    for (const auto& vf : result.violations) {
      out.insert(vf.violation.RowIds());
    }
    return out;
  };
  for (const std::unordered_set<RowId>& changed :
       {std::unordered_set<RowId>{0}, std::unordered_set<RowId>{1},
        std::unordered_set<RowId>{0, 1}}) {
    auto incremental = DetectIncremental(engine, t, rule, changed);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(ordered(*incremental), ordered(*full))
        << changed.size() << " changed row(s)";
  }
}

TEST(Incremental, CleanLoopMatchesNonIncrementalResult) {
  auto data = GenerateHai(4000, 0.1, 35, {3, 4});
  std::vector<RulePtr> rules = {*ParseRule("phi6: FD: zipcode -> state"),
                                *ParseRule("phi7: FD: phone -> zipcode")};
  ExecutionContext ctx(4);

  Table plain = data.dirty;
  CleanOptions plain_options;
  auto plain_report = BigDansing(&ctx, plain_options).Clean(&plain, rules);
  ASSERT_TRUE(plain_report.ok());

  Table inc = data.dirty;
  CleanOptions inc_options;
  inc_options.incremental_redetection = true;
  auto inc_report = BigDansing(&ctx, inc_options).Clean(&inc, rules);
  ASSERT_TRUE(inc_report.ok());

  EXPECT_TRUE(inc_report->converged);
  EXPECT_EQ(plain, inc);  // Identical repaired instances.
}

}  // namespace
}  // namespace bigdansing
