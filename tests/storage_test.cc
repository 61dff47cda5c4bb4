#include "data/storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

/// Storage-backed detection through the unified request API.
Result<DetectionResult> DetectWithStorage(const RuleEngine& engine,
                                          const StorageManager& storage,
                                          const std::string& name,
                                          const RulePtr& rule) {
  DetectRequest request;
  request.storage = &storage;
  request.dataset = name;
  request.rules = {rule};
  auto results = engine.Detect(request);
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

Table SmallTable() {
  Table t(Schema({"zipcode", "city", "state"}));
  t.AppendRow({Value(static_cast<int64_t>(90210)), Value("LA"), Value("CA")});
  t.AppendRow({Value(static_cast<int64_t>(90210)), Value("SF"), Value("CA")});
  t.AppendRow({Value(static_cast<int64_t>(10011)), Value("NY"), Value("NY")});
  t.AppendRow({Value(static_cast<int64_t>(90210)), Value("LA"), Value("CA")});
  return t;
}

TEST(StorageManager, StoreAndLoadRoundTrip) {
  StorageManager storage;
  Table t = SmallTable();
  ASSERT_TRUE(storage.Store("tax", t, "zipcode", 4).ok());
  auto loaded = storage.Load("tax");
  ASSERT_TRUE(loaded.ok());
  // Same rows, possibly reordered by partitioning.
  EXPECT_EQ(loaded->num_rows(), t.num_rows());
  for (const Row& row : t.rows()) {
    const Row* found = loaded->FindRowById(row.id());
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->values(), row.values());
  }
}

TEST(StorageManager, PartitioningColocatesKeys) {
  StorageManager storage;
  ASSERT_TRUE(storage.Store("tax", SmallTable(), "zipcode", 3).ok());
  auto replica = storage.FindReplica("tax", "zipcode");
  ASSERT_TRUE(replica.ok());
  // Every partition must be internally homogeneous-by-hash: all rows of a
  // given zipcode live in exactly one partition.
  std::map<int64_t, std::set<size_t>> zip_parts;
  for (size_t p = 0; p < (*replica)->partitions.size(); ++p) {
    for (const Row& row : (*replica)->partitions[p]) {
      zip_parts[row.value(0).as_int()].insert(p);
    }
  }
  for (const auto& [zip, parts] : zip_parts) {
    EXPECT_EQ(parts.size(), 1u) << "zipcode " << zip << " spread over parts";
  }
}

TEST(StorageManager, HeterogeneousReplication) {
  StorageManager storage;
  ASSERT_TRUE(storage.Store("tax", SmallTable(), "zipcode", 2).ok());
  ASSERT_TRUE(storage.AddReplica("tax", "state", 2).ok());
  EXPECT_EQ(storage.ReplicaAttributes("tax"),
            (std::vector<std::string>{"zipcode", "state"}));
  EXPECT_TRUE(storage.FindReplica("tax", "state").ok());
  EXPECT_FALSE(storage.FindReplica("tax", "city").ok());
  // Duplicate replica rejected.
  EXPECT_EQ(storage.AddReplica("tax", "state", 2).code(),
            StatusCode::kAlreadyExists);
}

TEST(StorageManager, ErrorCases) {
  StorageManager storage;
  Table t = SmallTable();
  EXPECT_FALSE(storage.Store("x", t, "nope", 2).ok());  // Unknown attribute.
  ASSERT_TRUE(storage.Store("x", t, "zipcode", 2).ok());
  EXPECT_EQ(storage.Store("x", t, "zipcode", 2).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(storage.Load("missing").ok());
  EXPECT_FALSE(storage.AddReplica("missing", "zipcode", 2).ok());
  EXPECT_FALSE(storage.FindReplica("missing", "zipcode").ok());
}

TEST(BinaryLayout, RoundTripsAllTypes) {
  Table t(Schema({"i", "d", "s", "n"}));
  t.AppendRow({Value(static_cast<int64_t>(-42)), Value(3.25),
               Value("hello, \"world\"\n"), Value::Null()});
  t.AppendRow({Value(static_cast<int64_t>(1)), Value(0.0), Value(""),
               Value::Null()});
  std::string buffer = SerializeTableBinary(t);
  auto back = DeserializeTableBinary(buffer);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
}

TEST(BinaryLayout, RejectsCorruptBuffers) {
  Table t = SmallTable();
  std::string buffer = SerializeTableBinary(t);
  EXPECT_FALSE(DeserializeTableBinary("garbage").ok());
  EXPECT_FALSE(DeserializeTableBinary(buffer.substr(0, 10)).ok());
  std::string truncated = buffer.substr(0, buffer.size() - 3);
  EXPECT_FALSE(DeserializeTableBinary(truncated).ok());
}

TEST(BinaryLayout, RejectsCorruptRowCount) {
  // A corrupted row count must fail as a ParseError before anything is
  // sized from it, not abort on an oversized allocation.
  auto data = GenerateTaxA(200, 0.0, /*seed=*/3);
  const std::string buffer = SerializeTableBinary(data.dirty);
  size_t offset = sizeof(uint32_t) + sizeof(uint64_t);  // magic, num_cols
  for (const auto& name : data.dirty.schema().attributes()) {
    offset += sizeof(uint64_t) + name.size();
  }
  uint64_t stored = 0;
  std::memcpy(&stored, buffer.data() + offset, sizeof(stored));
  ASSERT_EQ(stored, 200u);
  for (uint64_t bad : {uint64_t{201}, uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string corrupt = buffer;
    std::memcpy(&corrupt[offset], &bad, sizeof(bad));
    auto back = DeserializeTableBinary(corrupt);
    ASSERT_FALSE(back.ok()) << bad;
    EXPECT_EQ(back.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(BinaryLayout, FileRoundTrip) {
  Table t = SmallTable();
  std::string path = ::testing::TempDir() + "/bigdansing_table.bin";
  ASSERT_TRUE(SaveBinary(t, path).ok());
  auto back = LoadBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
}

TEST(BlockPushdown, SkipsShuffleAndMatchesOrdinaryDetection) {
  auto data = GenerateTaxA(5000, 0.1, 21);
  auto rule_text = "phi1: FD: zipcode -> city";

  // Ordinary path.
  ExecutionContext plain_ctx(4);
  RuleEngine plain_engine(&plain_ctx);
  auto reference = plain_engine.Detect(data.dirty, *ParseRule(rule_text));
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(plain_ctx.metrics().shuffled_records(), 0u);

  // Storage path with a replica partitioned on the blocking attribute.
  StorageManager storage;
  ASSERT_TRUE(storage.Store("taxa", data.dirty, "zipcode", 8).ok());
  ExecutionContext storage_ctx(4);
  RuleEngine storage_engine(&storage_ctx);
  auto pushed = DetectWithStorage(storage_engine, storage, "taxa",
                                  *ParseRule(rule_text));
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();

  // Same violation count, zero shuffled records.
  EXPECT_EQ(pushed->violations.size(), reference->violations.size());
  EXPECT_EQ(storage_ctx.metrics().shuffled_records(), 0u);
  EXPECT_NE(pushed->plan_description.find("pushed down"), std::string::npos);
}

TEST(BlockPushdown, FallsBackWithoutMatchingReplica) {
  auto data = GenerateTaxA(1000, 0.1, 22);
  StorageManager storage;
  // Partitioned on state, but the rule blocks on zipcode.
  ASSERT_TRUE(storage.Store("taxa", data.dirty, "state", 4).ok());
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto result = DetectWithStorage(engine, storage, "taxa",
                                  *ParseRule("phi1: FD: zipcode -> city"));
  ASSERT_TRUE(result.ok());
  // Fallback shuffled (ordinary path).
  EXPECT_GT(ctx.metrics().shuffled_records(), 0u);
  // And still found the violations.
  RuleEngine plain(&ctx);
  auto reference = plain.Detect(data.dirty, *ParseRule("phi1: FD: zipcode -> city"));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result->violations.size(), reference->violations.size());
}

}  // namespace
}  // namespace bigdansing
