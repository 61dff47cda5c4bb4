#include "data/storage.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/hash.h"

namespace bigdansing {

namespace {

constexpr uint32_t kMagic = 0x42444253;  // "BDBS"

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

/// Sequential reader over a serialized buffer with bounds checking.
class Reader {
 public:
  explicit Reader(const std::string& buffer) : buffer_(buffer) {}

  template <typename T>
  bool Read(T* out) {
    if (pos_ + sizeof(T) > buffer_.size()) return false;
    std::memcpy(out, buffer_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* out) {
    uint64_t len = 0;
    if (!Read(&len) || len > remaining()) return false;
    out->assign(buffer_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  const std::string& buffer_;
  size_t pos_ = 0;
};

}  // namespace

Result<PartitionedReplica> StorageManager::BuildReplica(
    const Schema& schema, const std::vector<Row>& rows,
    const std::string& attribute, size_t num_partitions) const {
  auto column = schema.IndexOf(attribute);
  if (!column.ok()) return column.status();
  if (num_partitions == 0) num_partitions = 1;
  PartitionedReplica replica;
  replica.attribute = attribute;
  replica.column = *column;
  replica.partitions.resize(num_partitions);
  for (const Row& row : rows) {
    size_t p = static_cast<size_t>(row.value(*column).Hash()) % num_partitions;
    replica.partitions[p].push_back(row);
  }
  return replica;
}

Status StorageManager::Store(const std::string& name, const Table& table,
                             const std::string& partition_attribute,
                             size_t num_partitions) {
  if (datasets_.count(name) > 0) {
    return Status::AlreadyExists("dataset '" + name + "' already stored");
  }
  auto replica = BuildReplica(table.schema(), table.rows(),
                              partition_attribute, num_partitions);
  if (!replica.ok()) return replica.status();
  StoredDataset stored;
  stored.schema = table.schema();
  stored.replicas.push_back(std::move(*replica));
  datasets_.emplace(name, std::move(stored));
  return Status::OK();
}

Status StorageManager::AddReplica(const std::string& name,
                                  const std::string& partition_attribute,
                                  size_t num_partitions) {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' not stored");
  }
  for (const auto& r : it->second.replicas) {
    if (r.attribute == partition_attribute) {
      return Status::AlreadyExists("replica on '" + partition_attribute +
                                   "' already exists for '" + name + "'");
    }
  }
  // Rebuild the row set from the primary replica.
  std::vector<Row> rows;
  for (const auto& part : it->second.replicas[0].partitions) {
    rows.insert(rows.end(), part.begin(), part.end());
  }
  auto replica = BuildReplica(it->second.schema, rows, partition_attribute,
                              num_partitions);
  if (!replica.ok()) return replica.status();
  it->second.replicas.push_back(std::move(*replica));
  return Status::OK();
}

Result<const PartitionedReplica*> StorageManager::FindReplica(
    const std::string& name, const std::string& attribute) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' not stored");
  }
  for (const auto& r : it->second.replicas) {
    if (r.attribute == attribute) return &r;
  }
  return Status::NotFound("no replica of '" + name + "' partitioned on '" +
                          attribute + "'");
}

Result<Table> StorageManager::Load(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' not stored");
  }
  Table table(it->second.schema);
  for (const auto& part : it->second.replicas[0].partitions) {
    for (const Row& row : part) table.AppendRowWithId(row);
  }
  return table;
}

Result<Schema> StorageManager::GetSchema(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' not stored");
  }
  return it->second.schema;
}

std::vector<std::string> StorageManager::ReplicaAttributes(
    const std::string& name) const {
  std::vector<std::string> out;
  auto it = datasets_.find(name);
  if (it == datasets_.end()) return out;
  for (const auto& r : it->second.replicas) out.push_back(r.attribute);
  return out;
}

namespace {

void PutValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutI64(out, v.as_int());
      break;
    case ValueType::kDouble:
      PutF64(out, v.as_double());
      break;
    case ValueType::kString:
      PutString(out, v.as_string());
      break;
  }
}

bool ReadValue(Reader* reader, Value* out) {
  char tag = 0;
  if (!reader->Read(&tag)) return false;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kInt: {
      int64_t v = 0;
      if (!reader->Read(&v)) return false;
      *out = Value(v);
      return true;
    }
    case ValueType::kDouble: {
      double v = 0;
      if (!reader->Read(&v)) return false;
      *out = Value(v);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!reader->ReadString(&s)) return false;
      *out = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::string SerializeRow(const Row& row) {
  std::string out;
  PutI64(&out, row.id());
  PutU64(&out, row.size());
  for (size_t i = 0; i < row.size(); ++i) PutValue(&out, row.value(i));
  PutU64(&out, row.source_columns().size());
  for (size_t c : row.source_columns()) PutU64(&out, c);
  return out;
}

Result<Row> DeserializeRow(const std::string& buffer) {
  Reader reader(buffer);
  RowId id = 0;
  uint64_t size = 0;
  if (!reader.Read(&id) || !reader.Read(&size) || size > (uint64_t{1} << 24)) {
    return Status::ParseError("corrupt row header");
  }
  std::vector<Value> values;
  values.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    Value v;
    if (!ReadValue(&reader, &v)) return Status::ParseError("corrupt row value");
    values.push_back(std::move(v));
  }
  Row row(id, std::move(values));
  uint64_t num_sources = 0;
  if (!reader.Read(&num_sources) || num_sources > (uint64_t{1} << 24)) {
    return Status::ParseError("corrupt row source columns");
  }
  if (num_sources > 0) {
    std::vector<size_t> sources(num_sources);
    for (auto& s : sources) {
      uint64_t v = 0;
      if (!reader.Read(&v)) return Status::ParseError("corrupt source column");
      s = static_cast<size_t>(v);
    }
    row.set_source_columns(std::move(sources));
  }
  return row;
}

std::string SerializeTableBinary(const Table& table) {
  std::string out;
  PutU32(&out, kMagic);
  const Schema& schema = table.schema();
  PutU64(&out, schema.num_attributes());
  for (const auto& a : schema.attributes()) PutString(&out, a);
  PutU64(&out, table.num_rows());
  // Row ids.
  for (const Row& row : table.rows()) PutI64(&out, row.id());
  // Column-oriented values: per column, a type tag then the payload.
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    for (const Row& row : table.rows()) {
      const Value& v = row.value(c);
      out.push_back(static_cast<char>(v.type()));
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kInt:
          PutI64(&out, v.as_int());
          break;
        case ValueType::kDouble:
          PutF64(&out, v.as_double());
          break;
        case ValueType::kString:
          PutString(&out, v.as_string());
          break;
      }
    }
  }
  return out;
}

Result<Table> DeserializeTableBinary(const std::string& buffer) {
  Reader reader(buffer);
  uint32_t magic = 0;
  if (!reader.Read(&magic) || magic != kMagic) {
    return Status::ParseError("not a BigDansing binary table");
  }
  uint64_t num_cols = 0;
  if (!reader.Read(&num_cols) || num_cols > 1u << 20) {
    return Status::ParseError("corrupt column count");
  }
  std::vector<std::string> names(num_cols);
  for (auto& n : names) {
    if (!reader.ReadString(&n)) return Status::ParseError("corrupt schema");
  }
  uint64_t num_rows = 0;
  // Every row takes at least its id plus one type tag per column, so a
  // count the remaining bytes cannot hold is corrupt — reject it before
  // anything is sized from it.
  if (!reader.Read(&num_rows) ||
      num_rows > reader.remaining() / (sizeof(RowId) + num_cols)) {
    return Status::ParseError("corrupt row count");
  }
  std::vector<RowId> ids(num_rows);
  for (auto& id : ids) {
    if (!reader.Read(&id)) return Status::ParseError("corrupt row ids");
  }
  std::vector<std::vector<Value>> columns(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    columns[c].reserve(num_rows);
    for (uint64_t r = 0; r < num_rows; ++r) {
      char tag = 0;
      if (!reader.Read(&tag)) return Status::ParseError("corrupt value tag");
      switch (static_cast<ValueType>(tag)) {
        case ValueType::kNull:
          columns[c].push_back(Value::Null());
          break;
        case ValueType::kInt: {
          int64_t v = 0;
          if (!reader.Read(&v)) return Status::ParseError("corrupt int");
          columns[c].push_back(Value(v));
          break;
        }
        case ValueType::kDouble: {
          double v = 0;
          if (!reader.Read(&v)) return Status::ParseError("corrupt double");
          columns[c].push_back(Value(v));
          break;
        }
        case ValueType::kString: {
          std::string s;
          if (!reader.ReadString(&s)) return Status::ParseError("corrupt string");
          columns[c].push_back(Value(std::move(s)));
          break;
        }
        default:
          return Status::ParseError("unknown value tag");
      }
    }
  }
  Table table((Schema(names)));
  for (uint64_t r = 0; r < num_rows; ++r) {
    std::vector<Value> values;
    values.reserve(num_cols);
    for (uint64_t c = 0; c < num_cols; ++c) {
      values.push_back(std::move(columns[c][r]));
    }
    table.AppendRowWithId(Row(ids[r], std::move(values)));
  }
  return table;
}

Status SaveBinary(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  std::string buffer = SerializeTableBinary(table);
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<Table> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeTableBinary(buffer.str());
}

}  // namespace bigdansing
