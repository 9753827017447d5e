#include "sim/spill.h"

#include <cstdio>
#include <cstring>

#include "common/fault.h"
#include "nn/serialize.h"
#include "sim/period.h"

namespace o2sr::sim {

namespace {

// Appends a column's raw bytes.
template <typename T>
void WriteColumn(std::string* out, const std::vector<T>& column) {
  const size_t pos = out->size();
  out->resize(pos + column.size() * sizeof(T));
  std::memcpy(out->data() + pos, column.data(), column.size() * sizeof(T));
}

template <typename T>
void ReadColumn(const std::string& bytes, size_t* pos, size_t rows,
                std::vector<T>* column) {
  column->resize(rows);
  std::memcpy(column->data(), bytes.data() + *pos, rows * sizeof(T));
  *pos += rows * sizeof(T);
}

constexpr size_t kRowBytes =
    2 * sizeof(uint32_t) + sizeof(uint16_t) + sizeof(uint8_t) +
    2 * sizeof(double);

common::Status Corrupt(const std::string& origin, const std::string& what) {
  return common::DataLossError("shard '" + origin + "': " + what);
}

}  // namespace

void ShardColumns::Append(const SpillRow& row) {
  store_region.push_back(row.store_region);
  customer_region.push_back(row.customer_region);
  type.push_back(row.type);
  slot.push_back(row.slot);
  delivery_minutes.push_back(row.delivery_minutes);
  distance_m.push_back(row.distance_m);
}

void ShardColumns::Reserve(size_t n) {
  store_region.reserve(n);
  customer_region.reserve(n);
  type.reserve(n);
  slot.reserve(n);
  delivery_minutes.reserve(n);
  distance_m.reserve(n);
}

void ShardColumns::Clear() {
  store_region.clear();
  customer_region.clear();
  type.clear();
  slot.clear();
  delivery_minutes.clear();
  distance_m.clear();
}

std::string ShardFileName(int block, int epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "shard-b%05d-e%05d.o2sp", block, epoch);
  return buf;
}

std::string SerializeShard(const ShardColumns& columns, ShardInfo* info) {
  info->rows = columns.rows();
  const uint64_t payload_bytes = info->rows * kRowBytes;

  std::string payload;
  payload.reserve(payload_bytes);
  WriteColumn(&payload, columns.store_region);
  WriteColumn(&payload, columns.customer_region);
  WriteColumn(&payload, columns.type);
  WriteColumn(&payload, columns.slot);
  WriteColumn(&payload, columns.delivery_minutes);
  WriteColumn(&payload, columns.distance_m);
  info->payload_fnv = nn::Fnv1a(payload);

  std::string out;
  out.reserve(kShardHeaderBytes + payload.size() + kShardFooterBytes);
  nn::ByteWriter w(&out);
  out.append(kShardMagic, 8);
  w.Scalar<uint32_t>(kShardVersion);
  w.Scalar<uint32_t>(info->block);
  w.Scalar<uint32_t>(info->epoch);
  w.Scalar<uint32_t>(info->region_begin);
  w.Scalar<uint32_t>(info->region_end);
  w.Scalar<uint32_t>(info->num_regions);
  w.Scalar<uint64_t>(info->config_hash);
  w.Scalar<uint64_t>(info->rows);
  w.Scalar<uint64_t>(payload_bytes);
  w.Scalar<uint64_t>(nn::Fnv1a(out));  // header checksum (bytes so far)

  out += payload;

  std::string footer;
  nn::ByteWriter f(&footer);
  f.Scalar<uint64_t>(info->rows);
  f.Scalar<uint64_t>(info->payload_fnv);
  f.Scalar<uint64_t>(nn::Fnv1a(footer));
  out += footer;
  return out;
}

common::Status ParseShard(const std::string& bytes, const std::string& origin,
                          ShardInfo* info, ShardColumns* columns) {
  if (bytes.size() < kShardHeaderBytes + kShardFooterBytes) {
    return Corrupt(origin, "file truncated below header + footer size");
  }
  if (std::memcmp(bytes.data(), kShardMagic, 8) != 0) {
    return Corrupt(origin, "bad magic");
  }
  const std::string header_bytes =
      bytes.substr(0, kShardHeaderBytes - sizeof(uint64_t));
  nn::ByteReader r(bytes);
  {  // skip magic
    char magic[8];
    O2SR_RETURN_IF_ERROR(r.Scalar(&magic));
  }
  uint32_t version = 0;
  uint64_t payload_bytes = 0, header_fnv = 0;
  O2SR_RETURN_IF_ERROR(r.Scalar(&version));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->block));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->epoch));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->region_begin));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->region_end));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->num_regions));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->config_hash));
  O2SR_RETURN_IF_ERROR(r.Scalar(&info->rows));
  O2SR_RETURN_IF_ERROR(r.Scalar(&payload_bytes));
  O2SR_RETURN_IF_ERROR(r.Scalar(&header_fnv));
  if (header_fnv != nn::Fnv1a(header_bytes)) {
    return Corrupt(origin, "header checksum mismatch");
  }
  if (version != kShardVersion) {
    return common::FailedPreconditionError(
        "shard '" + origin + "': format version " + std::to_string(version) +
        ", expected " + std::to_string(kShardVersion));
  }
  if (info->region_begin >= info->region_end ||
      info->region_end > info->num_regions) {
    return Corrupt(origin, "header region range is not a grid cell");
  }
  if (payload_bytes != info->rows * kRowBytes) {
    return Corrupt(origin, "payload size inconsistent with row count");
  }
  if (bytes.size() !=
      kShardHeaderBytes + payload_bytes + kShardFooterBytes) {
    return Corrupt(origin, "file size inconsistent with header");
  }

  const std::string payload =
      bytes.substr(kShardHeaderBytes, payload_bytes);
  const size_t footer_pos = kShardHeaderBytes + payload_bytes;
  uint64_t footer_rows = 0, footer_payload_fnv = 0, footer_fnv = 0;
  std::memcpy(&footer_rows, bytes.data() + footer_pos, 8);
  std::memcpy(&footer_payload_fnv, bytes.data() + footer_pos + 8, 8);
  std::memcpy(&footer_fnv, bytes.data() + footer_pos + 16, 8);
  if (footer_fnv != nn::Fnv1a(bytes.substr(footer_pos, 16))) {
    return Corrupt(origin, "footer checksum mismatch");
  }
  if (footer_rows != info->rows) {
    return Corrupt(origin, "footer row count disagrees with header");
  }
  info->payload_fnv = nn::Fnv1a(payload);
  if (info->payload_fnv != footer_payload_fnv) {
    return Corrupt(origin, "payload checksum mismatch");
  }

  // Checksums prove the bytes are the ones written; the bounds below prove
  // they are safe to index aggregation tables with. Validated straight off
  // the payload so a validate-only call (columns == nullptr) — the manifest
  // recovery path — rejects out-of-range rows too.
  {
    const char* base = bytes.data() + kShardHeaderBytes;
    const size_t rows = info->rows;
    const char* store_col = base;
    const char* customer_col = base + rows * sizeof(uint32_t);
    const char* slot_col = base + rows * (2 * sizeof(uint32_t) +
                                          sizeof(uint16_t));
    for (size_t i = 0; i < rows; ++i) {
      uint32_t store = 0, customer = 0;
      std::memcpy(&store, store_col + i * sizeof(uint32_t), sizeof(store));
      std::memcpy(&customer, customer_col + i * sizeof(uint32_t),
                  sizeof(customer));
      const uint8_t slot = static_cast<uint8_t>(slot_col[i]);
      if (store >= info->num_regions) {
        return Corrupt(origin, "row " + std::to_string(i) +
                                   " store_region out of range");
      }
      if (customer >= info->num_regions) {
        return Corrupt(origin, "row " + std::to_string(i) +
                                   " customer_region out of range");
      }
      if (slot >= kSlotsPerDay) {
        return Corrupt(origin,
                       "row " + std::to_string(i) + " slot out of range");
      }
    }
  }

  if (columns != nullptr) {
    const size_t rows = info->rows;
    size_t pos = kShardHeaderBytes;
    ReadColumn(bytes, &pos, rows, &columns->store_region);
    ReadColumn(bytes, &pos, rows, &columns->customer_region);
    ReadColumn(bytes, &pos, rows, &columns->type);
    ReadColumn(bytes, &pos, rows, &columns->slot);
    ReadColumn(bytes, &pos, rows, &columns->delivery_minutes);
    ReadColumn(bytes, &pos, rows, &columns->distance_m);
  }
  return common::Status::Ok();
}

common::Status ValidateShardTypes(const ShardColumns& columns, int num_types,
                                  const std::string& origin) {
  for (size_t i = 0; i < columns.type.size(); ++i) {
    if (static_cast<int>(columns.type[i]) >= num_types) {
      return Corrupt(origin, "row " + std::to_string(i) + " type " +
                                 std::to_string(columns.type[i]) +
                                 " out of range for " +
                                 std::to_string(num_types) + " store types");
    }
  }
  return common::Status::Ok();
}

common::StatusOr<ShardInfo> WriteShard(const std::string& path,
                                       const ShardColumns& columns,
                                       const ShardInfo& identity) {
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.InjectDelay("dataset.write");
  O2SR_RETURN_IF_ERROR(
      faults.InjectError("dataset.write").WithContext("writing " + path));
  ShardInfo info = identity;
  std::string bytes = SerializeShard(columns, &info);
  // An injected bitflip/trunc corrupts the *published* bytes: the shard
  // lands on disk torn, exactly like a bad disk or partial write, and the
  // read path must detect and quarantine it.
  faults.InjectCorruption("dataset.write", &bytes);
  O2SR_RETURN_IF_ERROR(nn::WriteFileAtomic(path, bytes));
  return info;
}

common::StatusOr<ShardInfo> ReadShard(const std::string& path,
                                      ShardColumns* columns) {
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.InjectDelay("dataset.read");
  O2SR_RETURN_IF_ERROR(
      faults.InjectError("dataset.read").WithContext("reading " + path));
  std::string bytes;
  O2SR_RETURN_IF_ERROR(nn::ReadFileToString(path, &bytes));
  faults.InjectCorruption("dataset.read", &bytes);
  ShardInfo info;
  O2SR_RETURN_IF_ERROR(ParseShard(bytes, path, &info, columns));
  return info;
}

}  // namespace o2sr::sim
