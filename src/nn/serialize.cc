#include "nn/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/check.h"
#include "common/fault.h"

namespace o2sr::nn {

using common::Status;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Status ByteReader::Need(uint64_t bytes) {
  // Compare against the remaining span, never `pos_ + bytes`: a corrupted
  // length prefix near UINT64_MAX would overflow the addition, pass the
  // check, and turn the next memcpy into an out-of-bounds read.
  if (bytes > bytes_.size() - pos_) {
    return common::DataLossError("payload truncated");
  }
  return Status::Ok();
}

Status ByteReader::Str(std::string* out) {
  uint64_t bytes = 0;
  O2SR_RETURN_IF_ERROR(Scalar(&bytes));
  O2SR_RETURN_IF_ERROR(Need(bytes));
  out->assign(bytes_.data() + pos_, bytes);
  pos_ += bytes;
  return Status::Ok();
}

Status ByteReader::TensorData(Tensor* out) {
  int32_t rows = 0, cols = 0;
  O2SR_RETURN_IF_ERROR(Scalar(&rows));
  O2SR_RETURN_IF_ERROR(Scalar(&cols));
  if (rows < 0 || cols < 0) {
    return common::DataLossError("negative tensor shape in payload");
  }
  uint64_t bytes = 0;
  O2SR_RETURN_IF_ERROR(Scalar(&bytes));
  const uint64_t expected = static_cast<uint64_t>(rows) * cols * sizeof(float);
  if (bytes != expected) {
    return common::DataLossError("tensor payload size mismatch");
  }
  O2SR_RETURN_IF_ERROR(Need(bytes));
  *out = Tensor(rows, cols);
  std::memcpy(out->data(), bytes_.data() + pos_, bytes);
  pos_ += bytes;
  return Status::Ok();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return common::NotFoundError("cannot open '" + path +
                                 "': " + std::strerror(errno));
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return common::UnavailableError("read error on '" + path + "'");
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  // Injection site "serialize.write": a full disk / failed publish.
  O2SR_RETURN_IF_ERROR(
      common::FaultInjector::Global().InjectError("serialize.write"));
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return common::UnavailableError("cannot open '" + tmp +
                                    "' for writing: " + std::strerror(errno));
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool write_error = std::ferror(f) != 0 || written != contents.size();
  // stdio may hold the whole file in its buffer until fclose, so a full
  // disk, a file-size limit or an I/O error on that final flush shows up
  // only here; the temp file is then short and must not be published.
  const bool close_error = std::fclose(f) != 0;
  if (write_error || close_error) {
    const int err = errno;
    std::remove(tmp.c_str());
    return common::UnavailableError("write error on '" + tmp +
                                    "': " + std::strerror(err));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return common::UnavailableError("cannot rename '" + tmp + "' to '" +
                                    path + "': " + std::strerror(errno));
  }
  return Status::Ok();
}

Status AppendToFile(const std::string& path, const std::string& bytes) {
  // O_APPEND without O_CREAT: the file must already exist, so a vanished
  // file is NOT_FOUND rather than a new file holding only this record.
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    const std::string message =
        "cannot open '" + path + "' for appending: " + std::strerror(err);
    return err == ENOENT ? common::NotFoundError(message)
                         : common::UnavailableError(message);
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const int err = errno;
      ::close(fd);
      return common::UnavailableError("append error on '" + path +
                                      "': " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    return common::UnavailableError("append error on '" + path +
                                    "': " + std::strerror(errno));
  }
  return Status::Ok();
}

common::StatusOr<std::string> QuarantineFile(const std::string& path,
                                             const std::string& reason) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path source(path);
  if (!fs::exists(source, ec)) {
    return common::NotFoundError("cannot quarantine '" + path +
                                 "': file does not exist");
  }
  const fs::path dir = source.parent_path() / ".quarantine";
  fs::create_directories(dir, ec);
  if (ec) {
    return common::UnavailableError("cannot create quarantine dir '" +
                                    dir.string() + "': " + ec.message());
  }
  const fs::path target = dir / source.filename();
  fs::rename(source, target, ec);
  if (ec) {
    return common::UnavailableError("cannot move '" + path + "' to '" +
                                    target.string() + "': " + ec.message());
  }
  // The reason record rides along best-effort: losing it must not resurrect
  // the artifact, so a write failure surfaces in the Status but the move
  // stands.
  const std::string reason_path = target.string() + ".reason";
  O2SR_RETURN_IF_ERROR(WriteFileAtomic(reason_path, reason + "\n")
                           .WithContext("quarantined to '" + target.string() +
                                        "' but the reason record failed"));
  return target.string();
}

namespace {
constexpr size_t kMagicBytes = 8;
constexpr size_t kHeaderBytes =
    kMagicBytes + sizeof(uint32_t) + sizeof(uint64_t);
}  // namespace

Status WriteContainerFile(const std::string& path, const char* magic,
                          uint32_t version, const std::string& payload) {
  std::string file;
  file.reserve(kHeaderBytes + payload.size() + sizeof(uint64_t));
  file.append(magic, kMagicBytes);
  ByteWriter header(&file);
  header.Scalar<uint32_t>(version);
  header.Scalar<uint64_t>(payload.size());
  file += payload;
  header.Scalar<uint64_t>(Fnv1a(payload));
  return WriteFileAtomic(path, file);
}

common::StatusOr<std::string> ReadContainerFile(const std::string& path,
                                                const char* magic,
                                                uint32_t version) {
  std::string file;
  O2SR_RETURN_IF_ERROR(ReadFileToString(path, &file));
  // Injection site "serialize.read": pre-checksum corruption of the raw
  // container bytes (torn writes, bad media). The envelope validation below
  // must catch every such fault as DATA_LOSS.
  common::FaultInjector::Global().InjectCorruption("serialize.read", &file);
  if (file.size() < kHeaderBytes + sizeof(uint64_t)) {
    return common::DataLossError("'" + path + "' truncated: " +
                                 std::to_string(file.size()) + " bytes");
  }
  if (std::memcmp(file.data(), magic, kMagicBytes) != 0) {
    return common::DataLossError("'" + path + "' has a bad magic number");
  }
  uint32_t file_version = 0;
  std::memcpy(&file_version, file.data() + kMagicBytes, sizeof(file_version));
  if (file_version != version) {
    return common::FailedPreconditionError(
        "'" + path + "' has format version " + std::to_string(file_version) +
        ", expected " + std::to_string(version));
  }
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, file.data() + kMagicBytes + sizeof(uint32_t),
              sizeof(payload_size));
  if (file.size() != kHeaderBytes + payload_size + sizeof(uint64_t)) {
    return common::DataLossError(
        "'" + path + "' truncated: payload claims " +
        std::to_string(payload_size) + " bytes, file holds " +
        std::to_string(file.size() - kHeaderBytes - sizeof(uint64_t)));
  }
  std::string payload = file.substr(kHeaderBytes, payload_size);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, file.data() + kHeaderBytes + payload_size,
              sizeof(stored_checksum));
  if (Fnv1a(payload) != stored_checksum) {
    return common::DataLossError("'" + path + "' failed its checksum");
  }
  return payload;
}

void WriteParameterValues(ByteWriter& w, const ParameterStore& store) {
  w.Scalar<uint32_t>(static_cast<uint32_t>(store.params().size()));
  for (const auto& p : store.params()) {
    w.Str(p->name);
    w.TensorData(p->value);
  }
}

Status ReadParameterValues(ByteReader& r, const ParameterStore& store,
                           std::vector<Tensor>* values,
                           const std::string& origin) {
  O2SR_CHECK(values != nullptr);
  uint32_t num_params = 0;
  O2SR_RETURN_IF_ERROR(r.Scalar(&num_params));
  if (num_params != store.params().size()) {
    return common::FailedPreconditionError(
        origin + " holds " + std::to_string(num_params) +
        " parameters, model has " + std::to_string(store.params().size()));
  }
  values->assign(num_params, Tensor());
  for (uint32_t k = 0; k < num_params; ++k) {
    const Parameter& p = *store.params()[k];
    std::string name;
    O2SR_RETURN_IF_ERROR(r.Str(&name));
    if (name != p.name) {
      return common::FailedPreconditionError(
          origin + " parameter " + std::to_string(k) + " is '" + name +
          "', model expects '" + p.name + "'");
    }
    O2SR_RETURN_IF_ERROR(r.TensorData(&(*values)[k]));
    if (!(*values)[k].SameShape(p.value)) {
      return common::FailedPreconditionError(
          origin + " parameter '" + name + "' has shape " +
          (*values)[k].ShapeString() + ", model expects " +
          p.value.ShapeString());
    }
  }
  return Status::Ok();
}

Status ReadRawParameterRecord(ByteReader& r, std::vector<NamedTensor>* out,
                              const std::string& origin) {
  O2SR_CHECK(out != nullptr);
  uint32_t num_params = 0;
  O2SR_RETURN_IF_ERROR(r.Scalar(&num_params));
  // Each parameter record is at least a name length + tensor header; a
  // corrupted count larger than the remaining bytes could allow would
  // otherwise drive a multi-gigabyte reserve before the first read fails.
  if (num_params > r.remaining() / (sizeof(uint64_t) + 2 * sizeof(int32_t))) {
    return common::DataLossError(origin + " claims " +
                                 std::to_string(num_params) +
                                 " parameters, more than its bytes can hold");
  }
  out->clear();
  out->reserve(num_params);
  for (uint32_t k = 0; k < num_params; ++k) {
    NamedTensor p;
    O2SR_RETURN_IF_ERROR(r.Str(&p.name));
    O2SR_RETURN_IF_ERROR(r.TensorData(&p.tensor));
    out->push_back(std::move(p));
  }
  return Status::Ok();
}

std::vector<NamedTensor> ExtractNamedTensors(const ParameterStore& store) {
  std::vector<NamedTensor> out;
  out.reserve(store.params().size());
  for (const auto& p : store.params()) {
    out.push_back(NamedTensor{p->name, p->value});
  }
  return out;
}

}  // namespace o2sr::nn
