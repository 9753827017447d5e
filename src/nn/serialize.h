#ifndef O2SR_NN_SERIALIZE_H_
#define O2SR_NN_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "nn/parameter.h"
#include "nn/tensor.h"

namespace o2sr::nn {

// Shared binary-serialization layer behind every persisted artifact
// (training checkpoints, serving snapshots): fixed-width little-endian
// scalars, length-prefixed blobs, tensor records, and the versioned +
// checksummed container file format
//
//   [8-byte magic][u32 format version][u64 payload size][payload]
//   [u64 FNV-1a checksum of the payload]
//
// Files are published atomically (sibling temp file + rename), so an
// interrupted save never corrupts the previous artifact under the same
// name. Reads validate magic, version, size and checksum (DATA_LOSS on any
// mismatch, including truncation) before handing back the payload.

// FNV-1a over a byte string; the container checksum.
uint64_t Fnv1a(const std::string& bytes);

// Appends fixed-width little-endian scalars / length-prefixed blobs to a
// byte buffer. The project only targets little-endian hosts, so raw memcpy
// of the in-memory representation is the on-disk format.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t pos = out_->size();
    out_->resize(pos + sizeof(T));
    std::memcpy(out_->data() + pos, &value, sizeof(T));
  }

  void Blob(const void* data, size_t bytes) {
    Scalar<uint64_t>(bytes);
    const size_t pos = out_->size();
    out_->resize(pos + bytes);
    std::memcpy(out_->data() + pos, data, bytes);
  }

  void Str(const std::string& s) { Blob(s.data(), s.size()); }

  void TensorData(const Tensor& t) {
    Scalar<int32_t>(t.rows());
    Scalar<int32_t>(t.cols());
    Blob(t.data(), t.size() * sizeof(float));
  }

 private:
  std::string* out_;
};

// Mirror of ByteWriter; every read is bounds-checked so a truncated or
// corrupted payload surfaces as a Status instead of undefined behavior.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  common::Status Scalar(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    O2SR_RETURN_IF_ERROR(Need(sizeof(T)));
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return common::Status::Ok();
  }

  common::Status Str(std::string* out);
  common::Status TensorData(Tensor* out);

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  common::Status Need(uint64_t bytes);

  const std::string& bytes_;
  size_t pos_ = 0;
};

// Reads the whole file into `out` (NOT_FOUND when it cannot be opened).
common::Status ReadFileToString(const std::string& path, std::string* out);

// Writes `contents` to a sibling temp file and renames it over `path`.
// UNAVAILABLE, with `path` untouched, when any write or the final flush
// fails.
common::Status WriteFileAtomic(const std::string& path,
                               const std::string& contents);

// Appends `bytes` to the existing file `path` (NOT_FOUND when it does not
// exist). Never renames or truncates; a failed append may leave a prefix
// of `bytes` behind, which the file's own framing must detect.
common::Status AppendToFile(const std::string& path,
                            const std::string& bytes);

// Moves a damaged artifact into a `.quarantine/` directory next to it and
// drops a `<name>.reason` record alongside, returning the quarantined
// path. The move stands even if the reason record fails to write (losing
// the note must not resurrect the artifact); that failure surfaces in the
// returned Status. NOT_FOUND when `path` does not exist.
common::StatusOr<std::string> QuarantineFile(const std::string& path,
                                             const std::string& reason);

// Wraps `payload` in the container envelope and publishes it atomically.
// `magic` must be exactly 8 bytes.
common::Status WriteContainerFile(const std::string& path, const char* magic,
                                  uint32_t version,
                                  const std::string& payload);

// Reads a container file, validating magic, version, size and checksum;
// returns the payload. Mismatches are DATA_LOSS except a version
// disagreement, which is FAILED_PRECONDITION (the file is intact but from
// an incompatible writer).
common::StatusOr<std::string> ReadContainerFile(const std::string& path,
                                                const char* magic,
                                                uint32_t version);

// Weight export hook: writes every parameter of `store` (count, then
// name + tensor per parameter) — the learned state of a model, without the
// optimizer bookkeeping.
void WriteParameterValues(ByteWriter& w, const ParameterStore& store);

// Reads a WriteParameterValues record, validating that parameter count,
// names and shapes match `store` exactly (FAILED_PRECONDITION otherwise —
// the artifact belongs to a different model or configuration). The tensors
// are staged into `values` aligned with store.params(); the caller commits
// them, so a corrupt tail cannot leave the model half-restored. `origin`
// names the artifact in error messages.
common::Status ReadParameterValues(ByteReader& r, const ParameterStore& store,
                                   std::vector<Tensor>* values,
                                   const std::string& origin);

// A parameter record detached from any live model — the donor format of
// warm-start retraining (nn/trainer.h). Unlike ReadParameterValues, which
// insists the artifact matches a model exactly, raw records carry whatever
// the artifact holds; the consumer decides what is transferable.
struct NamedTensor {
  std::string name;
  Tensor tensor;
};

// Reads a WriteParameterValues record without a reference model: every
// parameter is accepted as long as the bytes decode (DATA_LOSS otherwise).
// `origin` names the artifact in error messages.
common::Status ReadRawParameterRecord(ByteReader& r,
                                      std::vector<NamedTensor>* out,
                                      const std::string& origin);

// Snapshots the current parameter values of `store` as a donor record
// (deep copies — the store may keep training afterwards).
std::vector<NamedTensor> ExtractNamedTensors(const ParameterStore& store);

}  // namespace o2sr::nn

#endif  // O2SR_NN_SERIALIZE_H_
