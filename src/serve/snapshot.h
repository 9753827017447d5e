#ifndef O2SR_SERVE_SNAPSHOT_H_
#define O2SR_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/baseline_common.h"
#include "common/status.h"
#include "core/interaction.h"
#include "core/o2siterec.h"
#include "core/recommender.h"
#include "nn/serialize.h"
#include "sim/config.h"
#include "sim/drift.h"

namespace o2sr::serve {

// Model snapshots: the learned state of a trained SiteRecommender
// (embedding tables, attention weights — every parameter of its
// ParameterStore) plus enough metadata to refuse serving it against the
// wrong world. Snapshots reuse the versioned + checksummed container of
// nn/serialize under their own magic, so the durability story (atomic
// publish, DATA_LOSS on corruption) matches training checkpoints.
//
// The offline-train / online-serve contract: the serving process
// regenerates the dataset from the same SimConfig, rebuilds the model
// structure with PrepareServing (no training), then RestoreModel overwrites
// the parameter values from the snapshot — after which Predict is
// bit-identical to the trained original. The config fingerprint stored in
// the snapshot guards the "same SimConfig, same model config" premise.

inline constexpr char kSnapshotMagic[] = "O2SRSNAP";
inline constexpr uint32_t kSnapshotFormatVersion = 1;

struct SnapshotMeta {
  // SiteRecommender::Name() of the exporting model; restore refuses a
  // different model.
  std::string model_name;
  // Fingerprint of (SimConfig, model config) — see CombineFingerprints and
  // the FingerprintOf overloads. Restore refuses a mismatch.
  uint64_t config_hash = 0;
  int32_t num_regions = 0;
  int32_t num_types = 0;
  // Target-normalization stats: per-type max order count over the full
  // interaction set (BuildInteractions divides by this), so a serving
  // process can map normalized scores back to expected order counts.
  std::vector<double> type_norm;
};

struct Snapshot {
  SnapshotMeta meta;
  // Raw nn::WriteParameterValues record (parameter count, then name +
  // tensor per parameter); RestoreModel decodes it against the target
  // model's ParameterStore.
  std::string param_record;
};

// Order-sensitive FNV-1a accumulator over raw little-endian field bytes.
// Doubles hash their exact 8-byte representation, so two configs
// fingerprint equal iff every field is bit-identical.
class Fingerprint {
 public:
  template <typename T>
  Fingerprint& Add(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;
    }
    return *this;
  }
  Fingerprint& AddStr(const std::string& s) {
    Add<uint64_t>(s.size());
    for (char c : s) Add<unsigned char>(static_cast<unsigned char>(c));
    return *this;
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// Field-by-field fingerprints (structs are hashed per field, never by
// memcpy of the whole struct — padding bytes are indeterminate). The
// SimConfig one is sim::SimConfigHash, the spill manifest's fingerprint.
uint64_t FingerprintOf(const sim::SimConfig& config);
uint64_t FingerprintOf(const core::O2SiteRecConfig& config);
uint64_t FingerprintOf(const baselines::BaselineConfig& config);
uint64_t FingerprintOf(const sim::DriftConfig& config);

// The snapshot's config_hash: sim world + model config, order-sensitive.
uint64_t CombineFingerprints(uint64_t sim_hash, uint64_t model_hash);

// Per-type target normalizer (max order count) over an interaction list —
// the stats BuildInteractions normalized by.
std::vector<double> TypeNormalizers(int num_types,
                                    const core::InteractionList& interactions);

// Serializes the model's learned state under `meta` and publishes it
// atomically at `path`. FAILED_PRECONDITION when the model keeps no
// ParameterStore (heuristic models cannot be snapshot-served).
common::Status ExportSnapshot(const std::string& path,
                              const SnapshotMeta& meta,
                              const core::SiteRecommender& model);

// Reads and validates a snapshot container (NOT_FOUND / DATA_LOSS /
// FAILED_PRECONDITION per nn::ReadContainerFile) and decodes its metadata.
// Every decode is bounds-checked: a truncated, torn, or bit-flipped file of
// any length yields a clean Status, never a crash or a partial result.
// Fault-injection site "snapshot.read" (delay, error, bitflip/trunc of the
// decoded payload) fires here — a post-checksum corruption exercises the
// parser hardening the way silent media corruption would.
common::StatusOr<Snapshot> LoadSnapshot(const std::string& path);

// Moves the snapshot file at `path` into a `.quarantine/` directory next
// to it and writes a sibling `<name>.reason` record with `reason`; returns
// the quarantined file's new path. Used by the swap protocol so a corrupt
// or canary-failing snapshot can never be picked up again by a later
// deploy loop.
common::StatusOr<std::string> QuarantineSnapshot(const std::string& path,
                                                 const std::string& reason);

// Overwrites `model`'s parameter values from the snapshot. The model must
// already have its structure built (Train or PrepareServing). Refuses —
// without touching the model — a name mismatch, a config_hash different
// from `expected_config_hash` (the caller recomputes it from its own
// configs), a model without a ParameterStore, or a parameter record whose
// count/names/shapes disagree with the model (all FAILED_PRECONDITION).
common::Status RestoreModel(const Snapshot& snapshot,
                            core::SiteRecommender& model,
                            uint64_t expected_config_hash);

// Decodes the snapshot's parameter record without a target model — the
// warm-start donor path: the continual pipeline feeds the result to
// nn::WarmStartParameters so the next cycle's (differently shaped) model
// starts from what the previous cycle learned. DATA_LOSS when the record
// does not decode.
common::StatusOr<std::vector<nn::NamedTensor>> DecodeSnapshotParameters(
    const Snapshot& snapshot);

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_SNAPSHOT_H_
