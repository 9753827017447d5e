#include "serve/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/fault.h"
#include "nn/serialize.h"

namespace o2sr::serve {

uint64_t FingerprintOf(const sim::SimConfig& c) {
  return sim::SimConfigHash(c);
}

uint64_t FingerprintOf(const core::O2SiteRecConfig& c) {
  Fingerprint f;
  // Capacity model.
  f.Add<int32_t>(c.capacity.embedding_dim)
      .Add<int32_t>(c.capacity.geo_layers)
      .Add(c.capacity.geo_distance_scale_m);
  // Recommendation model.
  f.Add<int32_t>(c.rec.embedding_dim)
      .Add<int32_t>(c.rec.layers)
      .Add<int32_t>(c.rec.node_heads)
      .Add<int32_t>(c.rec.time_heads)
      .Add(c.rec.dropout)
      .Add<uint8_t>(c.rec.node_attention ? 1 : 0)
      .Add<uint8_t>(c.rec.time_attention ? 1 : 0);
  // Training + structure knobs that change the built graphs / parameters.
  f.Add(c.beta)
      .Add(c.learning_rate)
      .Add<int32_t>(c.epochs)
      .Add<int32_t>(c.mobility_min_transactions)
      .Add<uint8_t>(c.graph_options.capacity_aware_scope ? 1 : 0)
      .Add(c.graph_options.fixed_scope_m)
      .Add(c.graph_options.order_ratio_threshold)
      .Add<uint8_t>(c.graph_options.include_customer_edges ? 1 : 0)
      .Add<int32_t>(static_cast<int32_t>(c.variant))
      .Add(c.seed);
  return f.hash();
}

uint64_t FingerprintOf(const baselines::BaselineConfig& c) {
  Fingerprint f;
  f.Add<int32_t>(c.embedding_dim)
      .Add<int32_t>(c.epochs)
      .Add(c.learning_rate)
      .Add(c.dropout)
      .Add<int32_t>(static_cast<int32_t>(c.setting))
      .Add(c.seed);
  return f.hash();
}

uint64_t FingerprintOf(const sim::DriftConfig& c) {
  Fingerprint f;
  f.Add(c.store_close_rate)
      .Add(c.store_open_rate)
      .Add(c.popularity_walk_sigma)
      .Add(c.rush_shift_slots)
      .Add<uint64_t>(c.seed);
  return f.hash();
}

uint64_t CombineFingerprints(uint64_t sim_hash, uint64_t model_hash) {
  Fingerprint f;
  f.Add(sim_hash).Add(model_hash);
  return f.hash();
}

std::vector<double> TypeNormalizers(
    int num_types, const core::InteractionList& interactions) {
  std::vector<double> norm(std::max(num_types, 0), 0.0);
  for (const core::Interaction& it : interactions) {
    if (it.type < 0 || it.type >= num_types) continue;
    norm[it.type] = std::max(norm[it.type], it.orders);
  }
  return norm;
}

common::Status ExportSnapshot(const std::string& path,
                              const SnapshotMeta& meta,
                              const core::SiteRecommender& model) {
  const nn::ParameterStore* store = model.parameter_store();
  if (store == nullptr) {
    return common::FailedPreconditionError(
        model.Name() + " keeps no parameter store; it cannot be "
        "snapshot-served");
  }
  std::string payload;
  nn::ByteWriter w(&payload);
  w.Str(meta.model_name);
  w.Scalar<uint64_t>(meta.config_hash);
  w.Scalar<int32_t>(meta.num_regions);
  w.Scalar<int32_t>(meta.num_types);
  w.Scalar<uint64_t>(meta.type_norm.size());
  for (double v : meta.type_norm) w.Scalar<double>(v);
  nn::WriteParameterValues(w, *store);
  return nn::WriteContainerFile(path, kSnapshotMagic, kSnapshotFormatVersion,
                                payload);
}

common::StatusOr<Snapshot> LoadSnapshot(const std::string& path) {
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.InjectDelay("snapshot.read");
  O2SR_RETURN_IF_ERROR(faults.InjectError("snapshot.read"));
  O2SR_ASSIGN_OR_RETURN(
      std::string payload,
      nn::ReadContainerFile(path, kSnapshotMagic, kSnapshotFormatVersion));
  // Post-checksum corruption: models silent memory/media corruption between
  // validation and decode; the bounds-checked parser below must turn it
  // into a Status, never undefined behavior.
  faults.InjectCorruption("snapshot.read", &payload);
  Snapshot snap;
  nn::ByteReader r(payload);
  O2SR_RETURN_IF_ERROR(r.Str(&snap.meta.model_name));
  O2SR_RETURN_IF_ERROR(r.Scalar(&snap.meta.config_hash));
  O2SR_RETURN_IF_ERROR(r.Scalar(&snap.meta.num_regions));
  O2SR_RETURN_IF_ERROR(r.Scalar(&snap.meta.num_types));
  uint64_t norm_count = 0;
  O2SR_RETURN_IF_ERROR(r.Scalar(&norm_count));
  if (norm_count > r.remaining() / sizeof(double)) {
    return common::DataLossError("snapshot '" + path +
                                 "': type_norm count exceeds payload");
  }
  snap.meta.type_norm.resize(norm_count);
  for (uint64_t i = 0; i < norm_count; ++i) {
    O2SR_RETURN_IF_ERROR(r.Scalar(&snap.meta.type_norm[i]));
  }
  // Keep the parameter record raw; RestoreModel decodes it against the
  // target model's store.
  snap.param_record.assign(payload, payload.size() - r.remaining(),
                           r.remaining());
  return snap;
}

common::StatusOr<std::string> QuarantineSnapshot(const std::string& path,
                                                 const std::string& reason) {
  // Shared quarantine machinery (also used by the out-of-core dataset
  // layer): move into a sibling `.quarantine/` plus a `.reason` record.
  return nn::QuarantineFile(path, reason);
}

common::Status RestoreModel(const Snapshot& snapshot,
                            core::SiteRecommender& model,
                            uint64_t expected_config_hash) {
  if (snapshot.meta.model_name != model.Name()) {
    return common::FailedPreconditionError(
        "snapshot was exported from model '" + snapshot.meta.model_name +
        "' but the serving model is '" + model.Name() + "'");
  }
  if (snapshot.meta.config_hash != expected_config_hash) {
    return common::FailedPreconditionError(
        "snapshot config fingerprint " +
        std::to_string(snapshot.meta.config_hash) +
        " does not match the serving configuration fingerprint " +
        std::to_string(expected_config_hash) +
        "; the serving process would rebuild a different world");
  }
  nn::ParameterStore* store = model.mutable_parameter_store();
  if (store == nullptr) {
    return common::FailedPreconditionError(
        model.Name() + " keeps no parameter store; build its structure "
        "with Train/PrepareServing before restoring");
  }
  nn::ByteReader r(snapshot.param_record);
  std::vector<nn::Tensor> values;
  O2SR_RETURN_IF_ERROR(
      nn::ReadParameterValues(r, *store, &values, "snapshot"));
  for (size_t i = 0; i < values.size(); ++i) {
    store->params()[i]->value = std::move(values[i]);
  }
  return common::Status::Ok();
}

common::StatusOr<std::vector<nn::NamedTensor>> DecodeSnapshotParameters(
    const Snapshot& snapshot) {
  nn::ByteReader r(snapshot.param_record);
  std::vector<nn::NamedTensor> params;
  O2SR_RETURN_IF_ERROR(nn::ReadRawParameterRecord(
      r, &params, "snapshot of '" + snapshot.meta.model_name + "'"));
  return params;
}

}  // namespace o2sr::serve
