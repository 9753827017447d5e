#ifndef O2SR_OBS_TELEMETRY_H_
#define O2SR_OBS_TELEMETRY_H_

#include <cstdio>
#include <string>

#include "common/status.h"

namespace o2sr::obs {

// Training telemetry vocabulary. The guarded trainer
// (nn::RunGuardedTraining) records one TrainEvent per completed epoch plus
// one per anomaly (rollback recovery, checkpoint resume) in
// nn::TrainReport::events; obs defines the record so every layer above nn
// — eval, benches, tests — can read it without depending on trainer
// internals.

enum class TrainEventKind {
  kEpoch = 0,     // a successfully completed epoch
  kRecovery = 1,  // sentinel trip -> rollback + learning-rate backoff
  kResume = 2,    // training picked up an existing checkpoint
};

struct TrainEvent {
  TrainEventKind kind = TrainEventKind::kEpoch;
  int epoch = 0;
  double loss = 0.0;           // epoch loss (kEpoch) or best loss (kResume)
  double grad_norm = 0.0;      // global L2 norm over all gradients (kEpoch)
  double learning_rate = 0.0;  // in effect after this event
  int recoveries = 0;          // cumulative recoveries so far
  std::string note;  // trip description (kRecovery) / path (kResume)
};

// Continual-pipeline telemetry vocabulary (src/pipeline, DESIGN.md §11):
// one PipelineEvent per stage transition, retry, swap fallback, crash
// resume and serve summary, mirroring the TrainEvent pattern one level up.

enum class PipelineEventKind {
  kTransition = 0,  // the state machine advanced to `stage`
  kRetry = 1,       // a supervised operation failed and will be retried
  kFallback = 2,    // swap exhausted its budget; serving the prior snapshot
  kResume = 3,      // a restarted supervisor picked up the journal
  kServe = 4,       // serve-stage summary (value = served query count)
  kHealth = 5,      // serving health transition (note = "FROM -> TO",
                    // value = numeric target state)
  kSlo = 6,         // serve-stage SLO summary (value = burn rate,
                    // note = SloSnapshot JSON)
};

const char* PipelineEventKindName(PipelineEventKind kind);

struct PipelineEvent {
  PipelineEventKind kind = PipelineEventKind::kTransition;
  int cycle = 0;            // refresh cycle the event belongs to
  std::string stage;        // pipeline stage name (e.g. "TRAIN")
  int attempt = 0;          // retry attempt index (kRetry)
  double value = 0.0;       // kind-specific payload (queries, backoff ms)
  std::string note;         // error text, snapshot path, ...
};

// Single-line JSON, deterministic for deterministic inputs; `note` appears
// only when non-empty.
std::string PipelineEventToJsonLine(const PipelineEvent& event);

// JSONL sink for pipeline events: one event per line, flushed per event so
// a crash loses at most the in-flight record. The events themselves are
// kept in pipeline::PipelineReport::events.
class PipelineEventLog {
 public:
  PipelineEventLog() = default;
  ~PipelineEventLog();
  PipelineEventLog(const PipelineEventLog&) = delete;
  PipelineEventLog& operator=(const PipelineEventLog&) = delete;

  // Attaches `path` in append mode (a resumed pipeline continues the log of
  // the crashed run instead of erasing its history).
  common::Status OpenFile(const std::string& path);

  // Writes `event` to the attached file; a no-op when none is attached.
  void Append(const PipelineEvent& event);

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace o2sr::obs

#endif  // O2SR_OBS_TELEMETRY_H_
