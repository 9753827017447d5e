#include "obs/telemetry.h"

#include "obs/json.h"

namespace o2sr::obs {

const char* PipelineEventKindName(PipelineEventKind kind) {
  switch (kind) {
    case PipelineEventKind::kTransition: return "transition";
    case PipelineEventKind::kRetry: return "retry";
    case PipelineEventKind::kFallback: return "fallback";
    case PipelineEventKind::kResume: return "resume";
    case PipelineEventKind::kServe: return "serve";
    case PipelineEventKind::kHealth: return "health";
    case PipelineEventKind::kSlo: return "slo";
  }
  return "?";
}

std::string PipelineEventToJsonLine(const PipelineEvent& event) {
  std::string out = "{\"event\":";
  out += JsonQuote(PipelineEventKindName(event.kind));
  out += ",\"cycle\":" + JsonNum(static_cast<int64_t>(event.cycle));
  out += ",\"stage\":" + JsonQuote(event.stage);
  out += ",\"attempt\":" + JsonNum(static_cast<int64_t>(event.attempt));
  out += ",\"value\":" + JsonNum(event.value);
  if (!event.note.empty()) out += ",\"note\":" + JsonQuote(event.note);
  out += "}";
  return out;
}

PipelineEventLog::~PipelineEventLog() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status PipelineEventLog::OpenFile(const std::string& path) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    return common::UnavailableError("cannot open pipeline event log '" +
                                    path + "' for appending");
  }
  return common::Status::Ok();
}

void PipelineEventLog::Append(const PipelineEvent& event) {
  if (file_ == nullptr) return;
  const std::string line = PipelineEventToJsonLine(event);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

}  // namespace o2sr::obs
