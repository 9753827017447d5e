#include "obs/log.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/env.h"

namespace o2sr::obs {

namespace {

std::mutex& SinkMutex() {
  static std::mutex mutex;
  return mutex;
}

LogSink& SinkStorage() {
  static LogSink sink;  // empty = default stderr sink
  return sink;
}

std::atomic<LogLevel>& MinLevelStorage() {
  // O2SR_LOG_LEVEL's choices are the LogLevel names in enum order.
  static std::atomic<LogLevel> level{
      static_cast<LogLevel>(common::EnvChoice(common::Knob::kLogLevel))};
  return level;
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarning: return "warning";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel MinLogLevel() {
  return MinLevelStorage().load(std::memory_order_relaxed);
}

void SetMinLogLevel(LogLevel level) {
  MinLevelStorage().store(level, std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  SinkStorage() = std::move(sink);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(Basename(file)), line_(line) {}

LogMessage::~LogMessage() {
  const std::string message = stream_.str();
  std::lock_guard<std::mutex> lock(SinkMutex());
  const LogSink& sink = SinkStorage();
  if (sink) {
    sink(level_, file_, line_, message);
    return;
  }
  static constexpr char kLetter[] = {'D', 'I', 'W', 'E'};
  std::fprintf(stderr, "[%c %s:%d] %s\n",
               kLetter[static_cast<int>(level_)], file_, line_,
               message.c_str());
}

}  // namespace internal

}  // namespace o2sr::obs
