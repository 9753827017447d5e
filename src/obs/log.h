#ifndef O2SR_OBS_LOG_H_
#define O2SR_OBS_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace o2sr::obs {

// Leveled logging for the whole project. Replaces the ad-hoc
// `std::fprintf(stderr, ...)` narration that used to live behind bespoke
// `verbose` flags:
//
//   O2SR_LOG(INFO) << "resumed from '" << path << "' at epoch " << epoch;
//
// The minimum emitted level comes from the O2SR_LOG_LEVEL knob
// (debug|info|warning|error|off, read once on first use; default info;
// any other value is fatal) and can be overridden programmatically with
// SetMinLogLevel. The stream expression after a suppressed O2SR_LOG is
// never evaluated.
//
// Default sink: one line per message on stderr,
// `[I trainer.cc:131] message`. Tests swap the sink with SetLogSink.

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,  // sentinel for "emit nothing"; not a valid message level
};

// "debug".."error"/"off" (lower case, as accepted by O2SR_LOG_LEVEL).
const char* LogLevelName(LogLevel level);

// Current threshold (first call reads O2SR_LOG_LEVEL).
LogLevel MinLogLevel();
void SetMinLogLevel(LogLevel level);
inline bool LogEnabled(LogLevel level) { return level >= MinLogLevel(); }

// Receives every emitted message. `file` is the basename of the source
// file. Passing nullptr restores the stderr sink.
using LogSink =
    std::function<void(LogLevel level, const std::string& file, int line,
                       const std::string& message)>;
void SetLogSink(LogSink sink);

namespace internal {

// One in-flight message; the destructor hands the buffered text to the
// sink. Only constructed when the level passed the threshold check.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Swallows the ostream& so a suppressed O2SR_LOG is a void expression.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

// Severity tokens for O2SR_LOG(severity).
constexpr LogLevel DEBUG = LogLevel::kDebug;
constexpr LogLevel INFO = LogLevel::kInfo;
constexpr LogLevel WARNING = LogLevel::kWarning;
constexpr LogLevel ERROR = LogLevel::kError;

}  // namespace internal

}  // namespace o2sr::obs

#define O2SR_LOG(severity)                                              \
  !::o2sr::obs::LogEnabled(::o2sr::obs::internal::severity)             \
      ? (void)0                                                         \
      : ::o2sr::obs::internal::LogVoidify() &                           \
            ::o2sr::obs::internal::LogMessage(                          \
                ::o2sr::obs::internal::severity, __FILE__, __LINE__)    \
                .stream()

#endif  // O2SR_OBS_LOG_H_
