#ifndef PROBKB_UTIL_LOGGING_H_
#define PROBKB_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/status.h"

namespace probkb {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Subsystem tag carried by every structured log record, so sinks
/// (and humans grepping a JSONL file) can slice a run's log by layer.
enum class LogSubsystem : int {
  kGeneral = 0,
  kEngine,
  kGrounding,
  kMpp,
  kFault,
  kInfer,
  kObs,
  kSpill,
};

const char* LogLevelName(LogLevel level);
const char* LogSubsystemName(LogSubsystem subsystem);

/// \brief Process-wide minimum level; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// \brief Parses "debug" / "info" / "warning" (or "warn") / "error",
/// case-insensitively, or a numeric level 0-3. False on anything else.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// \brief Resolves a log-level request: `requested` (a CLI value; may be
/// nullptr) wins, else the PROBKB_LOG_LEVEL environment variable, else
/// Info. A value that does not parse is rejected with a warning and falls
/// back to Info, mirroring ThreadPool::ResolveThreads.
LogLevel ResolveLogLevel(const char* requested);

/// \brief One emitted log statement, as handed to every sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  LogSubsystem subsystem = LogSubsystem::kGeneral;
  const char* file = "";  // basename only
  int line = 0;
  std::string message;
};

/// \brief Pluggable log destination. The built-in stderr text sink and the
/// managed JSONL file sink are always consulted; AddLogSink registers
/// additional ones (tests capture records this way).
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// \brief Registers / removes an extra sink (not owned). Thread-safe.
void AddLogSink(LogSink* sink);
void RemoveLogSink(LogSink* sink);

/// \brief Opens `path` (truncating) as a JSONL sink: every emitted record
/// becomes one JSON object per line. Replaces any previously enabled file.
Status EnableJsonLogSink(const std::string& path);
void DisableJsonLogSink();

/// \brief Resolves the JSONL sink request: `requested` (a CLI --log_json
/// value; may be nullptr) wins, else the PROBKB_LOG environment variable,
/// else no file sink. OK when neither is set.
Status ResolveJsonLogSink(const char* requested);

namespace internal_logging {

/// \brief One log statement; flushes the accumulated line on destruction.
///
/// Emission is a single fwrite of the fully formatted line (stdio locks the
/// stream per call), so lines logged concurrently from worker threads never
/// interleave mid-line.
class LogMessage {
 public:
  LogMessage(LogLevel level, LogSubsystem subsystem, const char* file,
             int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  LogSubsystem subsystem_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define PROBKB_LOG(level)                                              \
  ::probkb::internal_logging::LogMessage(::probkb::LogLevel::k##level, \
                                         ::probkb::LogSubsystem::kGeneral, \
                                         __FILE__, __LINE__)

/// \brief Subsystem-tagged log statement:
/// PROBKB_SLOG(Fault, Warning) << "...";
#define PROBKB_SLOG(subsystem, level)                                  \
  ::probkb::internal_logging::LogMessage(                              \
      ::probkb::LogLevel::k##level,                                    \
      ::probkb::LogSubsystem::k##subsystem, __FILE__, __LINE__)

/// \brief Fatal invariant check (always on); prints and aborts on failure.
#define PROBKB_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::cerr << "CHECK failed at " << __FILE__ << ":" << __LINE__    \
                << ": " #cond << std::endl;                             \
      std::abort();                                                     \
    }                                                                   \
  } while (false)

/// \brief Debug-only invariant check: fatal like PROBKB_CHECK in debug
/// builds, compiled to nothing under NDEBUG so release hot paths pay no
/// cost (the condition is not evaluated).
#ifdef NDEBUG
#define PROBKB_DCHECK(cond) \
  do {                      \
  } while (false && (cond))
#else
#define PROBKB_DCHECK(cond) PROBKB_CHECK(cond)
#endif

}  // namespace probkb

#endif  // PROBKB_UTIL_LOGGING_H_
