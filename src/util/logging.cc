#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

namespace probkb {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

/// Registered sinks: the managed JSONL file plus any AddLogSink extras.
/// One mutex guards registration and dispatch; log statements that clear
/// the level filter are rare enough that contention is irrelevant, and
/// holding the lock across Write keeps a sink alive for the duration of
/// every record it receives.
struct SinkState {
  std::mutex mu;
  std::vector<LogSink*> sinks;
  std::ofstream json_file;
  bool json_enabled = false;
};

SinkState& Sinks() {
  static SinkState* state = new SinkState();  // leaked: outlives all threads
  return *state;
}

std::string JsonEscapeLog(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJsonLine(const LogRecord& record) {
  // Monotonic timestamp: JSONL consumers diff and order these, and a
  // wall-clock step mid-run would reorder (or negate) the intervals.
  // Clamped at zero for paranoia — steady_clock's epoch is unspecified
  // but never moves backwards within a process.
  double ts = std::chrono::duration<double>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
  if (ts < 0.0) ts = 0.0;
  std::string out = "{\"ts\": ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", ts);
  out += buf;
  out += ", \"level\": \"";
  out += LogLevelName(record.level);
  out += "\", \"subsystem\": \"";
  out += LogSubsystemName(record.subsystem);
  out += "\", \"src\": \"";
  out += record.file;
  std::snprintf(buf, sizeof(buf), ":%d", record.line);
  out += buf;
  out += "\", \"msg\": \"";
  out += JsonEscapeLog(record.message);
  out += "\"}";
  return out;
}

void Dispatch(const LogRecord& record) {
  // stderr text sink: the whole line (prefix, message, newline) leaves in
  // one fwrite, which locks the FILE, so concurrent worker-thread lines
  // cannot interleave mid-line.
  std::string line = "[";
  line += LogLevelName(record.level);
  line += " ";
  if (record.subsystem != LogSubsystem::kGeneral) {
    line += LogSubsystemName(record.subsystem);
    line += " ";
  }
  line += record.file;
  char buf[32];
  std::snprintf(buf, sizeof(buf), ":%d] ", record.line);
  line += buf;
  line += record.message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);

  SinkState& state = Sinks();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.json_enabled) {
    state.json_file << ToJsonLine(record) << '\n';
    state.json_file.flush();
  }
  for (LogSink* sink : state.sinks) sink->Write(record);
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* LogSubsystemName(LogSubsystem subsystem) {
  switch (subsystem) {
    case LogSubsystem::kGeneral:
      return "general";
    case LogSubsystem::kEngine:
      return "engine";
    case LogSubsystem::kGrounding:
      return "grounding";
    case LogSubsystem::kMpp:
      return "mpp";
    case LogSubsystem::kFault:
      return "fault";
    case LogSubsystem::kInfer:
      return "infer";
    case LogSubsystem::kObs:
      return "obs";
    case LogSubsystem::kSpill:
      return "spill";
  }
  return "?";
}

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug" || lower == "0") {
    *out = LogLevel::kDebug;
  } else if (lower == "info" || lower == "1") {
    *out = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn" || lower == "2") {
    *out = LogLevel::kWarning;
  } else if (lower == "error" || lower == "3") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

LogLevel ResolveLogLevel(const char* requested) {
  const char* source = "--log_level";
  if (requested == nullptr || requested[0] == '\0') {
    requested = std::getenv("PROBKB_LOG_LEVEL");
    source = "PROBKB_LOG_LEVEL";
    if (requested == nullptr || requested[0] == '\0') {
      return LogLevel::kInfo;
    }
  }
  LogLevel level = LogLevel::kInfo;
  if (!ParseLogLevel(requested, &level)) {
    PROBKB_LOG(Warning) << source << " value '" << requested
                        << "' is not a log level (debug|info|warning|error"
                        << " or 0-3); using info";
    return LogLevel::kInfo;
  }
  return level;
}

void AddLogSink(LogSink* sink) {
  SinkState& state = Sinks();
  std::lock_guard<std::mutex> lock(state.mu);
  state.sinks.push_back(sink);
}

void RemoveLogSink(LogSink* sink) {
  SinkState& state = Sinks();
  std::lock_guard<std::mutex> lock(state.mu);
  for (auto it = state.sinks.begin(); it != state.sinks.end(); ++it) {
    if (*it == sink) {
      state.sinks.erase(it);
      return;
    }
  }
}

Status EnableJsonLogSink(const std::string& path) {
  SinkState& state = Sinks();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.json_enabled) state.json_file.close();
  state.json_enabled = false;
  state.json_file.clear();
  state.json_file.open(path, std::ios::trunc);
  if (!state.json_file) {
    return Status::IOError("cannot open log file '" + path + "' for write");
  }
  state.json_enabled = true;
  return Status::OK();
}

void DisableJsonLogSink() {
  SinkState& state = Sinks();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.json_enabled) state.json_file.close();
  state.json_enabled = false;
}

Status ResolveJsonLogSink(const char* requested) {
  if (requested == nullptr || requested[0] == '\0') {
    requested = std::getenv("PROBKB_LOG");
    if (requested == nullptr || requested[0] == '\0') return Status::OK();
  }
  return EnableJsonLogSink(requested);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, LogSubsystem subsystem,
                       const char* file, int line)
    : enabled_(static_cast<int>(level) >=
               g_min_level.load(std::memory_order_relaxed)),
      level_(level),
      subsystem_(subsystem),
      file_(file),
      line_(line) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    file_ = base;
  }
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  LogRecord record;
  record.level = level_;
  record.subsystem = subsystem_;
  record.file = file_;
  record.line = line_;
  record.message = stream_.str();
  Dispatch(record);
}

}  // namespace internal_logging
}  // namespace probkb
