#include "common/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <string>

namespace pgrid::common {

namespace {
LogLevel level_from_env() {
  const char* env = std::getenv("PGRID_LOG");
  if (!env) return LogLevel::kOff;
  const std::string value(env);
  if (value == "trace") return LogLevel::kTrace;
  if (value == "debug") return LogLevel::kDebug;
  if (value == "info") return LogLevel::kInfo;
  if (value == "warn") return LogLevel::kWarn;
  if (value == "error") return LogLevel::kError;
  return LogLevel::kOff;
}

std::atomic<LogLevel> g_level{level_from_env()};

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void log_line(LogLevel level, const std::string& message) {
  if (level < g_level.load()) return;
  const std::uint64_t trace = log_trace();
  if (trace != 0) {
    std::cerr << "[pgrid " << tag(level) << " #" << trace << "] " << message
              << '\n';
  } else {
    std::cerr << "[pgrid " << tag(level) << "] " << message << '\n';
  }
}

}  // namespace pgrid::common
