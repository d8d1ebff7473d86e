// Minimal leveled logger for examples and the benchmark harness. Defaults
// to Info; benches flip to Warn to keep tables clean, examples flip to
// Debug when tracing.
#pragma once

#include <iostream>
#include <sstream>
#include <string_view>

namespace arbmis::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
LogLevel log_level() noexcept;
void set_log_level(LogLevel level) noexcept;

/// Observer for emitted log lines, called (in addition to the stderr
/// write) for every line that passes the level threshold. This is the
/// seam obs::ScopedSink uses to mirror log output into the telemetry
/// event stream without util depending on obs. Returns the previous hook
/// so scoped installers can restore it; pass nullptr to detach. The hook
/// may be invoked from any thread and must be thread-safe.
using LogEventHook = void (*)(LogLevel level, std::string_view message);
LogEventHook set_log_event_hook(LogEventHook hook) noexcept;

namespace detail {
void log_line(LogLevel level, std::string_view message);
}

/// True when a line at `level` passes the threshold.
inline bool log_enabled(LogLevel level) noexcept {
  return level >= log_level();
}

/// One log line, streamed into and emitted on destruction. Built only by
/// ARBMIS_LOG, after the level has passed the threshold.
class LogStatement {
 public:
  explicit LogStatement(LogLevel level) : level_(level) {}
  ~LogStatement() { detail::log_line(level_, stream_.str()); }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace arbmis::util

/// Stream-style log statement: ARBMIS_LOG(Info) << "x=" << x;
/// The level is tested first: a filtered statement builds no stream and
/// evaluates none of its operands.
#define ARBMIS_LOG(level)                                                \
  if (!::arbmis::util::log_enabled(::arbmis::util::LogLevel::k##level)) { \
  } else                                                                 \
    ::arbmis::util::LogStatement(::arbmis::util::LogLevel::k##level)
