// Minimal leveled logger producing racoon-style transcript lines.
//
// The IKE example reproduces the Fig. 12 transcript of the paper; the logger
// therefore supports a "syslog" formatting mode:
//   Dec  5 12:53:32 bob-gw racoon: INFO: isakmp.c:1046:...: message
// Logging is process-global, cheap when disabled, and capturable in tests.
//
// Thread safety: the stack logs from worker threads, so the level gate is
// an atomic (the QKD_LOG fast path stays one relaxed load) and the
// sink/clock are swapped and invoked under a mutex — a set_sink racing a
// concurrent log() can no longer tear the std::function. Messages are
// stamped with simulation time when a SimClock is registered, so transcript
// lines line up with the event timeline instead of wall time.
//
// The initial threshold comes from the QKD_LOG_LEVEL environment variable
// (trace/debug/info/warn/error, case-insensitive; unset or unparseable
// keeps the kWarning default) — so the alert engine's debug transitions,
// or anything else chatty, can be switched on per run without touching
// code or flooding tier-1 test output.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

#include "src/common/sim_clock.hpp"

namespace qkd {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarning = 3,
  kError = 4
};

const char* log_level_name(LogLevel level);
/// Parses "trace" / "debug" / "info" / "warn"(/"warning") / "error"
/// (case-insensitive); nullopt for anything else.
std::optional<LogLevel> parse_log_level(const std::string& name);

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Replaces the output sink (default writes to stderr). Tests install a
  /// capturing sink; examples install a syslog-style stdout sink.
  /// Thread-safe against concurrent log() calls.
  void set_sink(Sink sink);

  /// Registers (or, with nullptr, clears) the simulation clock whose time
  /// stamps every message as a "[t=...s]" prefix. The clock must outlive
  /// its registration; the logger only reads now() under its own mutex, so
  /// register a clock that is not concurrently advanced mid-log (the global
  /// scheduler's clock between runs, in practice).
  void set_clock(const SimClock* clock);

  bool enabled(LogLevel level) const { return level >= this->level(); }
  void log(LogLevel level, const std::string& message);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarning};
  std::mutex mu_;  // guards sink_ and clock_ (swap and invocation)
  Sink sink_;
  const SimClock* clock_ = nullptr;
};

/// Stream-style log statement:
///   QKD_LOG(kInfo) << "sifted " << n << " bits";
class LogStatement {
 public:
  explicit LogStatement(LogLevel level) : level_(level) {}
  ~LogStatement() { Logger::instance().log(level_, stream_.str()); }
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

}  // namespace qkd

#define QKD_LOG(level)                                             \
  if (!::qkd::Logger::instance().enabled(::qkd::LogLevel::level)) \
    ;                                                              \
  else                                                             \
    ::qkd::LogStatement(::qkd::LogLevel::level)
