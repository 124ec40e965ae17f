/// \file event_log.h
/// Structured JSONL event log: one JSON object per line, append-only, flushed
/// per event. The audit channel for things that must survive a crashed or
/// failing run — most importantly every verification rejection, stamped with
/// the query's trace id, the driving mutation operator and seed (when the
/// fault layer annotates the thread), and the rejection reason.
///
/// Design constraints (see docs/OBSERVABILITY.md):
///   - Events are telemetry-only: nothing verified reads the log, and an
///     unopened log makes Emit() a single relaxed atomic load.
///   - Durable by default: each event is one fflush'd line, so `tail` of the
///     log after a crash or CI failure is complete up to the last event.
///   - Context rides on the thread: ScopedEventFields pushes key/value pairs
///     (e.g. the fault sweep's operator and seed) that every event emitted
///     below the scope inherits, without threading parameters through the
///     verification call graph.
#ifndef GEM2_TELEMETRY_EVENT_LOG_H_
#define GEM2_TELEMETRY_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/trace.h"

namespace gem2::telemetry {

/// One event under construction. Field order is preserved in the output line;
/// the log prepends `type`, `ts_ns`, `thread`, and (when a trace is active)
/// `trace` automatically, then appends any ScopedEventFields context.
class Event {
 public:
  explicit Event(std::string_view type) : type_(type) {}

  Event&& Str(std::string_view key, std::string_view value) && {
    strings_.emplace_back(std::string(key), std::string(value));
    return std::move(*this);
  }
  Event&& Num(std::string_view key, uint64_t value) && {
    numbers_.emplace_back(std::string(key), value);
    return std::move(*this);
  }

 private:
  friend class EventLog;
  std::string type_;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::pair<std::string, uint64_t>> numbers_;
};

/// Process-wide JSONL sink. Opened explicitly or from the GEM2_EVENT_LOG
/// environment variable on first use of Global().
class EventLog {
 public:
  static EventLog& Global();

  /// True when a log file is open (single relaxed atomic load; the fast-path
  /// gate every Emit call and every call-site `if` takes).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens (appending) `path` as the log target, closing any previous one.
  /// Returns false (log stays closed) when the file cannot be opened.
  bool Open(const std::string& path);
  void Close();
  std::string path() const;

  /// Serializes and writes one event line. No-op when !enabled().
  void Emit(Event event);

  /// Events written since Open (diagnostic; not persisted).
  uint64_t lines_written() const {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  EventLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> lines_{0};
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;  // guarded by mutex_
  std::string path_;           // guarded by mutex_
};

/// RAII: pushes key/value context onto this thread's annotation stack; every
/// event emitted on the thread while the scope is open carries the fields.
/// The fault layer brackets each forgery round with the operator name and
/// seed so rejection events are attributable without plumbing.
class ScopedEventFields {
 public:
  ScopedEventFields(
      std::initializer_list<std::pair<std::string_view, std::string>> fields);
  ~ScopedEventFields();

  ScopedEventFields(const ScopedEventFields&) = delete;
  ScopedEventFields& operator=(const ScopedEventFields&) = delete;

  /// The thread's current annotation stack, bottom-up (for Emit).
  static std::vector<std::pair<std::string, std::string>> Current();

 private:
  size_t pushed_ = 0;
};

}  // namespace gem2::telemetry

#endif  // GEM2_TELEMETRY_EVENT_LOG_H_
