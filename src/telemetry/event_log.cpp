#include "telemetry/event_log.h"

#include <cstdlib>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace gem2::telemetry {
namespace {

thread_local std::vector<std::pair<std::string, std::string>> g_thread_fields;

}  // namespace

EventLog& EventLog::Global() {
  static EventLog* log = [] {
    auto* l = new EventLog();
    if (const char* path = std::getenv("GEM2_EVENT_LOG");
        path != nullptr && path[0] != '\0') {
      l->Open(path);
    }
    return l;
  }();
  return *log;
}

bool EventLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    path_.clear();
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "[gem2.telemetry] cannot open event log '%s'\n",
                 path.c_str());
    enabled_.store(false, std::memory_order_relaxed);
    return false;
  }
  file_ = f;
  path_ = path;
  lines_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void EventLog::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

std::string EventLog::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

void EventLog::Emit(Event event) {
  if (!enabled()) return;

  // Serialize outside the file lock: only the write itself is contended.
  std::string line;
  line.reserve(160);
  line += "{\"type\":\"";
  line += JsonEscape(event.type_);
  line += "\",\"ts_ns\":";
  line += std::to_string(Tracer::NowNs());
  line += ",\"thread\":";
  line += std::to_string(Tracer::ThreadId());
  const TraceContext trace = CurrentTrace();
  if (trace.valid()) {
    line += ",\"trace\":\"";
    line += trace.TraceIdHex();
    line += "\"";
  }
  for (const auto& [key, value] : event.numbers_) {
    line += ",\"";
    line += JsonEscape(key);
    line += "\":";
    line += std::to_string(value);
  }
  for (const auto& [key, value] : event.strings_) {
    line += ",\"";
    line += JsonEscape(key);
    line += "\":\"";
    line += JsonEscape(value);
    line += "\"";
  }
  for (const auto& [key, value] : g_thread_fields) {
    line += ",\"";
    line += JsonEscape(key);
    line += "\":\"";
    line += JsonEscape(value);
    line += "\"";
  }
  line += "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;  // closed between the gate and here
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  lines_.fetch_add(1, std::memory_order_relaxed);
}

ScopedEventFields::ScopedEventFields(
    std::initializer_list<std::pair<std::string_view, std::string>> fields) {
  for (const auto& [key, value] : fields) {
    g_thread_fields.emplace_back(std::string(key), value);
    ++pushed_;
  }
}

ScopedEventFields::~ScopedEventFields() {
  g_thread_fields.resize(g_thread_fields.size() - pushed_);
}

std::vector<std::pair<std::string, std::string>> ScopedEventFields::Current() {
  return g_thread_fields;
}

}  // namespace gem2::telemetry
