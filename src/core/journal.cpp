#include "core/journal.h"

#include "common/crc32c.h"
#include "telemetry/event_log.h"

namespace gem2::core {
namespace {

constexpr uint8_t kFormatVersion = 2;  // CRC32C after every record body

void AppendCrc(Bytes* out, uint32_t crc) {
  out->push_back(static_cast<uint8_t>(crc >> 24));
  out->push_back(static_cast<uint8_t>(crc >> 16));
  out->push_back(static_cast<uint8_t>(crc >> 8));
  out->push_back(static_cast<uint8_t>(crc));
}

uint32_t ReadU32(const Bytes& data, size_t pos) {
  return (static_cast<uint32_t>(data[pos]) << 24) |
         (static_cast<uint32_t>(data[pos + 1]) << 16) |
         (static_cast<uint32_t>(data[pos + 2]) << 8) |
         static_cast<uint32_t>(data[pos + 3]);
}

void LogChecksumMismatch(size_t record_index) {
  auto& log = telemetry::EventLog::Global();
  if (!log.enabled()) return;
  log.Emit(telemetry::Event("journal.checksum_mismatch")
               .Num("record", record_index));
}

}  // namespace

Journal Journal::Prefix(size_t n) const {
  Journal prefix;
  const size_t count = n < entries_.size() ? n : entries_.size();
  prefix.entries_.assign(entries_.begin(),
                         entries_.begin() + static_cast<long>(count));
  return prefix;
}

void AppendJournalEntryBody(Bytes* out, const JournalEntry& entry) {
  out->push_back(static_cast<uint8_t>(entry.op));
  AppendKey(out, entry.object.key);
  AppendUint64(out, entry.object.value.size());
  AppendString(out, entry.object.value);
}

bool ParseJournalEntryBody(const Bytes& data, size_t* pos, JournalEntry* out) {
  size_t p = *pos;
  auto need = [&](size_t n) { return p + n <= data.size(); };
  auto u64 = [&]() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data[p++];
    return v;
  };
  if (!need(1 + 8 + 8)) return false;
  const uint8_t op = data[p++];
  if (op < 1 || op > 3) return false;
  out->op = static_cast<JournalEntry::Op>(op);
  out->object.key = static_cast<Key>(u64());
  const uint64_t len = u64();
  if (!need(len)) return false;
  out->object.value.assign(reinterpret_cast<const char*>(data.data() + p), len);
  p += len;
  *pos = p;
  return true;
}

Bytes Journal::Serialize() const {
  Bytes out;
  out.push_back(kFormatVersion);
  AppendUint64(&out, entries_.size());
  for (const JournalEntry& e : entries_) {
    const size_t body_start = out.size();
    AppendJournalEntryBody(&out, e);
    AppendCrc(&out, common::Crc32c(out.data() + body_start,
                                   out.size() - body_start));
  }
  return out;
}

JournalParseResult Journal::ParseEx(const Bytes& data) {
  JournalParseResult result;
  result.error = JournalParseError::kMalformed;
  size_t pos = 0;
  auto need = [&](size_t n) { return pos + n <= data.size(); };
  auto u64 = [&]() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data[pos++];
    return v;
  };

  if (!need(1)) return result;
  const uint8_t version = data[pos++];
  if (version != kFormatVersion) return result;
  if (!need(8)) return result;
  const uint64_t n = u64();
  if (n > (1ull << 32)) return result;

  Journal journal;
  for (uint64_t i = 0; i < n; ++i) {
    result.record_index = i;
    JournalEntry e;
    const size_t body_start = pos;
    if (!ParseJournalEntryBody(data, &pos, &e)) return result;
    if (!need(4)) return result;
    const uint32_t want = ReadU32(data, pos);
    const uint32_t got =
        common::Crc32c(data.data() + body_start, pos - body_start);
    pos += 4;
    if (want != got) {
      result.error = JournalParseError::kChecksum;
      LogChecksumMismatch(i);
      return result;
    }
    journal.Record(std::move(e));
  }
  result.record_index = n;
  if (pos != data.size()) return result;  // trailing garbage
  result.error = JournalParseError::kNone;
  result.journal = std::move(journal);
  return result;
}

}  // namespace gem2::core
