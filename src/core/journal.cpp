#include "core/journal.h"

namespace gem2::core {

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

}  // namespace gem2::core
