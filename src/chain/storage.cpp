#include "chain/storage.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/keccak.h"

namespace gem2::chain {
namespace {

constexpr size_t kInitialCapacity = 64;

}  // namespace

MeteredStorage::Entry* MeteredStorage::Find(const Slot& slot, size_t* insert_pos) {
  if (table_.empty()) return nullptr;
  size_t idx = SlotHasher{}(slot) & mask_;
  size_t tombstone = SIZE_MAX;
  while (true) {
    Entry& e = table_[idx];
    if (e.state == kEmpty) {
      if (insert_pos != nullptr) {
        *insert_pos = tombstone != SIZE_MAX ? tombstone : idx;
      }
      return nullptr;
    }
    if (e.state == kLive && e.holds(slot)) return &e;
    if (e.state == kDead && tombstone == SIZE_MAX) tombstone = idx;
    idx = (idx + 1) & mask_;
  }
}

const MeteredStorage::Entry* MeteredStorage::Find(const Slot& slot) const {
  return const_cast<MeteredStorage*>(this)->Find(slot, nullptr);
}

void MeteredStorage::Rehash(size_t min_capacity) {
  size_t capacity = table_.empty() ? kInitialCapacity : table_.size();
  // Grow only when live entries genuinely crowd the table; otherwise the
  // rehash just purges tombstones at the same size.
  while (capacity < min_capacity || live_ * 4 >= capacity * 3) capacity *= 2;
  std::vector<Entry> old = std::move(table_);
  table_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  used_ = live_;
  for (Entry& e : old) {
    if (e.state != kLive) continue;
    size_t idx = SlotHasher{}(e.slot()) & mask_;
    while (table_[idx].state != kEmpty) idx = (idx + 1) & mask_;
    table_[idx] = std::move(e);
  }
}

void MeteredStorage::RecordUndo(const Entry* entry, const Slot& slot) {
  if (!in_tx_) return;
  if (entry != nullptr) {
    undo_log_.emplace_back(slot, entry->word);
  } else {
    undo_log_.emplace_back(slot, std::nullopt);
  }
}

Word MeteredStorage::Load(const Slot& slot, gas::Meter& meter) {
  meter.ChargeSload();
  const Entry* e = Find(slot);
  return e == nullptr ? kZeroWord : e->word;
}

void MeteredStorage::Store(const Slot& slot, const Word& value, gas::Meter& meter) {
  if (table_.empty() || used_ * 4 >= table_.size() * 3) Rehash(kInitialCapacity);
  size_t insert_pos = SIZE_MAX;
  Entry* e = Find(slot, &insert_pos);
  const bool occupied = e != nullptr;
  // Charge gas before mutating: an OutOfGasError must not corrupt state even
  // outside a transaction bracket.
  if (occupied) {
    meter.ChargeSupdate();
  } else {
    meter.ChargeSstore();
  }
  RecordUndo(e, slot);
  if (value == kZeroWord) {
    if (occupied) {
      e->state = kDead;
      --live_;
    }
    return;
  }
  if (occupied) {
    e->word = value;
    return;
  }
  Entry& fresh = table_[insert_pos];
  if (fresh.state == kEmpty) ++used_;
  fresh.index = slot.index;
  fresh.region = slot.region;
  fresh.word = value;
  fresh.state = kLive;
  ++live_;
}

uint64_t MeteredStorage::LoadUint(const Slot& slot, gas::Meter& meter) {
  return Uint64FromWord(Load(slot, meter));
}

void MeteredStorage::StoreUint(const Slot& slot, uint64_t value, gas::Meter& meter) {
  Store(slot, WordFromUint64(value), meter);
}

Hash MeteredStorage::Fingerprint() const {
  std::vector<std::pair<Slot, Word>> live;
  live.reserve(live_);
  for (const Entry& e : table_) {
    if (e.state == kLive) live.emplace_back(e.slot(), e.word);
  }
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.first.region != b.first.region ? a.first.region < b.first.region
                                            : a.first.index < b.first.index;
  });
  Bytes image;
  image.reserve(live.size() * (4 + 8 + 32));
  for (const auto& [slot, word] : live) {
    AppendUint64(&image, (static_cast<uint64_t>(slot.region) << 32));
    AppendUint64(&image, slot.index);
    AppendHash(&image, word);
  }
  return crypto::Keccak256(image);
}

void MeteredStorage::Poke(const Slot& slot, const Word& value) {
  Entry* e = Find(slot, nullptr);
  if (e == nullptr || value == kZeroWord) {
    throw std::logic_error("Poke: slot must stay occupied");
  }
  e->word = value;
}

bool MeteredStorage::Contains(const Slot& slot) const {
  return Find(slot) != nullptr;
}

Word MeteredStorage::Peek(const Slot& slot) const {
  const Entry* e = Find(slot);
  return e == nullptr ? kZeroWord : e->word;
}

void MeteredStorage::BeginTx() {
  if (in_tx_) throw std::logic_error("nested transaction");
  in_tx_ = true;
  undo_log_.clear();
}

void MeteredStorage::CommitTx() {
  if (!in_tx_) throw std::logic_error("commit outside transaction");
  in_tx_ = false;
  undo_log_.clear();
}

void MeteredStorage::RestoreSlot(const Slot& slot, const std::optional<Word>& word) {
  size_t insert_pos = SIZE_MAX;
  Entry* e = Find(slot, &insert_pos);
  if (!word.has_value()) {
    if (e != nullptr) {
      e->state = kDead;
      --live_;
    }
    return;
  }
  if (e != nullptr) {
    e->word = *word;
    return;
  }
  if (table_.empty() || used_ * 4 >= table_.size() * 3) {
    Rehash(kInitialCapacity);
    Find(slot, &insert_pos);
  }
  Entry& fresh = table_[insert_pos];
  if (fresh.state == kEmpty) ++used_;
  fresh.index = slot.index;
  fresh.region = slot.region;
  fresh.word = *word;
  fresh.state = kLive;
  ++live_;
}

void MeteredStorage::RollbackTx() {
  if (!in_tx_) throw std::logic_error("rollback outside transaction");
  in_tx_ = false;
  // Apply undo entries in reverse; the oldest record for a slot replays last,
  // so its later records (see undo_log_ comment) cannot clobber the original
  // value.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    RestoreSlot(it->first, it->second);
  }
  undo_log_.clear();
}

}  // namespace gem2::chain
