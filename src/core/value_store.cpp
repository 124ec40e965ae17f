#include "core/value_store.h"

#include <bit>
#include <stdexcept>

namespace gem2::core {
namespace {

constexpr size_t kInitialCapacity = 16;  // power of two
constexpr uint64_t kMaxArenaBytes = uint64_t{1} << 38;

size_t HomeSlot(Key key, int shift) {
  // Fibonacci hash: the top bits of the product spread consecutive keys.
  return static_cast<size_t>((static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
                             shift);
}

}  // namespace

const PackedValueStore::Slot* PackedValueStore::FindSlot(Key key) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(key, shift_);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.used) return nullptr;
    if (s.key == key) return &s;
  }
}

std::optional<std::string_view> PackedValueStore::Get(Key key) const {
  const Slot* s = FindSlot(key);
  if (s == nullptr || s->tombstone) return std::nullopt;
  return View(*s);
}

bool PackedValueStore::IsTombstoned(Key key) const {
  const Slot* s = FindSlot(key);
  return s != nullptr && s->tombstone;
}

PackedValueStore::Slot& PackedValueStore::ClaimSlot(Key key) {
  // Deciding on growth before probing keeps the slot reference valid.
  if ((used_ + 1) * 8 > slots_.size() * 7 && FindSlot(key) == nullptr) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(key, shift_);
  while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
  Slot& s = slots_[i];
  if (!s.used) {
    s.key = key;
    s.used = 1;
    s.tombstone = 1;
    ++used_;
  }
  return s;
}

void PackedValueStore::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = old.empty() ? kInitialCapacity : old.size() * 2;
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (!s.used) continue;
    size_t i = HomeSlot(s.key, shift_);
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void PackedValueStore::Put(Key key, std::string_view value) {
  if (value.size() > kMaxValueBytes) {
    throw std::length_error("PackedValueStore: value longer than 16 MiB - 1");
  }
  if (arena_.size() + value.size() > kMaxArenaBytes) {
    throw std::length_error("PackedValueStore: arena full");
  }
  Slot& s = ClaimSlot(key);
  if (s.tombstone) {
    s.tombstone = 0;
    ++live_;
  } else {
    live_bytes_ -= s.length;
  }
  s.offset = arena_.size();
  s.length = value.size();
  arena_.insert(arena_.end(), value.begin(), value.end());
  live_bytes_ += value.size();
  CompactIfWasteful();
}

void PackedValueStore::Tombstone(Key key) {
  Slot* s = const_cast<Slot*>(FindSlot(key));
  if (s == nullptr || s->tombstone) return;
  s->tombstone = 1;
  live_bytes_ -= s->length;
  s->offset = 0;
  s->length = 0;
  --live_;
  CompactIfWasteful();
}

void PackedValueStore::CompactIfWasteful() {
  // Dead bytes never outgrow the live bytes and the slot table together, so
  // the arena stays within twice what it must hold; each compaction is paid
  // for by at least as many dead bytes as it walks slots and copies bytes.
  const uint64_t dead = dead_bytes();
  if (dead <= live_bytes_ || dead <= slots_.size() * sizeof(Slot)) return;
  std::vector<char> packed;
  packed.reserve(live_bytes_);
  for (Slot& s : slots_) {
    if (!s.used || s.tombstone) continue;
    const std::string_view v = View(s);
    s.offset = packed.size();
    packed.insert(packed.end(), v.begin(), v.end());
  }
  arena_ = std::move(packed);
  ++compactions_;
}

}  // namespace gem2::core
