/// \file value_store.h
/// The SP's raw-object store (paper Fig. 1: the chain keeps hashes, the SP
/// keeps the objects): one value per key, packed.
///
/// Values live back to back in one append-only byte arena. An open-addressing
/// table of 16-byte slots {key, offset, length, tombstone bit} indexes them
/// with linear probing at no more than 7/8 load. A put appends the value's
/// bytes and repoints the slot, so the bytes it replaces become dead; once
/// dead bytes exceed both the live bytes and the slot table's own size, the
/// arena is compacted (live values copied, in slot order, into a fresh
/// arena). Tombstoning a key keeps its slot and frees its bytes: a deleted
/// key is still known, and a later put revives it.
///
/// Reads are const and never move bytes, so any number of readers may share
/// the store while no writer runs (AuthenticatedDb's callers hold the
/// engine's shared lock for reads and its exclusive lock for writes).
#ifndef GEM2_CORE_VALUE_STORE_H_
#define GEM2_CORE_VALUE_STORE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace gem2::core {

class PackedValueStore {
 public:
  /// Longest value a slot can address (16 MiB - 1); Put throws
  /// std::length_error beyond it, or when the arena would pass 256 GiB.
  static constexpr uint64_t kMaxValueBytes = (uint64_t{1} << 24) - 1;

  /// Makes `value` the key's live value: an insert, an update, or the
  /// revival of a tombstoned key. Invalidates every view Get returned, so
  /// `value` must not be one of them.
  void Put(Key key, std::string_view value);

  /// Tombstones a live key, freeing its bytes; the key stays known. No-op
  /// for an absent or already tombstoned key. Invalidates Get's views.
  void Tombstone(Key key);

  /// The key's live value, or std::nullopt when it is absent or tombstoned.
  /// The view stays valid until the next Put or Tombstone.
  std::optional<std::string_view> Get(Key key) const;

  /// True when the key holds a live value.
  bool Contains(Key key) const { return Get(key).has_value(); }
  /// True when the key is tombstoned.
  bool IsTombstoned(Key key) const;
  /// True when the key is live or tombstoned.
  bool Knows(Key key) const { return FindSlot(key) != nullptr; }

  /// Calls fn(key, value) for every live key, in slot order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used && !s.tombstone) fn(s.key, View(s));
    }
  }

  /// Live keys.
  uint64_t size() const { return live_; }
  /// Bytes of live values, and bytes the arena holds for replaced or
  /// tombstoned values that no compaction has reclaimed yet.
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t dead_bytes() const { return arena_.size() - live_bytes_; }
  /// Slot count (a power of two, or 0 before the first put).
  size_t capacity() const { return slots_.size(); }
  /// Arena compactions run so far.
  uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    Key key = 0;
    uint64_t offset : 38 = 0;
    uint64_t length : 24 = 0;
    uint64_t tombstone : 1 = 0;
    uint64_t used : 1 = 0;
  };
  static_assert(sizeof(Slot) == 16);

  std::string_view View(const Slot& s) const {
    return {arena_.data() + s.offset, s.length};
  }
  const Slot* FindSlot(Key key) const;
  /// The key's slot, claimed (used, empty value, tombstoned) when it was
  /// absent; grows the table first when a claim would pass 7/8 load.
  Slot& ClaimSlot(Key key);
  void Grow();
  void CompactIfWasteful();

  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 - log2(capacity): home slot = top bits of the hash
  uint64_t used_ = 0;  // live + tombstoned keys
  uint64_t live_ = 0;
  std::vector<char> arena_;
  uint64_t live_bytes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace gem2::core

#endif  // GEM2_CORE_VALUE_STORE_H_
