#include "ads/static_tree.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/digest.h"
#include "crypto/keccak_batch.h"

namespace gem2::ads {
namespace {

bool Overlaps(Key a_lo, Key a_hi, Key b_lo, Key b_hi) {
  return a_lo <= b_hi && b_lo <= a_hi;
}

/// The entry level a fold starts from: each entry's key (its own lo and hi)
/// and entry digest, 8 Keccak messages per batch, or through `cache` when one
/// is given.
void EntryLevel(std::span<const Entry> entries, LeafDigestCache* cache,
                std::vector<Key>* keys, std::vector<Hash>* digests) {
  const size_t n = entries.size();
  keys->resize(n);
  digests->resize(n);
  for (size_t i = 0; i < n; ++i) (*keys)[i] = entries[i].key;
  if (cache != nullptr) {
    cache->GetBatch(entries, digests->data());
    return;
  }
  crypto::Keccak256Batcher batcher;
  uint8_t msg[40];
  for (size_t i = 0; i < n; ++i) {
    crypto::EncodeEntryPreimage(entries[i].key, entries[i].value_hash, msg);
    batcher.Add(msg, sizeof(msg), &(*digests)[i]);
  }
  batcher.Flush();
}

/// The one node-digest fold (crypto/digest.h) over a whole level: groups the
/// level's `digest`s (node i spanning [lo[i], hi[i]]) into chunks of `f` and
/// writes the parent level into `*up`: chunk c's bounds, content digest
/// H(d_cf || ...) and node digest H(lo || hi || content). Hashes within a
/// level are independent, so every content digest runs through the batcher
/// as one pass, then every wrap as a second: the bits of the chunk-at-a-time
/// loop, 8 messages per permutation batch.
void FoldLevel(std::span<const Key> lo, std::span<const Key> hi,
               std::span<const Hash> digest, size_t f, TreeLevel* up) {
  const size_t n = digest.size();
  const size_t chunks = (n + f - 1) / f;
  up->lo.resize(chunks);
  up->hi.resize(chunks);
  up->content.resize(chunks);
  up->digest.resize(chunks);
  crypto::Keccak256Batcher batcher;
  for (size_t c = 0, begin = 0; begin < n; ++c, begin += f) {
    const size_t count = std::min(f, n - begin);
    // The level's digests are contiguous, so the chunk is its own preimage.
    batcher.Add(digest[begin].data(), 32 * count, &up->content[c]);
    up->lo[c] = lo[begin];
    up->hi[c] = hi[begin + count - 1];
  }
  batcher.Flush();
  uint8_t msg[48];
  for (size_t c = 0; c < chunks; ++c) {
    crypto::EncodeWrapPreimage(up->lo[c], up->hi[c], up->content[c], msg);
    batcher.Add(msg, sizeof(msg), &up->digest[c]);
  }
  batcher.Flush();
}

}  // namespace

StaticTree::StaticTree(EntryList entries, int fanout)
    : entries_(std::move(entries)), fanout_(fanout) {
  if (fanout_ < 2) throw std::invalid_argument("fanout must be >= 2");
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i - 1].key >= entries_[i].key) {
      throw std::invalid_argument("entries must be sorted with unique keys");
    }
  }
  if (entries_.empty()) {
    root_digest_ = crypto::EmptyTreeDigest();
    return;
  }

  const size_t f = static_cast<size_t>(fanout_);
  std::vector<Key> keys;
  std::vector<Hash> entry_digests;
  EntryLevel(entries_, nullptr, &keys, &entry_digests);
  levels_.emplace_back();
  FoldLevel(keys, keys, entry_digests, f, &levels_.back());
  while (levels_.back().digest.size() > 1) {
    TreeLevel up;
    const TreeLevel& below = levels_.back();
    FoldLevel(below.lo, below.hi, below.digest, f, &up);
    levels_.push_back(std::move(up));
  }
  root_digest_ = levels_.back().digest[0];
}

size_t StaticTree::ChildTotal(size_t level) const {
  return level == 0 ? entries_.size() : levels_[level - 1].digest.size();
}

void StaticTree::Rehash(size_t level, size_t index) {
  const size_t f = static_cast<size_t>(fanout_);
  const size_t begin = index * f;
  const size_t count = std::min(f, ChildTotal(level) - begin);
  TreeLevel& node_level = levels_[level];
  if (level == 0) {
    std::vector<Hash> digests;
    digests.reserve(count);
    for (size_t i = begin; i < begin + count; ++i) {
      digests.push_back(crypto::EntryDigest(entries_[i].key, entries_[i].value_hash));
    }
    node_level.content[index] = crypto::ContentDigest(digests);
  } else {
    node_level.content[index] = crypto::ContentDigest(
        std::span<const Hash>(levels_[level - 1].digest).subspan(begin, count));
  }
  node_level.digest[index] = crypto::WrapDigest(
      node_level.lo[index], node_level.hi[index], node_level.content[index]);
}

bool StaticTree::UpdateValueHash(Key key, const Hash& value_hash) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, Key k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return false;
  it->value_hash = value_hash;

  // A value change leaves every key boundary in place: only the contents and
  // digests on the leaf-to-root path move.
  size_t index = static_cast<size_t>(it - entries_.begin());
  for (size_t level = 0; level < levels_.size(); ++level) {
    index /= static_cast<size_t>(fanout_);
    Rehash(level, index);
  }
  root_digest_ = levels_.back().digest[0];
  return true;
}

Key StaticTree::lo() const {
  if (empty()) throw std::logic_error("empty tree has no boundaries");
  return levels_.back().lo[0];
}

Key StaticTree::hi() const {
  if (empty()) throw std::logic_error("empty tree has no boundaries");
  return levels_.back().hi[0];
}

TreeVo StaticTree::RangeQuery(Key lb, Key ub, EntryList* result) const {
  TreeVo vo;
  if (empty()) {
    vo.empty_tree = true;
    return vo;
  }
  QueryNode(levels_.size() - 1, 0, lb, ub, result, &vo.elements);
  return vo;
}

void StaticTree::QueryNode(size_t level, size_t index, Key lb, Key ub,
                           EntryList* result, std::vector<VoElement>* out) const {
  const TreeLevel& nodes = levels_[level];
  if (!Overlaps(nodes.lo[index], nodes.hi[index], lb, ub)) {
    out->push_back(
        VoElement::Pruned(nodes.lo[index], nodes.hi[index], nodes.content[index]));
    return;
  }
  const size_t f = static_cast<size_t>(fanout_);
  const size_t begin = index * f;
  const size_t end = std::min(begin + f, ChildTotal(level));
  out->push_back(VoElement::Node(static_cast<uint32_t>(end - begin)));
  if (level == 0) {
    for (size_t i = begin; i < end; ++i) {
      const Entry& e = entries_[i];
      if (e.key >= lb && e.key <= ub) {
        out->push_back(VoElement::Result(e.key));
        if (result != nullptr) result->push_back(e);
      } else {
        out->push_back(VoElement::Boundary(e.key, e.value_hash));
      }
    }
  } else {
    for (size_t i = begin; i < end; ++i) QueryNode(level - 1, i, lb, ub, result, out);
  }
}

size_t LeafDigestCache::HomeSlot(Key key, size_t capacity) {
  // Fibonacci hash spreads consecutive keys; table size is a power of two.
  return (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull >> 17) & (capacity - 1);
}

LeafDigestCache::Slot& LeafDigestCache::FindSlot(Key key) {
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(key, slots_.size());
  while (slots_[i].occupied && slots_[i].key != key) i = (i + 1) & mask;
  return slots_[i];
}

void LeafDigestCache::Erase(std::span<const Entry> entries) {
  const size_t mask = slots_.size() - 1;
  for (const Entry& e : entries) {
    Slot* hole = &FindSlot(e.key);
    if (!hole->occupied) continue;
    --used_;
    // Backward-shift deletion: walk the rest of the probe run and move each
    // slot whose home lies cyclically at or before the hole into it, so no
    // remaining key's probe path crosses an empty slot before reaching it.
    size_t h = static_cast<size_t>(hole - slots_.data());
    for (size_t j = (h + 1) & mask; slots_[j].occupied; j = (j + 1) & mask) {
      if (((j - HomeSlot(slots_[j].key, slots_.size())) & mask) >= ((j - h) & mask)) {
        slots_[h] = slots_[j];
        h = j;
      }
    }
    slots_[h] = Slot{};
  }
}

void LeafDigestCache::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  for (Slot& s : old) {
    if (s.occupied) FindSlot(s.key) = s;
  }
}

void LeafDigestCache::GetBatch(std::span<const Entry> entries, Hash* out) {
  crypto::Keccak256Batcher batcher;
  // Misses hash straight into their slots; the copies to `out` wait until a
  // flush has made every queued digest valid.
  std::vector<std::pair<const Hash*, Hash*>> pending;
  auto drain = [&] {
    batcher.Flush();
    for (auto& [src, dst] : pending) *dst = *src;
    pending.clear();
  };
  uint8_t msg[40];
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    Slot* slot = &FindSlot(e.key);
    if (slot->occupied && slot->value_hash == e.value_hash) {
      ++hits_;
      out[i] = slot->digest;
      continue;
    }
    if (!slot->occupied) {
      // Only a new key can push the load past 3/4. Growing moves every slot,
      // so the digests queued into the old table land first.
      if ((used_ + 1) * 4 >= slots_.size() * 3) {
        drain();
        Grow();
        slot = &FindSlot(e.key);
      }
      slot->occupied = true;
      slot->key = e.key;
      ++used_;
    }
    slot->value_hash = e.value_hash;
    ++misses_;
    crypto::EncodeEntryPreimage(e.key, e.value_hash, msg);
    batcher.Add(msg, sizeof(msg), &slot->digest);
    pending.push_back({&slot->digest, &out[i]});
  }
  drain();
}

Hash CanonicalRootDigest(std::span<const Entry> sorted, int fanout, gas::Meter* meter,
                         LeafDigestCache* cache) {
  if (fanout < 2) throw std::invalid_argument("fanout must be >= 2");
  if (sorted.empty()) return crypto::EmptyTreeDigest();

  const size_t f = static_cast<size_t>(fanout);
  const size_t n = sorted.size();

  // Charges are issued per level before that level is hashed, in the
  // per-entry and per-chunk (content, wrap) order of a scalar fold: Chash
  // depends only on message sizes, never on digest values, so the meter's
  // charge sequence — and thus every out-of-gas abort point — is that of the
  // eager node-by-node computation. The gas charge is unconditional; the
  // cache only decides whether the Keccak actually runs.
  if (meter != nullptr) {
    for (size_t i = 0; i < n; ++i) meter->ChargeHash(crypto::EntryDigestBytes());
  }
  std::vector<Key> keys;
  std::vector<Hash> entry_digests;
  EntryLevel(sorted, cache, &keys, &entry_digests);

  auto charge_level = [&](size_t level_n) {
    if (meter == nullptr) return;
    for (size_t begin = 0; begin < level_n; begin += f) {
      meter->ChargeHash(crypto::ContentDigestBytes(std::min(f, level_n - begin)));
      meter->ChargeHash(crypto::WrapDigestBytes());
    }
  };
  // At least one fold always happens: entry digests must be wrapped into a
  // leaf node digest.
  TreeLevel level;
  TreeLevel up;
  charge_level(n);
  FoldLevel(keys, keys, entry_digests, f, &level);
  while (level.digest.size() > 1) {
    charge_level(level.digest.size());
    FoldLevel(level.lo, level.hi, level.digest, f, &up);
    std::swap(level, up);
  }
  return level.digest[0];
}

void ChargeCanonicalRootDigest(size_t n, int fanout, gas::Meter& meter) {
  if (fanout < 2) throw std::invalid_argument("fanout must be >= 2");
  if (n == 0) return;
  const size_t f = static_cast<size_t>(fanout);
  for (size_t i = 0; i < n; ++i) meter.ChargeHash(crypto::EntryDigestBytes());
  // One content + wrap charge per chunk, level by level, until one node is
  // left; like CanonicalRootDigest, at least one level is always folded.
  size_t level_n = n;
  do {
    for (size_t begin = 0; begin < level_n; begin += f) {
      meter.ChargeHash(crypto::ContentDigestBytes(std::min(f, level_n - begin)));
      meter.ChargeHash(crypto::WrapDigestBytes());
    }
    level_n = (level_n + f - 1) / f;
  } while (level_n > 1);
}

}  // namespace gem2::ads
