#include "ads/static_tree.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "crypto/digest.h"
#include "crypto/keccak_batch.h"

namespace gem2::ads {
namespace {

bool Overlaps(Key a_lo, Key a_hi, Key b_lo, Key b_hi) {
  return a_lo <= b_hi && b_lo <= a_hi;
}

/// Node-count grain for parallel level construction: below this many nodes
/// per level the submit overhead outweighs the hashing.
constexpr size_t kParallelGrain = 64;

}  // namespace

void StaticTree::RecomputeLeaf(size_t index) {
  Node& node = levels_[0][index];
  node.lo = entries_[node.child_begin].key;
  node.hi = entries_[node.child_begin + node.child_count - 1].key;
  std::vector<Hash> digests;
  digests.reserve(node.child_count);
  for (size_t i = 0; i < node.child_count; ++i) {
    const Entry& e = entries_[node.child_begin + i];
    digests.push_back(crypto::EntryDigest(e.key, e.value_hash));
  }
  node.content = crypto::ContentDigest(digests);
  node.digest = crypto::WrapDigest(node.lo, node.hi, node.content);
}

void StaticTree::RecomputeInternal(size_t level, size_t index) {
  Node& node = levels_[level][index];
  const std::vector<Node>& prev = levels_[level - 1];
  node.lo = prev[node.child_begin].lo;
  node.hi = prev[node.child_begin + node.child_count - 1].hi;
  std::vector<Hash> digests;
  digests.reserve(node.child_count);
  for (size_t i = 0; i < node.child_count; ++i) {
    digests.push_back(prev[node.child_begin + i].digest);
  }
  node.content = crypto::ContentDigest(digests);
  node.digest = crypto::WrapDigest(node.lo, node.hi, node.content);
}

StaticTree::StaticTree(EntryList entries, int fanout, common::ThreadPool* pool)
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

  // The level structure (chunk boundaries) is a pure function of
  // (size, fanout), so we can lay out each level first and fill the digests
  // either serially or with a ParallelFor over node indices — the bits are
  // identical either way because every node only reads its own children.
  const size_t f = static_cast<size_t>(fanout_);
  auto layout = [f](size_t child_total) {
    std::vector<Node> nodes;
    nodes.reserve((child_total + f - 1) / f);
    for (size_t begin = 0; begin < child_total; begin += f) {
      Node node;
      node.child_begin = begin;
      node.child_count = std::min(f, child_total - begin);
      nodes.push_back(node);
    }
    return nodes;
  };
  auto fill = [this, pool](size_t level) {
    const size_t n = levels_[level].size();
    auto body = [this, level](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (level == 0) {
          RecomputeLeaf(i);
        } else {
          RecomputeInternal(level, i);
        }
      }
    };
    if (pool != nullptr && n >= 2 * kParallelGrain) {
      pool->ParallelFor(0, n, kParallelGrain, body);
    } else {
      body(0, n);
    }
  };

  levels_.push_back(layout(entries_.size()));
  fill(0);
  while (levels_.back().size() > 1) {
    levels_.push_back(layout(levels_.back().size()));
    fill(levels_.size() - 1);
  }
  root_digest_ = levels_.back()[0].digest;
}

bool StaticTree::UpdateValueHash(Key key, const Hash& value_hash) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, Key k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return false;
  it->value_hash = value_hash;

  size_t index = static_cast<size_t>(it - entries_.begin()) /
                 static_cast<size_t>(fanout_);
  RecomputeLeaf(index);
  for (size_t level = 1; level < levels_.size(); ++level) {
    index /= static_cast<size_t>(fanout_);
    RecomputeInternal(level, index);
  }
  root_digest_ = levels_.back()[0].digest;
  return true;
}

Key StaticTree::lo() const {
  if (empty()) throw std::logic_error("empty tree has no boundaries");
  return levels_.back()[0].lo;
}

Key StaticTree::hi() const {
  if (empty()) throw std::logic_error("empty tree has no boundaries");
  return levels_.back()[0].hi;
}

TreeVo StaticTree::RangeQuery(Key lb, Key ub, EntryList* result) const {
  TreeVo vo;
  if (empty()) {
    vo.empty_tree = true;
    return vo;
  }
  vo.root = QueryNode(levels_.size() - 1, 0, lb, ub, result);
  return vo;
}

VoChild StaticTree::QueryNode(size_t level, size_t index, Key lb, Key ub,
                              EntryList* result) const {
  const Node& node = levels_[level][index];
  if (!Overlaps(node.lo, node.hi, lb, ub)) {
    return VoPruned{node.lo, node.hi, node.content};
  }
  auto out = std::make_unique<VoNode>();
  out->children.reserve(node.child_count);
  if (level == 0) {
    for (size_t i = 0; i < node.child_count; ++i) {
      const Entry& e = entries_[node.child_begin + i];
      const bool in_range = e.key >= lb && e.key <= ub;
      out->children.push_back(VoEntry{e.key, e.value_hash, in_range});
      if (in_range && result != nullptr) result->push_back(e);
    }
  } else {
    for (size_t i = 0; i < node.child_count; ++i) {
      out->children.push_back(
          QueryNode(level - 1, node.child_begin + i, lb, ub, result));
    }
  }
  return VoChild(std::move(out));
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
  crypto::Keccak256Batcher batcher;

  // Entry digests. Charges are issued first, in the same per-entry order the
  // scalar loop used: Chash depends only on message sizes, never on digest
  // values, so hoisting the hashes after the charges leaves the meter's
  // charge sequence — and thus every out-of-gas abort point — bit-identical.
  // The gas charge is unconditional; the cache only decides whether the
  // Keccak actually runs.
  if (meter != nullptr) {
    for (size_t i = 0; i < n; ++i) meter->ChargeHash(crypto::EntryDigestBytes());
  }
  std::vector<Key> lo(n);
  std::vector<Key> hi(n);
  std::vector<Hash> digests(n);
  for (size_t i = 0; i < n; ++i) {
    lo[i] = sorted[i].key;
    hi[i] = sorted[i].key;
  }
  if (cache != nullptr) {
    cache->GetBatch(sorted, digests.data());
  } else {
    uint8_t msg[40];
    for (size_t i = 0; i < n; ++i) {
      crypto::EncodeEntryPreimage(sorted[i].key, sorted[i].value_hash, msg);
      batcher.Add(msg, sizeof(msg), &digests[i]);
    }
    batcher.Flush();
  }

  // Fold fanout-sized chunks until a single root remains. At least one fold
  // always happens: entry digests must be wrapped into a leaf node digest.
  // Per level: charge every chunk in the original content/wrap interleaved
  // order, then batch all content digests, then all wrap digests. Hashes
  // within a level are independent, so the two flushed passes produce the
  // exact bits of the chunk-at-a-time loop.
  bool folded = false;
  while (!folded || digests.size() > 1) {
    folded = true;
    const size_t level_n = digests.size();
    const size_t chunks = (level_n + f - 1) / f;
    if (meter != nullptr) {
      for (size_t begin = 0; begin < level_n; begin += f) {
        meter->ChargeHash(crypto::ContentDigestBytes(std::min(f, level_n - begin)));
        meter->ChargeHash(crypto::WrapDigestBytes());
      }
    }
    std::vector<Hash> contents(chunks);
    for (size_t c = 0, begin = 0; begin < level_n; ++c, begin += f) {
      const size_t count = std::min(f, level_n - begin);
      // The level's digests are contiguous, so the chunk is its own preimage.
      batcher.Add(digests[begin].data(), 32 * count, &contents[c]);
    }
    batcher.Flush();
    std::vector<Key> next_lo(chunks);
    std::vector<Key> next_hi(chunks);
    std::vector<Hash> next(chunks);
    uint8_t msg[48];
    for (size_t c = 0, begin = 0; begin < level_n; ++c, begin += f) {
      const size_t count = std::min(f, level_n - begin);
      next_lo[c] = lo[begin];
      next_hi[c] = hi[begin + count - 1];
      crypto::EncodeWrapPreimage(next_lo[c], next_hi[c], contents[c], msg);
      batcher.Add(msg, sizeof(msg), &next[c]);
    }
    batcher.Flush();
    lo = std::move(next_lo);
    hi = std::move(next_hi);
    digests = std::move(next);
  }
  return digests[0];
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
