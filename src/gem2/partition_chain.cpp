#include "gem2/partition_chain.h"

#include <algorithm>
#include <stdexcept>

#include "chain/environment.h"
#include "crypto/digest.h"
#include "telemetry/telemetry.h"

namespace gem2::gem2tree {
namespace {

// Storage regions, relative to the chain's region base.
constexpr uint32_t kRegionMeta = 0;         // 0: count, 1: max
constexpr uint32_t kRegionKeyMap = 1;       // key -> loc
constexpr uint32_t kRegionKeyStorage = 2;   // loc -> key
constexpr uint32_t kRegionValueStorage = 3; // key -> h(value)
constexpr uint32_t kRegionPartTable = 4;    // partition*4 + {0..3}

constexpr uint64_t kMetaCount = 0;
constexpr uint64_t kMetaMax = 1;

Word PackRange(Loc start, Loc end) {
  Word w{};
  for (int i = 0; i < 8; ++i) {
    w[23 - i] = static_cast<uint8_t>((start >> (8 * i)) & 0xff);
    w[31 - i] = static_cast<uint8_t>((end >> (8 * i)) & 0xff);
  }
  return w;
}

Word HashWord(const Hash& h) {
  Word w;
  std::copy(h.begin(), h.end(), w.begin());
  return w;
}

}  // namespace

const Word PartitionChain::kPendingRoot = [] {
  Word w;
  w.fill(0xff);
  return w;
}();

PartitionChain::PartitionChain(Gem2Options options, mbtree::MbTree* p0,
                               chain::MeteredStorage* storage, uint32_t region_base)
    : options_(options),
      p0_(p0),
      storage_(storage),
      region_base_(region_base),
      crosscheck_(chain::StateCrosscheckEnabled()) {
  if (p0_ == nullptr) throw std::invalid_argument("PartitionChain requires a P0 tree");
  if (options_.m < 1 || options_.smax < 2 * options_.m) {
    throw std::invalid_argument("invalid GEM2 options: need Smax >= 2*M >= 2");
  }
  parts_.resize(1);  // parts_[0] unused
}

uint64_t PartitionChain::Occupied(const PartTree& t) const {
  if (!t.allocated()) return 0;
  const Loc hi = std::min<Loc>(t.end, count_);
  return hi >= t.start ? hi - t.start + 1 : 0;
}

uint64_t PartitionChain::partition_size() const {
  uint64_t total = 0;
  for (uint64_t i = 1; i <= max_; ++i) {
    total += Occupied(parts_[i].tl) + Occupied(parts_[i].tr);
  }
  return total;
}

ads::EntryList PartitionChain::CollectEntries(const PartTree& t,
                                              gas::Meter* meter) const {
  ads::EntryList entries;
  const uint64_t n = Occupied(t);
  entries.reserve(n);
  const bool metered = storage_ != nullptr && meter != nullptr;
  for (Loc loc = t.start; loc < t.start + n; ++loc) {
    const Key key = key_by_loc_[loc - 1 - bulked_];
    if (metered) {
      // One sload per object record (paper's SMB rebuild accounting). The
      // word it would read is the key_storage mirror's, so only the charge
      // is issued.
      meter->ChargeSload();
      if (crosscheck_ &&
          KeyFromWord(storage_->Peek(
              chain::Slot{region_base_ + kRegionKeyStorage, loc})) != key) {
        throw std::logic_error(
            "GEM2_STATE_CROSSCHECK: key_storage mirror diverged from storage");
      }
    }
    entries.push_back({key, hash_by_loc_[loc - 1 - bulked_]});
  }
  return entries;
}

chain::Slot PartitionChain::RootSlot(uint64_t partition, bool left) const {
  return chain::Slot{region_base_ + kRegionPartTable, partition * 4 + (left ? 1 : 3)};
}

uint64_t PartitionChain::LedgerOrder(uint64_t partition, bool left) const {
  return ledger_order_base_ + 2 * partition + (left ? 0 : 1);
}

std::string PartitionChain::LedgerLabel(uint64_t partition, bool left) const {
  return ledger_prefix_ + "P" + std::to_string(partition) + (left ? ".Tl" : ".Tr");
}

void PartitionChain::WriteRange(uint64_t partition, bool left, Loc start, Loc end,
                                gas::Meter* meter) {
  PartTree& t = left ? parts_[partition].tl : parts_[partition].tr;
  t.start = start;
  t.end = end;
  {
    std::lock_guard<std::mutex> lock(sp_mutex_);
    t.sp_cache.reset();
  }
  if (storage_ != nullptr && meter != nullptr) {
    const uint64_t idx = partition * 4 + (left ? 0 : 2);
    storage_->Store(chain::Slot{region_base_ + kRegionPartTable, idx},
                    start == 0 ? chain::kZeroWord : PackRange(start, end), *meter);
  }
}

void PartitionChain::WriteRoot(uint64_t partition, bool left, const Hash& root,
                               gas::Meter* meter) {
  PartTree& t = left ? parts_[partition].tl : parts_[partition].tr;
  t.root = root;
  t.root_dirty = false;
  if (storage_ != nullptr && meter != nullptr) {
    const bool zero = root == Hash{};
    storage_->Store(RootSlot(partition, left),
                    zero ? chain::kZeroWord : HashWord(root), *meter);
  }
  if (ledger_ != nullptr) {
    // Every occupancy change funnels through a root write (BuildTree or
    // EmptyTree), so evaluating the non-empty filter here keeps the ledger
    // in lockstep with AppendDigests.
    if (Occupied(t) > 0) {
      ledger_->Set(LedgerOrder(partition, left), LedgerLabel(partition, left), root);
    } else {
      ledger_->Erase(LedgerOrder(partition, left));
    }
  }
}

void PartitionChain::AttachLedger(chain::DigestLedger* ledger,
                                  std::string label_prefix, uint64_t order_base) {
  ledger_ = ledger;
  ledger_prefix_ = std::move(label_prefix);
  ledger_order_base_ = order_base;
}

void PartitionChain::ReadRange(uint64_t partition, bool left,
                               gas::Meter* meter) const {
  if (storage_ != nullptr && meter != nullptr) {
    const uint64_t idx = partition * 4 + (left ? 0 : 2);
    storage_->Load(chain::Slot{region_base_ + kRegionPartTable, idx}, *meter);
  }
}

void PartitionChain::BuildTree(uint64_t partition, PartTree* t, gas::Meter* meter) {
  TELEMETRY_SPAN("gem2.build_tree");
  const bool left = (t == &parts_[partition].tl);
  // Neither side hashes here. The stale query cache is dropped and the root
  // marked dirty, to be derived by EnsureRoot / SpTree at the next
  // observation point; a derived root is bit-identical to an eager one, as
  // both are pure functions of the tree's current sorted run.
  {
    std::lock_guard<std::mutex> lock(sp_mutex_);
    t->sp_cache.reset();
    t->root_dirty = true;
  }
  if (meter == nullptr) return;  // SP mirror

  // Contract: charge the whole rebuild in the eager order (one sload per
  // object, the sort, every hash of CanonicalRootDigest), so gas and every
  // out-of-gas abort point are those of computing the root right here.
  ads::EntryList run = CollectEntries(*t, meter);
  if (run.empty()) throw std::logic_error("BuildTree on an empty tree");
  meter->ChargeSortCost(run.size());
  ads::ChargeCanonicalRootDigest(run.size(), options_.fanout, *meter);
  if (storage_ == nullptr) return;
  if (ledger_ == nullptr) {
    throw std::logic_error("a metered PartitionChain needs an attached ledger");
  }
  // The slot is written (sstore or supdate, by occupancy alone) with a
  // placeholder; the ledger entry owns the unsorted run and fills in both
  // the digest and the slot when the block seal or a reader first observes
  // it. A root superseded before then is never hashed.
  const chain::Slot slot = RootSlot(partition, left);
  storage_->Store(slot, kPendingRoot, *meter);
  ledger_->SetPending(
      LedgerOrder(partition, left), LedgerLabel(partition, left),
      [run = std::move(run), fanout = options_.fanout, cache = &leaf_cache_,
       storage = storage_, slot]() mutable {
        std::sort(run.begin(), run.end(), ads::EntryKeyLess);
        const Hash root = ads::CanonicalRootDigest(run, fanout, nullptr, cache);
        storage->Poke(slot, HashWord(root));
        return root;
      });
}

void PartitionChain::EmptyTree(uint64_t partition, PartTree* t, gas::Meter* meter) {
  const bool left = (t == &parts_[partition].tl);
  WriteRange(partition, left, 0, 0, meter);
  WriteRoot(partition, left, Hash{}, meter);
  {
    std::lock_guard<std::mutex> lock(sp_mutex_);
    t->sp_cache.reset();
  }
}

void PartitionChain::BulkToP0(gas::Meter* meter) {
  TELEMETRY_SPAN("gem2.bulk_to_p0");
  Partition& p1 = parts_[1];
  if (p1.tl.start != bulked_ + 1) {
    throw std::logic_error("P1 does not start right after the bulked prefix");
  }
  ads::EntryList entries = CollectEntries(p1.tl, meter);
  ads::EntryList right = CollectEntries(p1.tr, meter);
  entries.insert(entries.end(), right.begin(), right.end());
  if (meter != nullptr) meter->ChargeSortCost(entries.size());
  std::sort(entries.begin(), entries.end(), ads::EntryKeyLess);
  p0_->BulkInsert(entries, meter);
  // These objects live in P0 for good: no partition rebuild reads their
  // mirror slots or memoized entry digests again, so both are dropped.
  const auto n = static_cast<std::ptrdiff_t>(entries.size());
  key_by_loc_.erase(key_by_loc_.begin(), key_by_loc_.begin() + n);
  hash_by_loc_.erase(hash_by_loc_.begin(), hash_by_loc_.begin() + n);
  leaf_cache_.Erase(entries);
  bulked_ += entries.size();
}

bool PartitionChain::Merge(uint64_t i, gas::Meter* meter) {
  TELEMETRY_SPAN("gem2.merge");
  Partition& p = parts_[i];
  if (i == 1) {
    const uint64_t length = Occupied(p.tl) + Occupied(p.tr);
    if (length < options_.smax) {
      // Combine P1's two trees into one twice-as-large SMB-tree.
      WriteRange(1, true, p.tl.start, p.tr.end, meter);
      BuildTree(1, &p.tl, meter);
      EmptyTree(1, &p.tr, meter);
      return true;
    }
    // P1 is as large as allowed: migrate it into the MB-tree P0.
    BulkToP0(meter);
    EmptyTree(1, &p.tl, meter);
    EmptyTree(1, &p.tr, meter);
    return false;
  }

  Partition& prev = parts_[i - 1];
  if (!prev.tr.allocated()) {
    // The preceding partition has a free right slot: move Pi's combined
    // objects there.
    WriteRange(i - 1, false, p.tl.start, p.tr.end, meter);
    BuildTree(i - 1, &prev.tr, meter);
    EmptyTree(i, &p.tl, meter);
    EmptyTree(i, &p.tr, meter);
    return false;
  }

  const bool ret = Merge(i - 1, meter);
  if (ret) {
    // Every partition doubles (max will increment): combine Pi's trees.
    WriteRange(i, true, p.tl.start, p.tr.end, meter);
    BuildTree(i, &p.tl, meter);
    EmptyTree(i, &p.tr, meter);
    return true;
  }
  // The preceding partition was vacated: move Pi's combined objects into it.
  WriteRange(i - 1, true, p.tl.start, p.tr.end, meter);
  BuildTree(i - 1, &prev.tl, meter);
  EmptyTree(i, &p.tl, meter);
  EmptyTree(i, &p.tr, meter);
  return false;
}

void PartitionChain::Insert(Key key, const Hash& value_hash, gas::Meter* meter) {
  TELEMETRY_SPAN("gem2.insert");
  if (loc_by_key_.count(key) != 0) {
    throw std::invalid_argument("PartitionChain::Insert: key already present");
  }
  const uint64_t m = options_.m;

  // Algorithm 1 lines 1-4: append the object.
  Loc loc;
  if (storage_ != nullptr && meter != nullptr) {
    loc = storage_->LoadUint(chain::Slot{region_base_ + kRegionMeta, kMetaCount},
                             *meter) +
          1;
    storage_->Store(chain::Slot{region_base_ + kRegionKeyMap,
                                static_cast<uint64_t>(key)},
                    WordFromUint64(loc), *meter);
    storage_->Store(chain::Slot{region_base_ + kRegionKeyStorage, loc},
                    WordFromKey(key), *meter);
    storage_->Store(chain::Slot{region_base_ + kRegionValueStorage,
                                static_cast<uint64_t>(key)},
                    HashWord(value_hash), *meter);
    storage_->StoreUint(chain::Slot{region_base_ + kRegionMeta, kMetaCount}, loc,
                        *meter);
  } else {
    loc = count_ + 1;
  }
  count_ = loc;
  key_by_loc_.push_back(key);
  hash_by_loc_.push_back(value_hash);
  loc_by_key_.emplace(key, loc);

  // Algorithm 1 lines 5-7: bootstrap the first partition.
  if (max_ == 0) {
    max_ = 1;
    parts_.resize(2);
    if (storage_ != nullptr && meter != nullptr) {
      storage_->StoreUint(chain::Slot{region_base_ + kRegionMeta, kMetaMax}, max_,
                          *meter);
    }
    WriteRange(1, true, 1, m, meter);
    WriteRange(1, false, m + 1, 2 * m, meter);
  }

  // Algorithm 1 lines 8-11: the common case — the object lands in P_max.
  Partition& pmax = parts_[max_];
  ReadRange(max_, true, meter);
  if (loc >= pmax.tl.start && loc <= pmax.tl.end) {
    BuildTree(max_, &pmax.tl, meter);
    return;
  }
  ReadRange(max_, false, meter);
  if (loc >= pmax.tr.start && loc <= pmax.tr.end) {
    BuildTree(max_, &pmax.tr, meter);
    return;
  }

  // Algorithm 1 lines 13-17: P_max is full — merge, then open a fresh P_max.
  const bool ret = Merge(max_, meter);
  if (ret) {
    ++max_;
    parts_.resize(max_ + 1);
    if (storage_ != nullptr && meter != nullptr) {
      storage_->StoreUint(chain::Slot{region_base_ + kRegionMeta, kMetaMax}, max_,
                          *meter);
    }
  }
  WriteRange(max_, true, loc, loc + m - 1, meter);
  WriteRange(max_, false, loc + m, loc + 2 * m - 1, meter);
  BuildTree(max_, &parts_[max_].tl, meter);
}

int PartitionChain::LocatePartition(Loc loc, gas::Meter* meter) const {
  if (max_ == 0) return 0;
  // Read P_max's LocTr entry (Algorithm 4 line 2).
  ReadRange(max_, false, meter);
  if (meter != nullptr) meter->ChargeMem(max_);
  uint64_t len = parts_[max_].tr.end;
  uint64_t cap = 2 * options_.m;
  for (uint64_t p = max_; p >= 1; --p) {
    if (len % cap == 0) {
      // Partition p spans two SMB-trees.
      if (loc >= len - cap + 1 && loc <= len) return static_cast<int>(p);
      len -= cap;
    } else {
      // Partition p spans a single SMB-tree.
      if (loc >= len - cap / 2 + 1 && loc <= len) return static_cast<int>(p);
      len -= cap / 2;
    }
    cap *= 2;
  }
  return 0;
}

void PartitionChain::Update(Key key, const Hash& value_hash, gas::Meter* meter) {
  TELEMETRY_SPAN("gem2.update");
  auto it = loc_by_key_.find(key);
  if (it == loc_by_key_.end()) {
    throw std::invalid_argument("PartitionChain::Update: unknown key");
  }
  // Algorithm 3 lines 1-2: rewrite value_storage, read key_map.
  const Loc loc = it->second;
  if (loc > bulked_) hash_by_loc_[loc - 1 - bulked_] = value_hash;  // P0 has none
  if (storage_ != nullptr && meter != nullptr) {
    storage_->Store(chain::Slot{region_base_ + kRegionValueStorage,
                                static_cast<uint64_t>(key)},
                    HashWord(value_hash), *meter);
    storage_->Load(chain::Slot{region_base_ + kRegionKeyMap,
                               static_cast<uint64_t>(key)},
                   *meter);
  }
  const int p = LocatePartition(loc, meter);
  if (p == 0) {
    if (!p0_->Update(key, value_hash, meter)) {
      throw std::logic_error("PartitionChain::Update: key missing from P0");
    }
    return;
  }
  Partition& part = parts_[static_cast<uint64_t>(p)];
  ReadRange(static_cast<uint64_t>(p), true, meter);
  const bool left = loc >= part.tl.start && loc <= part.tl.end;
  PartTree* t = left ? &part.tl : &part.tr;
  if (meter == nullptr && storage_ == nullptr && t->sp_cache != nullptr) {
    // SP mirror fast path: the partition tree is already materialized, so a
    // value update only needs the leaf-to-root path rehashed — O(F log N)
    // hashes instead of the full collect+sort+rebuild. Runs under the query
    // engine's exclusive lock, so no reader observes the intermediate state.
    if (t->sp_cache->UpdateValueHash(key, value_hash)) {
      WriteRoot(static_cast<uint64_t>(p), left, t->sp_cache->root_digest(), meter);
      return;
    }
  }
  BuildTree(static_cast<uint64_t>(p), t, meter);
}

void PartitionChain::AppendDigests(const std::string& prefix,
                                   std::vector<chain::DigestEntry>* out) const {
  for (uint64_t i = 1; i <= max_; ++i) {
    const Partition& p = parts_[i];
    if (Occupied(p.tl) > 0) {
      EnsureRoot(p.tl);
      out->push_back({prefix + "P" + std::to_string(i) + ".Tl", p.tl.root});
    }
    if (Occupied(p.tr) > 0) {
      EnsureRoot(p.tr);
      out->push_back({prefix + "P" + std::to_string(i) + ".Tr", p.tr.root});
    }
  }
}

void PartitionChain::EnsureRoot(const PartTree& t) const {
  std::lock_guard<std::mutex> lock(sp_mutex_);
  if (!t.root_dirty) return;
  if (t.sp_cache != nullptr) {
    // A query already materialized the tree; its root is the canonical one.
    t.root = t.sp_cache->root_digest();
    t.root_dirty = false;
    return;
  }
  // Serial canonical computation, deliberately without the pool: everything
  // happens under sp_mutex_, and a pool fan-out from inside the lock could
  // steal work that re-enters SpTree and self-deadlock.
  ads::EntryList entries = CollectEntries(t, nullptr);
  std::sort(entries.begin(), entries.end(), ads::EntryKeyLess);
  t.root = ads::CanonicalRootDigest(entries, options_.fanout, nullptr);
  t.root_dirty = false;
}

const ads::StaticTree& PartitionChain::SpTree(const PartTree& t) const {
  {
    std::lock_guard<std::mutex> lock(sp_mutex_);
    if (t.sp_cache != nullptr) return *t.sp_cache;
  }
  // Build outside the lock: the build may fan out onto the thread pool, and
  // a pool thread waiting in ParallelFor steals arbitrary queued work — work
  // that could itself call SpTree. Holding sp_mutex_ across the build would
  // make that re-entry a self-deadlock. Racing builders produce bit-identical
  // trees; the first to publish wins and the loser's copy is dropped.
  ads::EntryList entries = CollectEntries(t, nullptr);
  std::sort(entries.begin(), entries.end(), ads::EntryKeyLess);
  auto fresh =
      std::make_unique<ads::StaticTree>(std::move(entries), options_.fanout, pool_);
  std::lock_guard<std::mutex> lock(sp_mutex_);
  if (t.sp_cache == nullptr) t.sp_cache = std::move(fresh);
  return *t.sp_cache;
}

void PartitionChain::Query(Key lb, Key ub, const std::string& prefix,
                           std::vector<ads::TreeAnswer>* out) const {
  for (uint64_t i = 1; i <= max_; ++i) {
    const Partition& p = parts_[i];
    for (const bool left : {true, false}) {
      const PartTree& t = left ? p.tl : p.tr;
      if (Occupied(t) == 0) continue;
      ads::TreeAnswer answer;
      answer.label = prefix + "P" + std::to_string(i) + (left ? ".Tl" : ".Tr");
      answer.vo = SpTree(t).RangeQuery(lb, ub, &answer.result);
      out->push_back(std::move(answer));
    }
  }
}

PartitionChain::TreeInfo PartitionChain::tree_info(uint64_t partition,
                                                   bool left) const {
  TreeInfo info;
  if (partition == 0 || partition > max_) return info;
  const PartTree& t = left ? parts_[partition].tl : parts_[partition].tr;
  EnsureRoot(t);
  info.start = t.start;
  info.end = t.end;
  info.root = t.root;
  info.occupied = Occupied(t);
  if (storage_ != nullptr) info.stored_root = storage_->Peek(RootSlot(partition, left));
  return info;
}

void PartitionChain::CheckInvariants() const {
  uint64_t covered = 0;
  Loc prev_end = 0;
  for (uint64_t i = 1; i <= max_; ++i) {
    for (const bool left : {true, false}) {
      const PartTree& t = left ? parts_[i].tl : parts_[i].tr;
      if (!t.allocated()) continue;
      if (t.end < t.start) throw std::logic_error("inverted tree range");
      const uint64_t span = t.end - t.start + 1;
      if (span % options_.m != 0 || (span / options_.m) == 0 ||
          ((span / options_.m) & (span / options_.m - 1)) != 0) {
        throw std::logic_error("tree span not a power-of-two multiple of M");
      }
      if (t.start <= prev_end) {
        throw std::logic_error("partition ranges out of ascending order");
      }
      prev_end = t.end;
      // Stored root must equal the on-the-fly recomputation.
      ads::EntryList entries = CollectEntries(t, nullptr);
      std::sort(entries.begin(), entries.end(), ads::EntryKeyLess);
      const uint64_t occ = Occupied(t);
      if (occ > 0) {
        EnsureRoot(t);
        Hash expect = ads::CanonicalRootDigest(entries, options_.fanout, nullptr);
        if (expect != t.root) throw std::logic_error("stored SMB root stale");
        // A contract's part_table slot holds the root, or the placeholder
        // until its ledger entry is first observed.
        if (storage_ != nullptr) {
          const Word stored = storage_->Peek(RootSlot(i, left));
          if (stored != HashWord(t.root) && stored != kPendingRoot) {
            throw std::logic_error("part_table root slot stale");
          }
        }
      }
      covered += occ;
      // Every occupied loc must locate back to this partition.
      for (Loc loc = t.start; loc < t.start + occ; ++loc) {
        if (LocatePartition(loc, nullptr) != static_cast<int>(i)) {
          throw std::logic_error("LocatePartition disagrees with part_table");
        }
      }
    }
  }
  if (covered + bulked_ != count_) {
    throw std::logic_error("objects lost between partitions and P0");
  }
  // Locations below every partition must resolve to P0.
  for (Loc loc = 1; loc <= count_ && loc <= 4 * options_.m; ++loc) {
    bool in_partition = false;
    for (uint64_t i = 1; i <= max_ && !in_partition; ++i) {
      for (const bool left : {true, false}) {
        const PartTree& t = left ? parts_[i].tl : parts_[i].tr;
        if (t.allocated() && loc >= t.start && loc <= t.end) in_partition = true;
      }
    }
    const int located = LocatePartition(loc, nullptr);
    if (!in_partition && located != 0) {
      throw std::logic_error("LocatePartition claims a partition for a P0 loc");
    }
  }
}

}  // namespace gem2::gem2tree
