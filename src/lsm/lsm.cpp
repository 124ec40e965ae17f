#include "lsm/lsm.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "crypto/digest.h"
#include "telemetry/telemetry.h"

namespace gem2::lsm {
namespace {

// Storage layout: level i occupies region (kRegionLevelBase + i); slot j holds
// the j-th record of the level's sorted run. Region kRegionRoots slot i holds
// level i's root digest.
constexpr uint32_t kRegionRoots = 1;
constexpr uint32_t kRegionLevelBase = 16;

Word RootWord(const Hash& h) {
  Word w;
  std::copy(h.begin(), h.end(), w.begin());
  return w;
}

/// Merges two sorted runs (keys are globally unique).
ads::EntryList MergeRuns(const ads::EntryList& a, const ads::EntryList& b) {
  ads::EntryList out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             ads::EntryKeyLess);
  return out;
}

/// The digest label of level i, on both sides.
std::string LevelLabel(size_t i) { return "lsm.L" + std::to_string(i); }

size_t LowerBoundPos(const ads::EntryList& entries, Key key) {
  auto it = std::lower_bound(entries.begin(), entries.end(), key,
                             [](const ads::Entry& e, Key k) { return e.key < k; });
  return static_cast<size_t>(it - entries.begin());
}

}  // namespace

LsmTreeContract::LsmTreeContract(std::string name, LsmOptions options)
    : ads::AdsContract(std::move(name)), options_(options) {
  levels_.push_back({{}, crypto::EmptyTreeDigest()});
  // Ledger-maintained committed digests: level i at order i, kept current by
  // RefreshRoot (every level mutation funnels through it).
  digest_ledger().Set(0, LevelLabel(0), levels_[0].root);
}

void LsmTreeContract::RefreshRoot(size_t i, gas::Meter& meter) {
  TELEMETRY_SPAN("lsm.refresh_root");
  Level& level = levels_[i];
  // Load the level's records to recompute its digest.
  for (size_t j = 0; j < level.entries.size(); ++j) {
    storage().Load(chain::Slot{kRegionLevelBase + static_cast<uint32_t>(i), j}, meter);
  }
  level.root =
      ads::CanonicalRootDigest(level.entries, options_.fanout, &meter, &leaf_cache_);
  storage().Store(chain::Slot{kRegionRoots, i}, RootWord(level.root), meter);
  digest_ledger().Set(i, LevelLabel(i), level.root);
}

void LsmTreeContract::Insert(Key key, const Hash& value_hash, gas::Meter& meter) {
  TELEMETRY_SPAN("lsm.insert");
  if (level_of_.count(key) != 0) {
    throw std::invalid_argument("LsmTreeContract::Insert: key already present");
  }
  Level& l0 = levels_[0];
  // Binary-search the insert position (one sload per probe).
  meter.ChargeSload(l0.entries.empty()
                        ? 1
                        : (64 - static_cast<uint64_t>(
                                    std::countl_zero(l0.entries.size()))));
  const size_t pos = LowerBoundPos(l0.entries, key);
  // Keep the run sorted in place: every record from `pos` onward shifts one
  // slot right. The tail lands in a fresh slot (sstore); the rest are
  // overwrites (supdates).
  const size_t n0 = l0.entries.size();
  storage().Store(chain::Slot{kRegionLevelBase, n0}, WordFromKey(key), meter);
  if (n0 > pos) meter.ChargeSupdate(n0 - pos);
  l0.entries.insert(l0.entries.begin() + pos, {key, value_hash});
  level_of_.emplace(key, 0);
  ++size_;

  RefreshRoot(0, meter);

  if (l0.entries.size() > Capacity(0)) MergeDown(0, meter);
}

void LsmTreeContract::MergeDown(size_t i, gas::Meter& meter) {
  TELEMETRY_SPAN("lsm.merge_down");
  if (i + 1 >= levels_.size()) {
    levels_.push_back({{}, crypto::EmptyTreeDigest()});
  }
  Level& src = levels_[i];
  Level& dst = levels_[i + 1];

  // Load both runs.
  meter.ChargeSload(src.entries.size() + dst.entries.size());
  ads::EntryList merged = MergeRuns(src.entries, dst.entries);
  meter.ChargeSortCost(merged.size());

  // Write the merged run into the destination region: the first |dst| slots
  // are overwrites, the rest are fresh.
  const uint32_t dst_region = kRegionLevelBase + static_cast<uint32_t>(i + 1);
  for (size_t j = 0; j < merged.size(); ++j) {
    storage().Store(chain::Slot{dst_region, j}, WordFromKey(merged[j].key), meter);
  }
  // Discard the source run (zero-stores, charged as updates).
  const uint32_t src_region = kRegionLevelBase + static_cast<uint32_t>(i);
  for (size_t j = 0; j < src.entries.size(); ++j) {
    storage().Store(chain::Slot{src_region, j}, chain::kZeroWord, meter);
  }

  for (const ads::Entry& e : src.entries) level_of_[e.key] = i + 1;
  dst.entries = std::move(merged);
  src.entries.clear();

  RefreshRoot(i, meter);
  RefreshRoot(i + 1, meter);

  if (dst.entries.size() > Capacity(i + 1)) MergeDown(i + 1, meter);
}

void LsmTreeContract::Update(Key key, const Hash& value_hash, gas::Meter& meter) {
  TELEMETRY_SPAN("lsm.update");
  auto it = level_of_.find(key);
  if (it == level_of_.end()) {
    throw std::invalid_argument("LsmTreeContract::Update: unknown key");
  }
  const size_t i = it->second;
  Level& level = levels_[i];
  meter.ChargeSload(64 - static_cast<uint64_t>(std::countl_zero(level.entries.size())));
  const size_t pos = LowerBoundPos(level.entries, key);
  level.entries[pos].value_hash = value_hash;
  storage().Store(chain::Slot{kRegionLevelBase + static_cast<uint32_t>(i), pos},
                  WordFromKey(key), meter);
  RefreshRoot(i, meter);
}

std::vector<chain::DigestEntry> LsmTreeContract::AuthenticatedDigests() const {
  std::vector<chain::DigestEntry> out;
  out.reserve(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    out.push_back({LevelLabel(i), levels_[i].root});
  }
  return out;
}

const ads::StaticTree& LsmMirror::Level::Tree(int fanout) const {
  if (cache == nullptr) cache = std::make_unique<ads::StaticTree>(entries, fanout);
  return *cache;
}

LsmMirror::LsmMirror(LsmOptions options) : options_(options) {
  levels_.emplace_back();
}

void LsmMirror::Insert(Key key, const Hash& value_hash) {
  if (level_of_.count(key) != 0) {
    throw std::invalid_argument("LsmMirror::Insert: key already present");
  }
  Level& l0 = levels_[0];
  const size_t pos = LowerBoundPos(l0.entries, key);
  l0.entries.insert(l0.entries.begin() + pos, {key, value_hash});
  l0.cache.reset();
  level_of_.emplace(key, 0);
  ++size_;
  if (l0.entries.size() > (options_.level0_capacity << 0)) MergeDown(0);
}

void LsmMirror::MergeDown(size_t i) {
  if (i + 1 >= levels_.size()) levels_.emplace_back();
  Level& src = levels_[i];
  Level& dst = levels_[i + 1];
  dst.entries = MergeRuns(src.entries, dst.entries);
  for (const ads::Entry& e : src.entries) level_of_[e.key] = i + 1;
  src.entries.clear();
  src.cache.reset();
  dst.cache.reset();
  if (dst.entries.size() > (options_.level0_capacity << (i + 1))) MergeDown(i + 1);
}

void LsmMirror::Update(Key key, const Hash& value_hash) {
  auto it = level_of_.find(key);
  if (it == level_of_.end()) {
    throw std::invalid_argument("LsmMirror::Update: unknown key");
  }
  Level& level = levels_[it->second];
  const size_t pos = LowerBoundPos(level.entries, key);
  level.entries[pos].value_hash = value_hash;
  // A materialized level only needs its leaf-to-root path rehashed — value
  // updates never change the level's entry set, so the tree shape is stable.
  if (level.cache != nullptr && !level.cache->UpdateValueHash(key, value_hash)) {
    level.cache.reset();
  }
}

const ads::StaticTree& LsmMirror::MaterializedTree(size_t i) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return levels_[i].Tree(options_.fanout);
}

Hash LsmMirror::level_root(size_t i) const {
  return MaterializedTree(i).root_digest();
}

ads::TreeVo LsmMirror::RangeQuery(size_t i, Key lb, Key ub,
                                  ads::EntryList* result) const {
  return MaterializedTree(i).RangeQuery(lb, ub, result);
}

ads::RangeAnswer LsmMirror::Query(Key lb, Key ub) const {
  ads::RangeAnswer answer;
  for (size_t i = 0; i < levels_.size(); ++i) {
    ads::TreeAnswer& tree = answer.trees.emplace_back();
    tree.label = LevelLabel(i);
    tree.vo = RangeQuery(i, lb, ub, &tree.result);
  }
  return answer;
}

std::vector<chain::DigestEntry> LsmMirror::Digests() const {
  std::vector<chain::DigestEntry> out;
  out.reserve(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    out.push_back({LevelLabel(i), level_root(i)});
  }
  return out;
}

}  // namespace gem2::lsm
