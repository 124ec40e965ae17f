#include "smbtree/smbtree.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/digest.h"
#include "telemetry/telemetry.h"

namespace gem2::smbtree {

namespace {

// Storage regions within the contract's storage space.
constexpr uint32_t kRegionObjects = 1;  // index -> packed object record
constexpr uint32_t kRegionRoot = 2;     // index 0 -> root digest

/// The one digest an SMB-tree commits and answers under.
constexpr const char* kRootLabel = "smbtree.root";

}  // namespace

SmbTreeContract::SmbTreeContract(std::string name, int fanout)
    : ads::AdsContract(std::move(name)),
      fanout_(fanout),
      root_(crypto::EmptyTreeDigest()) {
  // Single-entry ledger, kept current by RebuildRoot (the funnel every
  // mutation passes through).
  digest_ledger().Set(0, kRootLabel, root_);
}

void SmbTreeContract::Insert(Key key, const Hash& value_hash, gas::Meter& meter) {
  TELEMETRY_SPAN("smbtree.insert");
  if (index_of_.count(key) != 0) {
    throw std::invalid_argument("SmbTreeContract::Insert: key already present");
  }
  const size_t idx = log_.size();
  // One storage word per object record (paper's accounting; see file comment).
  storage().Store(chain::Slot{kRegionObjects, idx}, WordFromKey(key), meter);
  log_.push_back({key, value_hash});
  index_of_.emplace(key, idx);
  RebuildRoot(meter);
}

void SmbTreeContract::Update(Key key, const Hash& value_hash, gas::Meter& meter) {
  TELEMETRY_SPAN("smbtree.update");
  auto it = index_of_.find(key);
  if (it == index_of_.end()) {
    throw std::invalid_argument("SmbTreeContract::Update: unknown key");
  }
  // Rewrite the object record in place, then recompute the root.
  storage().Store(chain::Slot{kRegionObjects, it->second}, WordFromKey(key), meter);
  log_[it->second].value_hash = value_hash;
  RebuildRoot(meter);
}

void SmbTreeContract::RebuildRoot(gas::Meter& meter) {
  TELEMETRY_SPAN("smbtree.rebuild_root");
  // Load every object record from storage (1 sload each).
  ads::EntryList entries;
  entries.reserve(log_.size());
  for (size_t i = 0; i < log_.size(); ++i) {
    Word w = storage().Load(chain::Slot{kRegionObjects, i}, meter);
    Key key = KeyFromWord(w);
    entries.push_back({key, log_[i].value_hash});
  }
  // In-memory sort: N * log2(N) memory-word accesses.
  meter.ChargeSortCost(entries.size());
  std::sort(entries.begin(), entries.end(), ads::EntryKeyLess);
  // Fold the canonical tree digest, charging every hash.
  root_ = ads::CanonicalRootDigest(entries, fanout_, &meter, &leaf_cache_);
  // Rewrite the root slot (sstore the first time, supdate afterwards).
  Word w;
  std::copy(root_.begin(), root_.end(), w.begin());
  storage().Store(chain::Slot{kRegionRoot, 0}, w, meter);
  digest_ledger().Set(0, kRootLabel, root_);
}

void SmbTreeContract::SeedUnmetered(const ads::EntryList& entries) {
  gas::Meter free_meter(gas::kEthereumSchedule, ~0ull);
  for (const ads::Entry& e : entries) {
    if (!index_of_.emplace(e.key, log_.size()).second) {
      throw std::invalid_argument("SeedUnmetered: duplicate key");
    }
    storage().Store(chain::Slot{kRegionObjects, log_.size()}, WordFromKey(e.key),
                    free_meter);
    log_.push_back(e);
  }
  RebuildRoot(free_meter);
}

std::vector<chain::DigestEntry> SmbTreeContract::AuthenticatedDigests() const {
  return {{kRootLabel, root_}};
}

SmbTreeMirror::SmbTreeMirror(int fanout) : fanout_(fanout) {}

void SmbTreeMirror::Insert(Key key, const Hash& value_hash) {
  auto pos = std::lower_bound(entries_.begin(), entries_.end(), key,
                              [](const ads::Entry& e, Key k) { return e.key < k; });
  if (pos != entries_.end() && pos->key == key) {
    throw std::invalid_argument("SmbTreeMirror::Insert: key already present");
  }
  entries_.insert(pos, {key, value_hash});
  cache_.reset();
}

void SmbTreeMirror::Update(Key key, const Hash& value_hash) {
  auto pos = std::lower_bound(entries_.begin(), entries_.end(), key,
                              [](const ads::Entry& e, Key k) { return e.key < k; });
  if (pos == entries_.end() || pos->key != key) {
    throw std::invalid_argument("SmbTreeMirror::Update: unknown key");
  }
  pos->value_hash = value_hash;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_ != nullptr && !cache_->UpdateValueHash(key, value_hash)) {
    cache_.reset();  // key missing from the cached tree: rebuild lazily
  }
}

const ads::StaticTree& SmbTreeMirror::Tree() const {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cache_ != nullptr) return *cache_;
  }
  // Built outside the lock (see PartitionChain::SpTree); racing builds are
  // bit-identical.
  auto fresh = std::make_unique<ads::StaticTree>(entries_, fanout_);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_ == nullptr) cache_ = std::move(fresh);
  return *cache_;
}

Hash SmbTreeMirror::root_digest() const { return Tree().root_digest(); }

ads::TreeVo SmbTreeMirror::RangeQuery(Key lb, Key ub, ads::EntryList* result) const {
  return Tree().RangeQuery(lb, ub, result);
}

ads::RangeAnswer SmbTreeMirror::Query(Key lb, Key ub) const {
  ads::RangeAnswer answer;
  ads::TreeAnswer& tree = answer.trees.emplace_back();
  tree.label = kRootLabel;
  tree.vo = RangeQuery(lb, ub, &tree.result);
  return answer;
}

std::vector<chain::DigestEntry> SmbTreeMirror::Digests() const {
  return {{kRootLabel, root_digest()}};
}

}  // namespace gem2::smbtree
