#include "core/aggregates.h"

#include <cstdlib>
#include <unordered_map>

#include "crypto/digest.h"
#include "core/tombstone.h"

namespace gem2::core {
namespace {

std::optional<long long> ParseNumeric(const std::string& value) {
  if (value.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) return std::nullopt;
  return parsed;
}

/// Demotes every result entry reachable from `child` whose key `hashes`
/// lists to a boundary entry carrying that explicit value hash.
void DemoteChild(ads::VoChild* child,
                 const std::unordered_map<Key, Hash>& hashes) {
  if (auto* entry = std::get_if<ads::VoEntry>(child)) {
    if (!entry->is_result) return;
    auto it = hashes.find(entry->key);
    if (it == hashes.end()) return;  // a kept record
    entry->value_hash = it->second;
    entry->is_result = false;
    return;
  }
  if (auto* node = std::get_if<ads::VoNodePtr>(child)) {
    for (ads::VoChild& c : (*node)->children) DemoteChild(&c, hashes);
  }
}

const Hash& TombstoneHash() {
  static const Hash hash = crypto::ValueHash(TombstoneValue());
  return hash;
}

}  // namespace

std::optional<RangeAggregates> Aggregate(const VerifiedSpecResult& result) {
  if (!result.ok) return std::nullopt;
  RangeAggregates agg;
  agg.count = result.objects.size();
  long long sum = 0;
  bool all_numeric = true;
  for (const Object& obj : result.objects) {
    if (!agg.min_key || obj.key < *agg.min_key) agg.min_key = obj.key;
    if (!agg.max_key || obj.key > *agg.max_key) agg.max_key = obj.key;
    if (all_numeric) {
      if (auto v = ParseNumeric(obj.value)) {
        sum += *v;
      } else {
        all_numeric = false;
      }
    }
  }
  if (all_numeric && agg.count > 0) agg.sum = sum;
  return agg;
}

bool KeepsRecordInAggregate(const std::string& value) {
  // varint(|value|) + value <= 32 bytes: the length varint is one byte for
  // any value shorter than 128, so this is |value| + 1 <= 32.
  return value.size() < sizeof(Hash);
}

void StripForAggregate(QueryResponse* response) {
  for (TreeResultSet& tree : response->trees) {
    std::unordered_map<Key, Hash> hashes;
    std::vector<Object> kept;
    for (Object& obj : tree.objects) {
      if (KeepsRecordInAggregate(obj.value)) {
        kept.push_back(std::move(obj));
      } else {
        hashes.emplace(obj.key, crypto::ValueHash(obj.value));
      }
    }
    if (tree.vo.root.has_value() && !hashes.empty()) {
      DemoteChild(&*tree.vo.root, hashes);
    }
    tree.objects = std::move(kept);
  }
  for (ShardSlice& slice : response->slices) StripForAggregate(&slice.response);
}

RangeAggregates AggregateBoundary(const std::vector<ads::VoEntry>& entries,
                                  const std::function<Key(Key)>& decode_value,
                                  uint64_t* tombstones_filtered) {
  RangeAggregates agg;
  unsigned long long sum = 0;
  for (const ads::VoEntry& entry : entries) {
    if (entry.value_hash == TombstoneHash()) {
      if (tombstones_filtered != nullptr) ++*tombstones_filtered;
      continue;
    }
    const Key value = decode_value ? decode_value(entry.key) : entry.key;
    ++agg.count;
    if (!agg.min_key || value < *agg.min_key) agg.min_key = value;
    if (!agg.max_key || value > *agg.max_key) agg.max_key = value;
    sum += static_cast<unsigned long long>(value);
  }
  if (agg.count > 0) agg.sum = static_cast<long long>(sum);
  return agg;
}

}  // namespace gem2::core
