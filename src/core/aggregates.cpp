#include "core/aggregates.h"

#include <cstdlib>

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
    // The i-th result entry proves objects[i]: keep each record the shape
    // rule keeps, and demote the others' entries in place.
    std::vector<Object> kept;
    size_t next = 0;
    for (ads::VoElement& e : tree.vo.elements) {
      if (e.kind != ads::VoElement::Kind::kResult || next == tree.objects.size()) {
        continue;
      }
      Object& obj = tree.objects[next++];
      if (KeepsRecordInAggregate(obj.value)) {
        kept.push_back(std::move(obj));
      } else {
        e = ads::VoElement::Boundary(e.lo, crypto::ValueHash(obj.value));
      }
    }
    tree.objects = std::move(kept);
  }
  for (ShardSlice& slice : response->slices) StripForAggregate(&slice.response);
}

RangeAggregates AggregateBoundary(const std::vector<ads::Entry>& entries,
                                  const std::function<Key(Key)>& decode_value,
                                  uint64_t* tombstones_filtered) {
  RangeAggregates agg;
  unsigned long long sum = 0;
  for (const ads::Entry& entry : entries) {
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
