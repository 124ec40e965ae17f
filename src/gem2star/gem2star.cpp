#include "gem2star/gem2star.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "crypto/keccak.h"
#include "telemetry/telemetry.h"

namespace gem2::gem2star {
namespace {

/// Each region's chain gets a disjoint block of storage regions. A chain uses
/// 5 regions internally; we space them by 8 for clarity.
constexpr uint32_t kRegionsPerChain = 8;
/// Region ids below this are reserved for the upper level.
constexpr uint32_t kChainRegionBase = 16;

}  // namespace

Hash UpperLevelDigest(const std::vector<Key>& split_points) {
  crypto::Keccak256Hasher h;
  h.Update(std::string("GEM2STAR_UPPER"));
  for (Key k : split_points) h.UpdateKey(k);
  return h.Finalize();
}

Gem2StarEngine::Gem2StarEngine(Gem2Options options, std::vector<Key> split_points,
                               chain::MeteredStorage* storage)
    : options_(options),
      split_points_(std::move(split_points)),
      storage_(storage),
      p0_(options.fanout) {
  for (size_t i = 1; i < split_points_.size(); ++i) {
    if (split_points_[i - 1] >= split_points_[i]) {
      throw std::invalid_argument("split points must be strictly ascending");
    }
  }
  const size_t num_regions = split_points_.size() + 1;
  chains_.reserve(num_regions);
  for (size_t r = 0; r < num_regions; ++r) {
    chains_.push_back(std::make_unique<gem2tree::PartitionChain>(
        options_, &p0_, storage_,
        kChainRegionBase + static_cast<uint32_t>(r) * kRegionsPerChain));
  }
}

size_t Gem2StarEngine::RegionOf(Key key, gas::Meter* meter) const {
  TELEMETRY_SPAN("gem2star.locate_region");
  if (meter != nullptr && !split_points_.empty()) {
    // Binary search over the stored split points: one sload per probe.
    meter->ChargeSload(64 - static_cast<uint64_t>(
                                std::countl_zero(split_points_.size())));
  }
  auto it = std::upper_bound(split_points_.begin(), split_points_.end(), key);
  return static_cast<size_t>(it - split_points_.begin());
}

void Gem2StarEngine::Insert(Key key, const Hash& value_hash, gas::Meter* meter) {
  TELEMETRY_SPAN("gem2star.insert");
  chains_[RegionOf(key, meter)]->Insert(key, value_hash, meter);
}

void Gem2StarEngine::Update(Key key, const Hash& value_hash, gas::Meter* meter) {
  TELEMETRY_SPAN("gem2star.update");
  chains_[RegionOf(key, meter)]->Update(key, value_hash, meter);
}

bool Gem2StarEngine::Contains(Key key) const {
  return chains_[RegionOf(key)]->ContainsKey(key);
}

uint64_t Gem2StarEngine::size() const {
  uint64_t total = 0;
  for (const auto& c : chains_) total += c->total_inserted();
  return total;
}

std::vector<chain::DigestEntry> Gem2StarEngine::Digests() const {
  std::vector<chain::DigestEntry> out;
  out.push_back({"upper", UpperLevelDigest(split_points_)});
  out.push_back({"P0", p0_.root_digest()});
  for (size_t r = 0; r < chains_.size(); ++r) {
    chains_[r]->AppendDigests("R" + std::to_string(r) + ".", &out);
  }
  return out;
}

std::vector<size_t> Gem2StarEngine::RegionsOverlapping(Key lb, Key ub) const {
  const size_t li = RegionOf(lb);
  const size_t ui = RegionOf(ub);
  std::vector<size_t> regions;
  for (size_t r = li; r <= ui; ++r) regions.push_back(r);
  return regions;
}

ads::RangeAnswer Gem2StarEngine::Query(Key lb, Key ub) const {
  ads::RangeAnswer out;
  ads::TreeAnswer& p0_answer = out.trees.emplace_back();
  p0_answer.label = "P0";
  p0_answer.vo = p0_.RangeQuery(lb, ub, &p0_answer.result);
  for (size_t r : RegionsOverlapping(lb, ub)) {
    chains_[r]->Query(lb, ub, "R" + std::to_string(r) + ".", &out.trees);
  }
  out.upper_splits = split_points_;
  return out;
}

void Gem2StarEngine::CheckInvariants() const {
  p0_.CheckInvariants();
  for (const auto& c : chains_) c->CheckInvariants();
}

}  // namespace gem2::gem2star
