/// \file gem2star.h
/// The optimized GEM2*-tree (paper Section VI): an upper-level index that
/// splits the search-key domain into non-overlapping regions, a lower-level
/// GEM2 partition chain per region, and a *single* fully-structured MB-tree
/// P0 shared by all regions.
///
/// Maintenance (Section VI-A): locate the region by binary search over the
/// split points (charged as log2(R) sloads), then run the ordinary GEM2
/// insert/update inside that region's chain. Queries (Algorithm 7) binary-
/// search the regions overlapping [lb, ub] and fan out only into those.
///
/// The upper level itself is authenticated: VO_chain carries
/// H(split points), and the SP ships the split points with each response so
/// the client can re-derive which regions had to be queried (Algorithm 8).
#ifndef GEM2_GEM2STAR_GEM2STAR_H_
#define GEM2_GEM2STAR_GEM2STAR_H_

#include <memory>
#include <string>
#include <vector>

#include "ads/interface.h"
#include "gem2/options.h"
#include "gem2/partition_chain.h"
#include "mbtree/mbtree.h"

namespace gem2::gem2star {

using gem2tree::Gem2Options;

/// Digest binding the upper-level split points into VO_chain.
Hash UpperLevelDigest(const std::vector<Key>& split_points);

/// As an ads::AdsMirror, the SP twin of Gem2StarContract.
class Gem2StarEngine : public ads::AdsMirror {
 public:
  /// `split_points`: strictly ascending keys s_1 < ... < s_{R-1} defining R
  /// regions; region r (0-based) holds keys in [s_r, s_{r+1}) with s_0 = -inf
  /// and s_R = +inf. For maximum benefit choose quantiles of the expected key
  /// distribution (paper Section VI-A).
  explicit Gem2StarEngine(Gem2Options options = {},
                          std::vector<Key> split_points = {},
                          chain::MeteredStorage* storage = nullptr);

  /// Region index responsible for `key`; charges the upper-level binary
  /// search (log2 R sloads) when metered.
  size_t RegionOf(Key key, gas::Meter* meter = nullptr) const;

  /// `meter` null runs unmetered (the SP side).
  void Insert(Key key, const Hash& value_hash, gas::Meter* meter);
  void Insert(Key key, const Hash& value_hash) override {
    Insert(key, value_hash, nullptr);
  }
  void Update(Key key, const Hash& value_hash, gas::Meter* meter);
  void Update(Key key, const Hash& value_hash) override {
    Update(key, value_hash, nullptr);
  }

  bool Contains(Key key) const;
  uint64_t size() const;
  size_t num_regions() const { return chains_.size(); }
  const std::vector<Key>& split_points() const { return split_points_; }

  /// VO_chain content: "upper" (split-point digest), "P0", and per-region
  /// partition tree roots labelled "R<r>.P<i>.Tl/Tr".
  std::vector<chain::DigestEntry> Digests() const override;

  /// Algorithm 7: query P0 plus each region overlapping [lb, ub]; the answer
  /// carries the split points the client re-derives those regions from.
  ads::RangeAnswer Query(Key lb, Key ub) const override;

  /// Labels of regions a correct SP must cover for [lb, ub] ("R<r>." prefix
  /// list); used by the client-side verifier (Algorithm 8).
  std::vector<size_t> RegionsOverlapping(Key lb, Key ub) const;

  const mbtree::MbTree& p0() const { return p0_; }
  const gem2tree::PartitionChain& region_chain(size_t r) const { return *chains_[r]; }

  /// Contract side only: routes every region chain's part_table root writes
  /// into `ledger`. Region r gets order base 2 + (r << 32) so regions stay
  /// in ascending order behind "upper" (0) and "P0" (1), matching Digests().
  void AttachLedger(chain::DigestLedger* ledger) {
    for (size_t r = 0; r < chains_.size(); ++r) {
      chains_[r]->AttachLedger(ledger, "R" + std::to_string(r) + ".",
                               2 + (static_cast<uint64_t>(r) << 32));
    }
  }

  void CheckInvariants() const override;

 private:
  Gem2Options options_;
  std::vector<Key> split_points_;
  chain::MeteredStorage* storage_;
  mbtree::MbTree p0_;
  std::vector<std::unique_ptr<gem2tree::PartitionChain>> chains_;
};

/// The GEM2*-tree smart contract.
class Gem2StarContract : public ads::AdsContract {
 public:
  Gem2StarContract(std::string name, Gem2Options options,
                   std::vector<Key> split_points)
      : ads::AdsContract(std::move(name)),
        engine_(options, std::move(split_points), &storage()) {
    engine_.AttachLedger(&digest_ledger());
    // The split points are immutable, so "upper" is written exactly once.
    digest_ledger().Set(0, "upper", UpperLevelDigest(engine_.split_points()));
    digest_ledger().Set(1, "P0", engine_.p0().root_digest());
  }

  void Insert(Key key, const Hash& value_hash, gas::Meter& meter) override {
    engine_.Insert(key, value_hash, &meter);
    digest_ledger().Set(1, "P0", engine_.p0().root_digest());
  }

  void Update(Key key, const Hash& value_hash, gas::Meter& meter) override {
    engine_.Update(key, value_hash, &meter);
    digest_ledger().Set(1, "P0", engine_.p0().root_digest());
  }

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override {
    return engine_.Digests();
  }

  void CheckInvariants() const override { engine_.CheckInvariants(); }

  const Gem2StarEngine& engine() const { return engine_; }
  uint64_t size() const { return engine_.size(); }

 private:
  Gem2StarEngine engine_;
};

}  // namespace gem2::gem2star

#endif  // GEM2_GEM2STAR_GEM2STAR_H_
