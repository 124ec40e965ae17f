/// \file contract.h
/// The baseline on-chain ADS of Section IV-A: a fully materialized Merkle
/// B-tree maintained by the smart contract, gas-metered per the paper's
/// MB-tree cost model. The root digest is the contract's VO_chain.
#ifndef GEM2_MBTREE_CONTRACT_H_
#define GEM2_MBTREE_CONTRACT_H_

#include <string>
#include <vector>

#include "ads/interface.h"
#include "gas/meter.h"
#include "mbtree/mbtree.h"

namespace gem2::mbtree {

/// Its ads::AdsMirror twin is a bare MbTree (mbtree.h).
class MbTreeContract : public ads::AdsContract {
 public:
  explicit MbTreeContract(std::string name, int fanout = MbTree::kDefaultFanout)
      : ads::AdsContract(std::move(name)), tree_(fanout) {
    digest_ledger().Set(0, kRootLabel, tree_.root_digest());
  }

  /// Inserts a fresh object (key must be new).
  void Insert(Key key, const Hash& value_hash, gas::Meter& meter) override {
    tree_.Insert(key, value_hash, &meter);
    digest_ledger().Set(0, kRootLabel, tree_.root_digest());
  }

  /// Updates an existing object's value hash.
  void Update(Key key, const Hash& value_hash, gas::Meter& meter) override {
    if (!tree_.Update(key, value_hash, &meter)) {
      throw std::invalid_argument("MbTreeContract::Update: unknown key");
    }
    digest_ledger().Set(0, kRootLabel, tree_.root_digest());
  }

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override {
    return tree_.Digests();
  }

  void CheckInvariants() const override { tree_.CheckInvariants(); }

  size_t size() const { return tree_.size(); }

 private:
  MbTree tree_;
};

}  // namespace gem2::mbtree

#endif  // GEM2_MBTREE_CONTRACT_H_
