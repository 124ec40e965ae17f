/// \file engine.h
/// The complete GEM2-tree: a fully-structured MB-tree P0 plus the exponential
/// SMB partition chain (paper Section V). One engine instance serves either
/// side of the system: attach a metered storage and pass meters to run it as
/// the smart contract, or run it bare as the service provider's mirror.
#ifndef GEM2_GEM2_ENGINE_H_
#define GEM2_GEM2_ENGINE_H_

#include <string>
#include <vector>

#include "ads/interface.h"
#include "gem2/options.h"
#include "gem2/partition_chain.h"
#include "mbtree/mbtree.h"

namespace gem2::gem2tree {

/// As an ads::AdsMirror, the SP twin of Gem2Contract.
class Gem2Engine : public ads::AdsMirror {
 public:
  explicit Gem2Engine(Gem2Options options = {},
                      chain::MeteredStorage* storage = nullptr,
                      uint32_t region_base = 0)
      : p0_(options.fanout), chain_(options, &p0_, storage, region_base) {}

  /// Algorithm 1. `meter` null runs unmetered (the SP side).
  void Insert(Key key, const Hash& value_hash, gas::Meter* meter) {
    chain_.Insert(key, value_hash, meter);
  }
  void Insert(Key key, const Hash& value_hash) override {
    Insert(key, value_hash, nullptr);
  }

  /// Algorithm 3.
  void Update(Key key, const Hash& value_hash, gas::Meter* meter) {
    chain_.Update(key, value_hash, meter);
  }
  void Update(Key key, const Hash& value_hash) override {
    Update(key, value_hash, nullptr);
  }

  bool Contains(Key key) const { return chain_.ContainsKey(key); }
  uint64_t size() const { return chain_.total_inserted(); }

  /// VO_chain content: P0's root plus every non-empty partition tree root.
  std::vector<chain::DigestEntry> Digests() const override {
    std::vector<chain::DigestEntry> out;
    out.push_back({"P0", p0_.root_digest()});
    chain_.AppendDigests("", &out);
    return out;
  }

  /// Algorithm 5: range-query P0 and every partition tree.
  ads::RangeAnswer Query(Key lb, Key ub) const override {
    ads::RangeAnswer out;
    ads::TreeAnswer& p0_answer = out.trees.emplace_back();
    p0_answer.label = "P0";
    p0_answer.vo = p0_.RangeQuery(lb, ub, &p0_answer.result);
    chain_.Query(lb, ub, "", &out.trees);
    return out;
  }

  const mbtree::MbTree& p0() const { return p0_; }
  const PartitionChain& partition_chain() const { return chain_; }
  PartitionChain& partition_chain() { return chain_; }

  void CheckInvariants() const override {
    p0_.CheckInvariants();
    chain_.CheckInvariants();
  }

 private:
  mbtree::MbTree p0_;
  PartitionChain chain_;
};

/// The GEM2-tree smart contract (on-chain side of Fig. 4).
class Gem2Contract : public ads::AdsContract {
 public:
  explicit Gem2Contract(std::string name, Gem2Options options = {})
      : ads::AdsContract(std::move(name)), engine_(options, &storage(), 0) {
    // Ledger-maintained committed digests: the partition chain mirrors every
    // part_table root write (orders 3+ = base 1 + 2*partition), and P0 sits
    // ahead of them at order 0 — reproducing Digests() order exactly.
    engine_.partition_chain().AttachLedger(&digest_ledger(), "", 1);
    digest_ledger().Set(0, "P0", engine_.p0().root_digest());
  }

  void Insert(Key key, const Hash& value_hash, gas::Meter& meter) override {
    engine_.Insert(key, value_hash, &meter);
    digest_ledger().Set(0, "P0", engine_.p0().root_digest());
  }

  void Update(Key key, const Hash& value_hash, gas::Meter& meter) override {
    engine_.Update(key, value_hash, &meter);
    digest_ledger().Set(0, "P0", engine_.p0().root_digest());
  }

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override {
    return engine_.Digests();
  }

  void CheckInvariants() const override { engine_.CheckInvariants(); }

  const Gem2Engine& engine() const { return engine_; }
  uint64_t size() const { return engine_.size(); }

 private:
  Gem2Engine engine_;
};

}  // namespace gem2::gem2tree

#endif  // GEM2_GEM2_ENGINE_H_
