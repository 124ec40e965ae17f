/// \file engine.h
/// The complete GEM2-tree: a fully-structured MB-tree P0 plus the exponential
/// SMB partition chain (paper Section V). One engine instance serves either
/// side of the system: attach a metered storage and pass meters to run it as
/// the smart contract, or run it bare as the service provider's mirror.
#ifndef GEM2_GEM2_ENGINE_H_
#define GEM2_GEM2_ENGINE_H_

#include <string>
#include <vector>

#include "ads/query.h"
#include "chain/contract.h"
#include "gem2/options.h"
#include "gem2/partition_chain.h"
#include "mbtree/mbtree.h"

namespace gem2::gem2tree {

class Gem2Engine {
 public:
  explicit Gem2Engine(Gem2Options options = {},
                      chain::MeteredStorage* storage = nullptr,
                      uint32_t region_base = 0)
      : p0_(options.fanout), chain_(options, &p0_, storage, region_base) {}

  /// Algorithm 1.
  void Insert(Key key, const Hash& value_hash, gas::Meter* meter = nullptr) {
    chain_.Insert(key, value_hash, meter);
  }

  /// Algorithm 3.
  void Update(Key key, const Hash& value_hash, gas::Meter* meter = nullptr) {
    chain_.Update(key, value_hash, meter);
  }

  bool Contains(Key key) const { return chain_.ContainsKey(key); }
  uint64_t size() const { return chain_.total_inserted(); }

  /// VO_chain content: P0's root plus every non-empty partition tree root.
  std::vector<chain::DigestEntry> Digests() const {
    std::vector<chain::DigestEntry> out;
    out.push_back({"P0", p0_.root_digest()});
    chain_.AppendDigests("", &out);
    return out;
  }

  /// Algorithm 5: range-query P0 and every partition tree.
  std::vector<ads::TreeAnswer> Query(Key lb, Key ub) const {
    std::vector<ads::TreeAnswer> out;
    ads::TreeAnswer p0_answer;
    p0_answer.label = "P0";
    p0_answer.vo = p0_.RangeQuery(lb, ub, &p0_answer.result);
    out.push_back(std::move(p0_answer));
    chain_.Query(lb, ub, "", &out);
    return out;
  }

  const mbtree::MbTree& p0() const { return p0_; }
  const PartitionChain& partition_chain() const { return chain_; }
  PartitionChain& partition_chain() { return chain_; }

  void CheckInvariants() const {
    p0_.CheckInvariants();
    chain_.CheckInvariants();
  }

 private:
  mbtree::MbTree p0_;
  PartitionChain chain_;
};

/// The GEM2-tree smart contract (on-chain side of Fig. 4).
class Gem2Contract : public chain::Contract {
 public:
  explicit Gem2Contract(std::string name, Gem2Options options = {})
      : chain::Contract(std::move(name)), engine_(options, &storage(), 0) {
    // Ledger-maintained committed digests: the partition chain mirrors every
    // part_table root write (orders 3+ = base 1 + 2*partition), and P0 sits
    // ahead of them at order 0 — reproducing Digests() order exactly.
    chain::DigestLedger& ledger = EnableDigestLedger();
    engine_.partition_chain().AttachLedger(&ledger, "", 1);
    ledger.Set(0, "P0", engine_.p0().root_digest());
  }

  void Insert(Key key, const Hash& value_hash, gas::Meter& meter) {
    engine_.Insert(key, value_hash, &meter);
    digest_ledger()->Set(0, "P0", engine_.p0().root_digest());
  }

  void Update(Key key, const Hash& value_hash, gas::Meter& meter) {
    engine_.Update(key, value_hash, &meter);
    digest_ledger()->Set(0, "P0", engine_.p0().root_digest());
  }

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override {
    return engine_.Digests();
  }

  const Gem2Engine& engine() const { return engine_; }
  uint64_t size() const { return engine_.size(); }

 private:
  Gem2Engine engine_;
};

}  // namespace gem2::gem2tree

#endif  // GEM2_GEM2_ENGINE_H_
