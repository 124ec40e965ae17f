/// \file deferred_roots_util.h
/// Shared driver for the deferred partition-root tests of the GEM2 and GEM2*
/// contracts. A seeded owner insert/update mix runs through a metered
/// Environment over several blocks and merge cascades, and everything a
/// client or the chain can observe of it is folded into FNV-1a digests:
/// receipts, the digest lists every sealed block commits, and the gas of every
/// transaction's spans. Equal digests before and after a change to the write
/// path mean nothing observable moved. SealRecorder also lets any test check
/// each sealed state root against the independent ReferenceStateRoot.
#ifndef GEM2_TESTS_DEFERRED_ROOTS_UTIL_H_
#define GEM2_TESTS_DEFERRED_ROOTS_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "chain/environment.h"
#include "crypto/digest.h"
#include "gem2/partition_chain.h"
#include "reference_root.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"
#include "tx_trace.h"

namespace gem2::testutil {

/// FNV-1a over 64-bit values, bytes and strings.
class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Mix(const Hash& h) {
    for (uint8_t b : h) Byte(b);
  }
  void Mix(const std::string& s) {
    Mix(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  void Mix(const gas::GasBreakdown& b) {
    for (gas::Gas g : {b.sload, b.sstore, b.supdate, b.mem, b.hash, b.intrinsic}) Mix(g);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Records what every sealed block of one environment commits: the committed
/// digest list of each tracked contract as the block sealed. Call Observe()
/// after every call that may seal (Execute, SealBlock, ReadAuthenticatedState
/// each seal at most one block); after a seal nothing is pending, so the
/// observation changes neither gas nor the digests.
class SealRecorder {
 public:
  explicit SealRecorder(const chain::Environment& env) : env_(env) {}

  /// Tracks a contract from its registration on.
  void Track(std::string name,
             std::function<std::vector<chain::DigestEntry>()> committed) {
    tracked_.emplace_back(std::move(name), std::move(committed));
  }
  void Track(const chain::Contract& contract) {
    Track(contract.name(), [&contract] { return contract.CommittedDigests(); });
  }

  void Observe() {
    const size_t height = env_.blockchain().height();
    ASSERT_LE(height, sealed_.size() + 1) << "a block sealed unobserved";
    if (height == sealed_.size()) return;
    std::vector<ContractDigests> block;
    for (const auto& [name, committed] : tracked_) block.emplace_back(name, committed());
    sealed_.push_back(std::move(block));
  }

  /// FNV-1a over every sealed block's contracts (in name order), labels and
  /// digests: independent of how the state root lays them out.
  uint64_t Fold() const {
    Fnv fnv;
    for (std::vector<ContractDigests> block : sealed_) {
      std::sort(block.begin(), block.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      fnv.Mix(block.size());
      for (const auto& [name, digests] : block) {
        fnv.Mix(name);
        fnv.Mix(digests.size());
        for (const chain::DigestEntry& entry : digests) {
          fnv.Mix(entry.label);
          fnv.Mix(entry.digest);
        }
      }
    }
    return fnv.value();
  }

  /// Every sealed header's state root equals ReferenceStateRoot over what
  /// that block committed.
  void ExpectRootsMatchReference() const {
    const std::vector<chain::BlockHeader>& headers = env_.blockchain().headers();
    ASSERT_EQ(headers.size(), sealed_.size() + 1);
    for (size_t h = 1; h < headers.size(); ++h) {
      EXPECT_EQ(headers[h].state_root, ReferenceStateRoot(sealed_[h - 1]))
          << "block " << h;
    }
  }

  size_t blocks() const { return sealed_.size(); }

 private:
  const chain::Environment& env_;
  std::vector<std::pair<std::string, std::function<std::vector<chain::DigestEntry>()>>>
      tracked_;
  std::vector<std::vector<ContractDigests>> sealed_;  // [height - 1]
};

struct OwnerMixOutcome {
  uint64_t receipts = 0;     // ok, gas_used, breakdown, op_counts of every tx
  uint64_t committed = 0;    // SealRecorder::Fold of every sealed block
  uint64_t spans = 0;        // name and gas of every transaction's spans
  size_t blocks = 0;
};

/// Runs `ops` seeded owner operations (70% inserts of fresh keys, 30% updates
/// of present ones) against `contract`, 7 transactions per block, with a
/// state-root observation mid-block every 37 ops and an authenticated read
/// (which seals) every 101; every sealed state root is checked against
/// ReferenceStateRoot. `contract` is a Gem2Contract or Gem2StarContract.
template <class OwnerContract>
OwnerMixOutcome RunOwnerMix(OwnerContract& contract, uint64_t seed, int ops) {
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  auto collector = std::make_shared<telemetry::CollectorSink>();
  tracer.AddSink(collector);
  chain::EnvironmentOptions options;
  options.gas_limit = 1ull << 60;
  options.txs_per_block = 7;
  chain::Environment env(options);
  env.Register(&contract);
  SealRecorder recorder(env);
  recorder.Track(contract);

  std::mt19937_64 rng(seed);
  std::vector<Key> keys;
  Fnv receipts;
  Fnv spans;
  for (int op = 0; op < ops; ++op) {
    chain::TxReceipt r;
    if (!keys.empty() && rng() % 10 < 3) {
      const Key k = keys[rng() % keys.size()];
      const Hash vh = crypto::ValueHash("u" + std::to_string(op));
      collector->TakeSpans();  // seals, observations and key probes so far
      r = env.Execute(contract, "update",
                      [&](gas::Meter& m) { contract.Update(k, vh, m); });
    } else {
      Key k;
      do {
        k = static_cast<Key>(rng() % 1'000'000);
      } while (contract.engine().Contains(k));
      keys.push_back(k);
      const Hash vh = crypto::ValueHash("v" + std::to_string(k));
      collector->TakeSpans();  // seals, observations and key probes so far
      r = env.Execute(contract, "insert",
                      [&](gas::Meter& m) { contract.Insert(k, vh, m); });
    }
    receipts.Mix(r.ok ? 1 : 0);
    receipts.Mix(r.gas_used);
    receipts.Mix(r.breakdown);
    for (uint64_t c : {r.op_counts.sload, r.op_counts.sstore, r.op_counts.supdate,
                       r.op_counts.mem_words, r.op_counts.hash_calls,
                       r.op_counts.hash_bytes}) {
      receipts.Mix(c);
    }
    for (const telemetry::SpanRecord& s : TakeTxTrace(*collector)) {
      spans.Mix(s.name);
      spans.Mix(s.gas);
      spans.Mix(s.self_gas);
    }
    recorder.Observe();
    if (op % 37 == 36) (void)env.CurrentStateRoot();
    if (op % 101 == 100) {
      (void)env.ReadAuthenticatedState(contract.name());
      recorder.Observe();
    }
  }
  env.SealBlock();
  recorder.Observe();
  tracer.ClearSinks();
  recorder.ExpectRootsMatchReference();

  OwnerMixOutcome out;
  out.receipts = receipts.value();
  out.committed = recorder.Fold();
  out.spans = spans.value();
  out.blocks = env.blockchain().headers().size();
  return out;
}

/// Counts the occupied partition trees of `chain` whose part_table root slot
/// still holds the placeholder; every other one must hold the tree's root.
inline size_t PendingRootSlots(const gem2tree::PartitionChain& chain) {
  size_t pending = 0;
  for (uint64_t p = 1; p <= chain.max_index(); ++p) {
    for (const bool left : {true, false}) {
      const gem2tree::PartitionChain::TreeInfo info = chain.tree_info(p, left);
      if (info.occupied == 0) continue;
      if (info.stored_root == gem2tree::PartitionChain::kPendingRoot) {
        ++pending;
      } else {
        EXPECT_EQ(info.stored_root, info.root) << "P" << p << (left ? ".Tl" : ".Tr");
      }
    }
  }
  return pending;
}

}  // namespace gem2::testutil

#endif  // GEM2_TESTS_DEFERRED_ROOTS_UTIL_H_
