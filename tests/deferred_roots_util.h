/// \file deferred_roots_util.h
/// Shared driver for the deferred partition-root tests of the GEM2 and GEM2*
/// contracts. A seeded owner insert/update mix runs through a metered
/// Environment over several blocks and merge cascades, and everything a
/// client or the chain can observe of it is folded into FNV-1a digests:
/// receipts, sealed state roots, and every captured span's gas. Equal digests
/// before and after a change to the write path mean nothing observable moved.
#ifndef GEM2_TESTS_DEFERRED_ROOTS_UTIL_H_
#define GEM2_TESTS_DEFERRED_ROOTS_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chain/environment.h"
#include "crypto/digest.h"
#include "gem2/partition_chain.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"

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

struct OwnerMixOutcome {
  uint64_t receipts = 0;     // ok, gas_used, breakdown, op_counts of every tx
  uint64_t state_roots = 0;  // every sealed header's state root
  uint64_t spans = 0;        // name and gas of every captured span (none
                             // when telemetry is compiled out)
  size_t blocks = 0;
};

/// Runs `ops` seeded owner operations (70% inserts of fresh keys, 30% updates
/// of present ones) against `contract`, 7 transactions per block, with a
/// state-root observation mid-block every 37 ops and an authenticated read
/// (which seals) every 101. `contract` is a Gem2Contract or Gem2StarContract.
template <class OwnerContract>
OwnerMixOutcome RunOwnerMix(OwnerContract& contract, uint64_t seed, int ops) {
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.AddSink(std::make_shared<telemetry::NullSink>());  // enables capture
  chain::EnvironmentOptions options;
  options.gas_limit = 1ull << 60;
  options.txs_per_block = 7;
  options.capture_tx_trace = true;
  chain::Environment env(options);
  env.Register(&contract);

  std::mt19937_64 rng(seed);
  std::vector<Key> keys;
  Fnv receipts;
  Fnv spans;
  for (int op = 0; op < ops; ++op) {
    chain::TxReceipt r;
    if (!keys.empty() && rng() % 10 < 3) {
      const Key k = keys[rng() % keys.size()];
      const Hash vh = crypto::ValueHash("u" + std::to_string(op));
      r = env.Execute(contract, "update",
                      [&](gas::Meter& m) { contract.Update(k, vh, m); });
    } else {
      Key k;
      do {
        k = static_cast<Key>(rng() % 1'000'000);
      } while (contract.engine().Contains(k));
      keys.push_back(k);
      const Hash vh = crypto::ValueHash("v" + std::to_string(k));
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
    for (const telemetry::SpanRecord& s : r.trace) {
      spans.Mix(s.name);
      spans.Mix(s.gas);
      spans.Mix(s.self_gas);
    }
    if (op % 37 == 36) (void)env.CurrentStateRoot();
    if (op % 101 == 100) (void)env.ReadAuthenticatedState(contract.name());
  }
  env.SealBlock();
  tracer.ClearSinks();

  OwnerMixOutcome out;
  Fnv roots;
  for (const chain::BlockHeader& h : env.blockchain().headers()) roots.Mix(h.state_root);
  out.receipts = receipts.value();
  out.state_roots = roots.value();
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
