// Chain substrate tests: metered storage semantics and journaling, block
// headers, PoW, header-chain checks by a light client, the sealed tx_root,
// the execution environment's transaction handling (including out-of-gas
// rollback), and authenticated state proofs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "chain/blockchain.h"
#include "chain/contract.h"
#include "chain/environment.h"
#include "chain/light_client.h"
#include "chain/storage.h"
#include "crypto/digest.h"
#include "gem2/partition_chain.h"

namespace gem2::chain {
namespace {

// --- MeteredStorage ----------------------------------------------------------

TEST(Storage, LoadOfEmptySlotChargesAndReturnsZero) {
  MeteredStorage storage;
  gas::Meter meter;
  EXPECT_EQ(storage.Load({1, 7}, meter), kZeroWord);
  EXPECT_EQ(meter.op_counts().sload, 1u);
}

TEST(Storage, StoreChargesSstoreThenSupdate) {
  MeteredStorage storage;
  gas::Meter meter;
  storage.Store({1, 0}, WordFromUint64(5), meter);
  EXPECT_EQ(meter.op_counts().sstore, 1u);
  EXPECT_EQ(meter.op_counts().supdate, 0u);
  storage.Store({1, 0}, WordFromUint64(6), meter);
  EXPECT_EQ(meter.op_counts().supdate, 1u);
  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 0})), 6u);
}

TEST(Storage, ZeroStoreClearsSlot) {
  MeteredStorage storage;
  gas::Meter meter;
  storage.Store({1, 0}, WordFromUint64(5), meter);
  EXPECT_TRUE(storage.Contains({1, 0}));
  storage.Store({1, 0}, kZeroWord, meter);
  EXPECT_FALSE(storage.Contains({1, 0}));
  // Re-storing is an sstore again (slot is empty).
  storage.Store({1, 0}, WordFromUint64(7), meter);
  EXPECT_EQ(meter.op_counts().sstore, 2u);
}

TEST(Storage, RegionsAreIndependent) {
  MeteredStorage storage;
  gas::Meter meter;
  storage.Store({1, 42}, WordFromUint64(1), meter);
  storage.Store({2, 42}, WordFromUint64(2), meter);
  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 42})), 1u);
  EXPECT_EQ(Uint64FromWord(storage.Peek({2, 42})), 2u);
  EXPECT_EQ(storage.NumSlots(), 2u);
}

TEST(Storage, RollbackRestoresPriorState) {
  MeteredStorage storage;
  gas::Meter meter;
  storage.Store({1, 0}, WordFromUint64(1), meter);

  storage.BeginTx();
  storage.Store({1, 0}, WordFromUint64(99), meter);   // overwrite
  storage.Store({1, 1}, WordFromUint64(2), meter);    // create
  storage.Store({1, 0}, kZeroWord, meter);            // clear
  storage.RollbackTx();

  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 0})), 1u);
  EXPECT_FALSE(storage.Contains({1, 1}));
}

TEST(Storage, CommitKeepsChanges) {
  MeteredStorage storage;
  gas::Meter meter;
  storage.BeginTx();
  storage.Store({1, 0}, WordFromUint64(11), meter);
  storage.CommitTx();
  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 0})), 11u);
}

TEST(Storage, TransactionBracketingErrors) {
  MeteredStorage storage;
  EXPECT_THROW(storage.CommitTx(), std::logic_error);
  EXPECT_THROW(storage.RollbackTx(), std::logic_error);
  storage.BeginTx();
  EXPECT_THROW(storage.BeginTx(), std::logic_error);
  storage.CommitTx();
}

TEST(Storage, FingerprintIsOrderIndependentAndRollbackStable) {
  MeteredStorage a;
  MeteredStorage b;
  gas::Meter meter;
  a.Store({1, 0}, WordFromUint64(1), meter);
  a.Store({2, 9}, WordFromUint64(2), meter);
  b.Store({2, 9}, WordFromUint64(2), meter);
  b.Store({1, 0}, WordFromUint64(1), meter);
  // The fingerprint commits to contents, not write history.
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  const Hash before = a.Fingerprint();
  a.BeginTx();
  a.Store({1, 0}, WordFromUint64(5), meter);
  a.Store({4, 4}, WordFromUint64(6), meter);
  EXPECT_NE(a.Fingerprint(), before);
  a.RollbackTx();
  EXPECT_EQ(a.Fingerprint(), before);

  b.Store({1, 0}, kZeroWord, meter);  // clearing a slot changes the content
  EXPECT_NE(b.Fingerprint(), before);
}

TEST(Storage, RollbackOfRepeatedWritesAcrossRehashRestoresFingerprint) {
  // Every in-tx write is journaled, so one slot written many times has many
  // undo records, and the oldest must win; a rehash in the middle of the tx
  // (forced by fresh slots) moves entries but not the journal.
  MeteredStorage storage;
  gas::Meter meter;
  for (uint64_t i = 0; i < 40; ++i) storage.Store({1, i}, WordFromUint64(i + 1), meter);
  storage.Store({1, 5}, kZeroWord, meter);  // a tombstone for the rehash to drop
  const Hash before = storage.Fingerprint();
  const size_t slots_before = storage.NumSlots();

  storage.BeginTx();
  for (uint64_t round = 0; round < 50; ++round) {
    storage.Store({1, 7}, WordFromUint64(1000 + round), meter);
    storage.Store({1, 5}, round % 2 == 0 ? WordFromUint64(round + 1) : kZeroWord,
                  meter);
  }
  storage.Poke({1, 7}, WordFromUint64(77));
  for (uint64_t i = 0; i < 200; ++i) {  // outgrows the 64-slot table
    storage.Store({2, i}, WordFromUint64(i + 1), meter);
    if (i == 100) storage.Store({1, 7}, WordFromUint64(5000), meter);
  }
  storage.Poke({1, 7}, WordFromUint64(78));
  EXPECT_NE(storage.Fingerprint(), before);
  storage.RollbackTx();

  EXPECT_EQ(storage.Fingerprint(), before);
  EXPECT_EQ(storage.NumSlots(), slots_before);
  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 7})), 8u);
  EXPECT_FALSE(storage.Contains({1, 5}));
  EXPECT_FALSE(storage.Contains({2, 0}));
}

// --- Blockchain -------------------------------------------------------------

TEST(Storage, PokeRewritesOccupiedSlotsWithoutChargeOrJournal) {
  MeteredStorage storage;
  gas::Meter meter;
  storage.Store({1, 0}, WordFromUint64(5), meter);
  const gas::Gas charged = meter.used();
  storage.Poke({1, 0}, WordFromUint64(6));
  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 0})), 6u);
  EXPECT_EQ(meter.used(), charged);
  EXPECT_THROW(storage.Poke({1, 1}, WordFromUint64(7)), std::logic_error);
  EXPECT_THROW(storage.Poke({1, 0}, kZeroWord), std::logic_error);
  EXPECT_FALSE(storage.Contains({1, 1}));

  // A slot first stored in a transaction still rolls back to its prior word.
  storage.BeginTx();
  storage.Store({1, 0}, WordFromUint64(8), meter);
  storage.Poke({1, 0}, WordFromUint64(9));
  storage.RollbackTx();
  EXPECT_EQ(Uint64FromWord(storage.Peek({1, 0})), 6u);
}

/// A word held in the side array: its first 24 bytes are not all zero.
Word SideWord(uint64_t tag) { return crypto::ValueHash("side-" + std::to_string(tag)); }

TEST(Storage, WordsMoveBetweenInlineAndSideFormsAcrossRollback) {
  // A slot's word is held inline or in the side array by its content, so
  // one slot changes form as it is rewritten; a rollback restores every
  // word, whatever form it left the slot in.
  MeteredStorage storage;
  gas::Meter meter;
  const Word& pending = gem2tree::PartitionChain::kPendingRoot;
  storage.Store({1, 0}, WordFromUint64(3), meter);
  storage.Store({1, 1}, SideWord(1), meter);
  storage.Store({1, 2}, pending, meter);
  storage.Store({1, 3}, WordFromKey(-5), meter);  // all ones in the last 8 bytes
  const std::vector<Slot> slots = {{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}};
  std::vector<Word> before;
  for (const Slot& slot : slots) before.push_back(storage.Peek(slot));
  const Hash fingerprint = storage.Fingerprint();
  const size_t num_slots = storage.NumSlots();

  storage.BeginTx();
  // Slot {1,0}: small -> hash -> small -> zero -> hash.
  const std::vector<Word> steps = {SideWord(2), WordFromUint64(9), kZeroWord,
                                   SideWord(3)};
  for (const Word& w : steps) {
    storage.Store({1, 0}, w, meter);
    EXPECT_EQ(storage.Peek({1, 0}), w);
    EXPECT_EQ(storage.Contains({1, 0}), w != kZeroWord);
  }
  // Slot {1,1}: hash -> small; slot {1,4}: absent -> hash -> small.
  storage.Store({1, 1}, WordFromUint64(1), meter);
  storage.Store({1, 4}, SideWord(4), meter);
  storage.Store({1, 4}, WordFromUint64(4), meter);
  // A placeholder rewritten under charge, then filled in by Poke with a
  // hash and shrunk by Poke to a small word.
  storage.Store({1, 2}, pending, meter);
  storage.Poke({1, 2}, SideWord(5));
  EXPECT_EQ(storage.Peek({1, 2}), SideWord(5));
  storage.Poke({1, 3}, SideWord(6));  // unjournaled: survives the rollback
  EXPECT_EQ(storage.Peek({1, 1}), WordFromUint64(1));
  EXPECT_EQ(storage.Peek({1, 4}), WordFromUint64(4));
  EXPECT_EQ(storage.NumSlots(), num_slots + 1);
  storage.RollbackTx();

  before[3] = SideWord(6);
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(storage.Peek(slots[i]), before[i]) << "slot " << i;
  }
  EXPECT_EQ(storage.NumSlots(), num_slots);
  storage.Poke({1, 3}, WordFromKey(-5));
  EXPECT_EQ(storage.Fingerprint(), fingerprint);
  // Three side words were live at the peak of the transaction, and the
  // rollback, which replays newest first, passed through four.
  EXPECT_LE(storage.side_words(), 4u);
}

TEST(Storage, SideWordsAreReusedUnderChurn) {
  // A cleared or shrunk side word goes to the free list and the next side
  // word reuses it, so the side array never exceeds the peak number of live
  // side words.
  MeteredStorage storage;
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  std::mt19937_64 rng(0x51de);
  std::vector<Word> model(1000, kZeroWord);
  size_t live_side = 0;
  size_t peak_side = 0;
  const auto is_side = [](const Word& w) {
    return std::any_of(w.begin(), w.begin() + 24, [](uint8_t b) { return b != 0; });
  };
  for (uint64_t round = 0; round < 10'000; ++round) {
    const uint64_t index = rng() % model.size();
    Word next;
    switch (rng() % 3) {
      case 0: next = SideWord(round); break;
      case 1: next = WordFromUint64(round + 1); break;
      default: next = kZeroWord; break;
    }
    live_side += is_side(next);
    live_side -= is_side(model[index]);
    peak_side = std::max(peak_side, live_side);
    storage.Store({7, index}, next, meter);
    model[index] = next;
    ASSERT_LE(storage.side_words(), peak_side) << "round " << round;
  }
  EXPECT_GT(peak_side, 300u);
  for (uint64_t index = 0; index < model.size(); ++index) {
    ASSERT_EQ(storage.Peek({7, index}), model[index]) << "index " << index;
  }
}

/// FNV-1a over 64-bit values and words.
class StorageDigest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Mix(const Word& w) {
    for (uint8_t b : w) Byte(b);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(StorageGolden, SeededMixMatchesRecordedDigest) {
  // A seeded Store/Load/Poke/Begin/Commit/Rollback mix over small words,
  // hashes, the pending-root placeholder and clears, across several table
  // growths. Every loaded word, each op's gas by category, NumSlots and
  // Fingerprint fold into one digest, recorded from the 48-byte-entry
  // layout: the entry layout must not move anything a contract observes.
  MeteredStorage storage;
  std::mt19937_64 rng(0x570a6e);
  StorageDigest d;
  const auto random_slot = [&] {
    return Slot{static_cast<uint32_t>(1 + rng() % 4), rng() % 700};
  };
  const auto random_word = [&]() -> Word {
    switch (rng() % 5) {
      case 0: return kZeroWord;
      case 1: return WordFromUint64(rng() >> (rng() % 64));
      case 2: return gem2tree::PartitionChain::kPendingRoot;
      default: return SideWord(rng() % 5000);
    }
  };
  size_t peak_slots = 0;
  for (int op = 0; op < 6000; ++op) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    const uint64_t dice = rng() % 20;
    d.Mix(dice);
    if (dice < 9) {
      storage.Store(random_slot(), random_word(), meter);
    } else if (dice < 14) {
      d.Mix(storage.Load(random_slot(), meter));
    } else if (dice < 16) {
      const Slot slot = random_slot();
      Word w = random_word();
      if (w == kZeroWord) w = WordFromUint64(op + 1);
      if (storage.Contains(slot)) {
        storage.Poke(slot, w);
      } else {
        EXPECT_THROW(storage.Poke(slot, w), std::logic_error);
      }
    } else if (dice < 17) {
      if (!storage.in_tx()) storage.BeginTx();
    } else if (dice < 18) {
      if (storage.in_tx()) storage.CommitTx();
    } else if (dice < 19) {
      if (storage.in_tx()) storage.RollbackTx();
    } else {
      d.Mix(storage.NumSlots());
      d.Mix(storage.Fingerprint());
    }
    const gas::GasBreakdown& b = meter.breakdown();
    for (gas::Gas g : {b.sload, b.sstore, b.supdate, b.mem, b.hash, b.intrinsic}) {
      d.Mix(g);
    }
    peak_slots = std::max(peak_slots, storage.NumSlots());
  }
  if (storage.in_tx()) storage.RollbackTx();
  for (uint32_t region = 1; region <= 4; ++region) {
    for (uint64_t index = 0; index < 700; ++index) d.Mix(storage.Peek({region, index}));
  }
  d.Mix(storage.NumSlots());
  d.Mix(storage.Fingerprint());
  // More than 384 live slots need a 512-bucket table: three growths from 64.
  EXPECT_GT(peak_slots, 384u);
  EXPECT_EQ(d.value(), 3461427458562988811ull) << d.value() << "ull";
}

// --- DigestLedger -------------------------------------------------------------

Hash Digest(uint8_t tag) {
  Hash h{};
  h[0] = tag;
  return h;
}

TEST(DigestLedger, PendingDigestsResolveOnceAtFirstSnapshot) {
  DigestLedger ledger;
  int runs = 0;
  ledger.SetPending(0, "a", [&runs] {
    ++runs;
    return Digest(1);
  });
  ledger.Set(1, "b", Digest(2));
  EXPECT_EQ(runs, 0);
  const std::vector<DigestEntry> expect = {{"a", Digest(1)}, {"b", Digest(2)}};
  EXPECT_EQ(ledger.Snapshot(), expect);
  EXPECT_EQ(ledger.Snapshot(), expect);
  EXPECT_EQ(runs, 1);
  // A pending entry superseded before any snapshot never runs.
  ledger.SetPending(1, "b", [&runs] {
    ++runs;
    return Digest(3);
  });
  ledger.Set(1, "b", Digest(4));
  EXPECT_EQ(ledger.Snapshot(), (std::vector<DigestEntry>{{"a", Digest(1)}, {"b", Digest(4)}}));
  EXPECT_EQ(runs, 1);
}

TEST(DigestLedger, RollbackRestoresPendingEntries) {
  DigestLedger ledger;
  int runs = 0;
  auto pending = [&runs](uint8_t tag) {
    return [&runs, tag] {
      ++runs;
      return Digest(tag);
    };
  };
  ledger.SetPending(0, "a", pending(1));
  ledger.BeginTx();
  ledger.SetPending(0, "a", pending(2));
  ledger.SetPending(5, "c", pending(3));
  // Observed inside the transaction, then rolled back: the pre-transaction
  // entry comes back still pending and resolves to its own digest.
  EXPECT_EQ(ledger.Snapshot(), (std::vector<DigestEntry>{{"a", Digest(2)}, {"c", Digest(3)}}));
  ledger.RollbackTx();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(ledger.Snapshot(), (std::vector<DigestEntry>{{"a", Digest(1)}}));
  EXPECT_EQ(runs, 3);

  // A resolved entry journaled by a later transaction rolls back resolved.
  ledger.BeginTx();
  ledger.Erase(0);
  EXPECT_TRUE(ledger.Snapshot().empty());
  ledger.RollbackTx();
  EXPECT_EQ(ledger.Snapshot(), (std::vector<DigestEntry>{{"a", Digest(1)}}));
  EXPECT_EQ(runs, 3);
}

TEST(Pow, LeadingZeroBits) {
  Hash h{};
  EXPECT_TRUE(SatisfiesPow(h, 0));
  EXPECT_TRUE(SatisfiesPow(h, 256));
  h[0] = 0x01;  // 7 leading zero bits
  EXPECT_TRUE(SatisfiesPow(h, 7));
  EXPECT_FALSE(SatisfiesPow(h, 8));
  h[0] = 0x80;
  EXPECT_FALSE(SatisfiesPow(h, 1));
}

TEST(Blockchain, GenesisAndAppend) {
  Blockchain chain(0);
  EXPECT_EQ(chain.height(), 0u);
  Transaction tx;
  tx.contract = "ads";
  tx.method = "insert";
  chain.Append({tx}, crypto::EmptyTreeDigest(), 1);
  EXPECT_EQ(chain.height(), 1u);
  ASSERT_EQ(chain.headers().size(), 2u);
  EXPECT_EQ(chain.latest().height, 1u);
  EXPECT_EQ(chain.latest().prev_hash, chain.headers()[0].Digest());
  EXPECT_EQ(chain.latest().tx_root, ComputeTxRoot({tx}));
  EXPECT_EQ(chain.headers()[0].tx_root, ComputeTxRoot({}));
}

TEST(Blockchain, MiningSatisfiesDifficulty) {
  Blockchain chain(10);
  chain.Append({}, crypto::EmptyTreeDigest(), 1);
  for (const BlockHeader& h : chain.headers()) {
    EXPECT_TRUE(SatisfiesPow(h.Digest(), 10));
  }
}

/// A three-block chain at difficulty 4. Tampering works on a copy of its
/// header list, which is what a light client is handed.
class TamperedChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      Transaction tx;
      tx.seq = static_cast<uint64_t>(i);
      tx.contract = "ads";
      batches_.push_back({tx});
      chain_.Append(batches_.back(), crypto::EmptyTreeDigest(),
                    static_cast<uint64_t>(i));
    }
    headers_ = chain_.headers();
  }

  /// Headers a light client anchored at genesis accepts from `headers_`.
  size_t Synced() const {
    LightClient client(headers_.front());
    return client.Sync(headers_);
  }

  Blockchain chain_{4};
  std::vector<std::vector<Transaction>> batches_;
  std::vector<BlockHeader> headers_;
};

TEST_F(TamperedChainTest, DetectsTamperedTransaction) {
  // The header keeps only the batch's tx_root; a rewritten transaction no
  // longer hashes to it.
  ASSERT_EQ(ComputeTxRoot(batches_[1]), headers_[2].tx_root);
  std::vector<Transaction> rewritten = batches_[1];
  rewritten[0].method = "evil";
  EXPECT_NE(ComputeTxRoot(rewritten), headers_[2].tx_root);
}

TEST_F(TamperedChainTest, DetectsRewrittenStateRoot) {
  ASSERT_EQ(Synced(), 3u);
  headers_[1].state_root = Hash{};
  // The rewritten header misses its own PoW target, and even a header that
  // met it would break header 2's prev_hash; the sync accepts nothing.
  EXPECT_EQ(Synced(), 0u);
}

TEST_F(TamperedChainTest, DetectsForgedNonce) {
  ASSERT_EQ(Synced(), 3u);
  // The sealed nonce is the first that meets the PoW target; the next one
  // misses it, so the sync accepts headers 1 and 2 only.
  headers_[3].nonce += 1;
  EXPECT_EQ(Synced(), 2u);
}

// --- Environment --------------------------------------------------------------

/// Minimal contract for environment tests: one counter slot.
class CounterContract : public Contract {
 public:
  CounterContract() : Contract("counter") { Commit(); }

  void Add(uint64_t amount, gas::Meter& meter) {
    uint64_t v = storage().LoadUint({1, 0}, meter);
    storage().StoreUint({1, 0}, v + amount, meter);
    Commit();
  }

  void Explode(gas::Meter& meter) {
    for (uint64_t i = 0; i < 1'000'000; ++i) storage().StoreUint({2, i}, 1, meter);
    Commit();
  }

  void StoreThenThrow(gas::Meter& meter) {
    storage().StoreUint({1, 0}, 777, meter);
    storage().StoreUint({3, 5}, 1, meter);
    Commit();
    throw std::runtime_error("contract bug");
  }

  std::vector<DigestEntry> AuthenticatedDigests() const override {
    Hash h{};
    h[31] = static_cast<uint8_t>(storage().Peek({1, 0})[31]);
    return {{"counter", h}};
  }

 private:
  /// Keeps the ledger's entry current, as every op must.
  void Commit() {
    digest_ledger().Set(0, "counter", AuthenticatedDigests()[0].digest);
  }
};

TEST(Environment, ExecuteMetersAndRecords) {
  Environment env;
  CounterContract contract;
  env.Register(&contract);
  TxReceipt r = env.Execute(contract, "add",
                            [&](gas::Meter& m) { contract.Add(5, m); });
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.gas_used, 200u + 20'000u);  // sload + sstore
  r = env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(2, m); });
  EXPECT_EQ(r.gas_used, 200u + 5'000u);  // sload + supdate
  EXPECT_EQ(Uint64FromWord(contract.storage().Peek({1, 0})), 7u);
  EXPECT_EQ(env.num_transactions(), 2u);
  EXPECT_EQ(env.total_gas_used(), 25'400u);
}

TEST(Environment, OutOfGasRollsBackAndReports) {
  EnvironmentOptions options;
  options.gas_limit = 100'000;
  Environment env(options);
  CounterContract contract;
  env.Register(&contract);
  env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(1, m); });

  TxReceipt r =
      env.Execute(contract, "explode", [&](gas::Meter& m) { contract.Explode(m); });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of gas"), std::string::npos);
  // Even a failed receipt explains where the gas went: the partial
  // breakdown at the abort point, consistent with gas_used.
  EXPECT_GT(r.gas_used, 0u);
  EXPECT_EQ(r.breakdown.total(), r.gas_used);
  EXPECT_GT(r.op_counts.sstore + r.op_counts.supdate + r.op_counts.sload, 0u);
  // The exploded writes were rolled back; the counter survives.
  EXPECT_EQ(Uint64FromWord(contract.storage().Peek({1, 0})), 1u);
  EXPECT_FALSE(contract.storage().Contains({2, 0}));
}

TEST(Environment, NonOogExceptionAlsoRollsBackStorage) {
  // Out-of-gas is not special: ANY exception escaping a transaction body
  // (a contract bug, a logic_error) must roll the storage back before it
  // propagates, leaving state identical to never having run the tx.
  Environment env;
  CounterContract contract;
  env.Register(&contract);
  env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(9, m); });
  const Hash fingerprint_before = contract.storage().Fingerprint();
  const Hash root_before = env.CurrentStateRoot();

  EXPECT_THROW(env.Execute(contract, "boom",
                           [&](gas::Meter& m) { contract.StoreThenThrow(m); }),
               std::runtime_error);

  EXPECT_EQ(Uint64FromWord(contract.storage().Peek({1, 0})), 9u);
  EXPECT_FALSE(contract.storage().Contains({3, 5}));
  EXPECT_EQ(contract.storage().Fingerprint(), fingerprint_before);
  EXPECT_EQ(env.CurrentStateRoot(), root_before);

  // The environment stays usable afterwards.
  TxReceipt r = env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(1, m); });
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(Uint64FromWord(contract.storage().Peek({1, 0})), 10u);
}

/// Commits four digests derived from one counter, so its state proofs are
/// multi-step paths through a tree shared with other contracts.
class MultiDigestContract : public Contract {
 public:
  MultiDigestContract() : Contract("multi") { Commit(); }

  void Add(uint64_t amount, gas::Meter& meter) {
    uint64_t v = storage().LoadUint({1, 0}, meter);
    storage().StoreUint({1, 0}, v + amount, meter);
    Commit();
  }

  std::vector<DigestEntry> AuthenticatedDigests() const override {
    std::vector<DigestEntry> out;
    for (uint8_t i = 0; i < 4; ++i) {
      Hash h{};
      h[0] = i;
      h[31] = storage().Peek({1, 0})[31];
      out.push_back({"d" + std::to_string(i), h});
    }
    return out;
  }

 private:
  /// Keeps the ledger's four entries current, as every op must.
  void Commit() {
    const std::vector<DigestEntry> digests = AuthenticatedDigests();
    for (size_t i = 0; i < digests.size(); ++i) {
      digest_ledger().Set(i, digests[i].label, digests[i].digest);
    }
  }
};

TEST(Environment, AuthenticatedStateProofsVerify) {
  Environment env;
  CounterContract counter;
  MultiDigestContract contract;
  env.Register(&counter);
  env.Register(&contract);
  env.Execute(counter, "add", [&](gas::Meter& m) { counter.Add(1, m); });
  env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(3, m); });
  const BlockHeader earlier = env.ReadAuthenticatedState("multi").header;
  env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(4, m); });

  AuthenticatedState state = env.ReadAuthenticatedState("multi");
  ASSERT_EQ(state.digests.size(), 4u);
  EXPECT_TRUE(Environment::VerifyAuthenticatedState(state));
  ASSERT_NE(earlier.state_root, state.header.state_root);

  ASSERT_FALSE(state.proof.empty());

  // Each tamper must be rejected: the leaf commits every digest and label,
  // and the proof is one path from that leaf to the state root.
  const std::vector<std::pair<std::string,
                              std::function<void(AuthenticatedState&, size_t)>>>
      per_digest = {
          {"digest byte",
           [](AuthenticatedState& s, size_t i) { s.digests[i].digest[0] ^= 0xff; }},
          {"label", [](AuthenticatedState& s, size_t i) { s.digests[i].label = "other"; }},
          {"dropped",
           [](AuthenticatedState& s, size_t i) {
             s.digests.erase(s.digests.begin() + static_cast<ptrdiff_t>(i));
           }},
          {"duplicated",
           [](AuthenticatedState& s, size_t i) {
             s.digests.insert(s.digests.begin() + static_cast<ptrdiff_t>(i),
                              s.digests[i]);
           }},
          {"swapped with the next",
           [](AuthenticatedState& s, size_t i) {
             std::swap(s.digests[i], s.digests[(i + 1) % s.digests.size()]);
           }},
      };
  for (size_t i = 0; i < state.digests.size(); ++i) {
    for (const auto& [name, tamper] : per_digest) {
      AuthenticatedState bad = state;
      tamper(bad, i);
      EXPECT_FALSE(Environment::VerifyAuthenticatedState(bad))
          << name << " on digest " << i;
    }
  }
  const std::vector<std::pair<std::string, std::function<void(AuthenticatedState&)>>>
      whole = {
          {"sibling byte", [](AuthenticatedState& s) { s.proof[0].sibling[7] ^= 1; }},
          {"sibling_on_left",
           [](AuthenticatedState& s) {
             s.proof.back().sibling_on_left = !s.proof.back().sibling_on_left;
           }},
          {"last step dropped", [](AuthenticatedState& s) { s.proof.pop_back(); }},
          {"extra step",
           [](AuthenticatedState& s) { s.proof.push_back({s.header.state_root, false}); }},
          {"contract renamed", [](AuthenticatedState& s) { s.contract = "counter"; }},
          {"digests emptied", [](AuthenticatedState& s) { s.digests.clear(); }},
      };
  for (const auto& [name, tamper] : whole) {
    AuthenticatedState bad = state;
    tamper(bad);
    EXPECT_FALSE(Environment::VerifyAuthenticatedState(bad)) << name;
  }

  // An earlier block's header commits to the earlier digests, not these.
  AuthenticatedState stale = state;
  stale.header = earlier;
  EXPECT_FALSE(Environment::VerifyAuthenticatedState(stale));
}

TEST(Environment, BlocksSealEveryKTransactions) {
  EnvironmentOptions options;
  options.txs_per_block = 2;
  Environment env(options);
  CounterContract contract;
  env.Register(&contract);
  for (int i = 0; i < 5; ++i) {
    env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(1, m); });
  }
  EXPECT_EQ(env.blockchain().height(), 2u);  // 4 sealed, 1 pending
  env.SealBlock();
  EXPECT_EQ(env.blockchain().height(), 3u);
}

TEST(Environment, SealedTxRootCommitsTheBatch) {
  // Each header's tx_root commits to its batch exactly as the receipts
  // describe it, an out-of-gas transaction's error included, though the
  // chain keeps no transaction once the header is sealed. The batches are
  // grouped by each receipt's height and every transaction rebuilt from its
  // receipt's seq, not from the order of the calls.
  EnvironmentOptions options;
  options.txs_per_block = 2;
  options.gas_limit = 100'000;
  Environment env(options);
  CounterContract contract;
  env.Register(&contract);
  const std::vector<std::string> methods = {"add", "add", "add",
                                            "explode", "add", "add"};
  std::map<uint64_t, std::vector<Transaction>> batches;  // by receipt height
  for (const std::string& method : methods) {
    const TxReceipt r = env.Execute(contract, method, [&](gas::Meter& m) {
      if (method == "explode") {
        contract.Explode(m);
      } else {
        contract.Add(1, m);
      }
    });
    Transaction tx;
    tx.seq = r.seq;
    tx.contract = contract.name();
    tx.method = method;
    tx.gas_used = r.gas_used;
    tx.ok = r.ok;
    tx.error = r.error;
    batches[r.height].push_back(tx);
  }
  // An empty block between two batches moves the next batch's height.
  env.ReadAuthenticatedState(contract.name());
  gas::Meter direct;
  contract.Add(1, direct);  // outside any transaction: moves the state root
  env.ReadAuthenticatedState(contract.name());
  const TxReceipt late =
      env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(1, m); });
  EXPECT_EQ(late.seq, methods.size());
  EXPECT_EQ(late.height, 5u);
  env.SealBlock();

  const std::vector<BlockHeader>& headers = env.blockchain().headers();
  ASSERT_EQ(headers.size(), 6u);  // genesis, three batches, empty, `late`
  ASSERT_EQ(batches.size(), 3u);
  for (const auto& [height, batch] : batches) {
    ASSERT_EQ(batch.size(), 2u) << "block " << height;
    EXPECT_EQ(batch[1].seq, batch[0].seq + 1) << "block " << height;
    EXPECT_EQ(headers.at(height).tx_root, ComputeTxRoot(batch)) << "block " << height;
  }
  EXPECT_EQ(batches.begin()->first, 1u);
  EXPECT_EQ(batches.at(3).front().seq, 4u);
  const Transaction& exploded = batches.at(2)[1];
  ASSERT_FALSE(exploded.ok);
  ASSERT_FALSE(exploded.error.empty());
  EXPECT_EQ(exploded.seq, 3u);
  // The error string is committed: dropping it changes block 2's root.
  std::vector<Transaction> scrubbed = batches.at(2);
  scrubbed[1].error.clear();
  EXPECT_NE(headers[2].tx_root, ComputeTxRoot(scrubbed));
}

TEST(Environment, RejectsDuplicateAndUnknownContracts) {
  Environment env;
  CounterContract contract;
  env.Register(&contract);
  CounterContract dup;
  EXPECT_THROW(env.Register(&dup), std::invalid_argument);
  EXPECT_THROW(env.ReadAuthenticatedState("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace gem2::chain
