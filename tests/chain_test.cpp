// Chain substrate tests: metered storage semantics and journaling, block
// structure, PoW, validation, the execution environment's transaction
// handling (including out-of-gas rollback), and authenticated state proofs.
#include <gtest/gtest.h>

#include <vector>

#include "chain/blockchain.h"
#include "chain/contract.h"
#include "chain/environment.h"
#include "chain/storage.h"
#include "crypto/digest.h"

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
  EXPECT_EQ(chain.latest().transactions.size(), 1u);
  std::string error;
  EXPECT_TRUE(chain.Validate(&error)) << error;
}

TEST(Blockchain, MiningSatisfiesDifficulty) {
  Blockchain chain(10);
  chain.Append({}, crypto::EmptyTreeDigest(), 1);
  for (const Block& b : chain.blocks()) {
    EXPECT_TRUE(SatisfiesPow(b.header.Digest(), 10));
  }
  std::string error;
  EXPECT_TRUE(chain.Validate(&error)) << error;
}

class TamperedChainTest : public ::testing::Test {
 protected:
  Blockchain MakeChain() {
    Blockchain chain(4);
    for (int i = 0; i < 3; ++i) {
      Transaction tx;
      tx.seq = static_cast<uint64_t>(i);
      tx.contract = "ads";
      chain.Append({tx}, crypto::EmptyTreeDigest(), static_cast<uint64_t>(i));
    }
    return chain;
  }
};

TEST_F(TamperedChainTest, DetectsTamperedTransaction) {
  Blockchain chain = MakeChain();
  const_cast<Block&>(chain.blocks()[2]).transactions[0].method = "evil";
  EXPECT_FALSE(chain.Validate());
}

TEST_F(TamperedChainTest, DetectsRewrittenStateRoot) {
  Blockchain chain = MakeChain();
  const_cast<Block&>(chain.blocks()[1]).header.state_root = Hash{};
  // Changing the header invalidates the next block's prev_hash (and likely
  // the PoW).
  EXPECT_FALSE(chain.Validate());
}

TEST_F(TamperedChainTest, DetectsForgedNonce) {
  Blockchain chain = MakeChain();
  const_cast<Block&>(chain.blocks()[3]).header.nonce += 1;
  EXPECT_FALSE(chain.Validate());
}

// --- Environment --------------------------------------------------------------

/// Minimal contract for environment tests: one counter slot.
class CounterContract : public Contract {
 public:
  CounterContract() : Contract("counter") {}

  void Add(uint64_t amount, gas::Meter& meter) {
    uint64_t v = storage().LoadUint({1, 0}, meter);
    storage().StoreUint({1, 0}, v + amount, meter);
  }

  void Explode(gas::Meter& meter) {
    for (uint64_t i = 0; i < 1'000'000; ++i) storage().StoreUint({2, i}, 1, meter);
  }

  void StoreThenThrow(gas::Meter& meter) {
    storage().StoreUint({1, 0}, 777, meter);
    storage().StoreUint({3, 5}, 1, meter);
    throw std::runtime_error("contract bug");
  }

  std::vector<DigestEntry> AuthenticatedDigests() const override {
    Hash h{};
    h[31] = static_cast<uint8_t>(storage().Peek({1, 0})[31]);
    return {{"counter", h}};
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

TEST(Environment, AuthenticatedStateProofsVerify) {
  Environment env;
  CounterContract contract;
  env.Register(&contract);
  env.Execute(contract, "add", [&](gas::Meter& m) { contract.Add(3, m); });

  AuthenticatedState state = env.ReadAuthenticatedState("counter");
  ASSERT_EQ(state.digests.size(), 1u);
  EXPECT_TRUE(Environment::VerifyAuthenticatedState(state));

  // Tampering with the digest breaks the proof.
  AuthenticatedState bad = state;
  bad.digests[0].entry.digest[0] ^= 0xff;
  EXPECT_FALSE(Environment::VerifyAuthenticatedState(bad));

  // Tampering with the label breaks the proof too.
  AuthenticatedState bad2 = state;
  bad2.digests[0].entry.label = "other";
  EXPECT_FALSE(Environment::VerifyAuthenticatedState(bad2));
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
