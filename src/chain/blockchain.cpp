#include "chain/blockchain.h"

#include <cstring>

#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "crypto/keccak_batch.h"
#include "crypto/merkle.h"

namespace gem2::chain {
namespace {

void PutUint64Be(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>((v >> (8 * (7 - i))) & 0xff);
  }
}

/// Serializes the exact byte stream Transaction::Digest absorbs. Returns
/// false (buffer untouched) when it would overflow `cap` — the caller then
/// hashes the transaction scalar instead of batching it.
bool SerializeTxPreimage(const Transaction& tx, uint8_t* out, size_t cap,
                         size_t* len) {
  const size_t total = 6 * 8 + tx.contract.size() + tx.method.size() + tx.error.size();
  if (total > cap) return false;
  uint8_t* p = out;
  PutUint64Be(tx.seq, p); p += 8;
  PutUint64Be(tx.gas_used, p); p += 8;
  PutUint64Be(tx.ok ? 1 : 0, p); p += 8;
  PutUint64Be(tx.contract.size(), p); p += 8;
  std::memcpy(p, tx.contract.data(), tx.contract.size()); p += tx.contract.size();
  PutUint64Be(tx.method.size(), p); p += 8;
  std::memcpy(p, tx.method.data(), tx.method.size()); p += tx.method.size();
  PutUint64Be(tx.error.size(), p); p += 8;
  std::memcpy(p, tx.error.data(), tx.error.size()); p += tx.error.size();
  *len = total;
  return true;
}

}  // namespace

Hash Transaction::Digest() const {
  // Absorbed directly — the byte stream is identical to the old Bytes
  // staging buffer, so digests are unchanged.
  crypto::Keccak256Hasher h;
  h.UpdateUint64(seq);
  h.UpdateUint64(gas_used);
  h.UpdateUint64(ok ? 1 : 0);
  // Length-prefix the variable fields: hashing bare concatenations would let
  // bytes migrate between fields without changing the digest.
  h.UpdateUint64(contract.size());
  h.Update(contract);
  h.UpdateUint64(method.size());
  h.Update(method);
  h.UpdateUint64(error.size());
  h.Update(error);
  return h.Finalize();
}

Hash BlockHeader::Digest() const {
  crypto::Keccak256Hasher h;
  h.UpdateUint64(height);
  h.UpdateUint64(timestamp);
  h.Update(prev_hash);
  h.Update(tx_root);
  h.Update(state_root);
  h.UpdateUint64(nonce);
  h.UpdateUint64(difficulty_bits);
  return h.Finalize();
}

bool SatisfiesPow(const Hash& digest, uint32_t bits) {
  uint32_t remaining = bits;
  for (uint8_t byte : digest) {
    if (remaining == 0) return true;
    if (remaining >= 8) {
      if (byte != 0) return false;
      remaining -= 8;
    } else {
      return (byte >> (8 - remaining)) == 0;
    }
  }
  return remaining == 0;
}

Hash ComputeTxRoot(const std::vector<Transaction>& txs) {
  // Leaf digests are independent, and a typical transaction record (short
  // contract/method names, empty error) fits one sponge block, so they ride
  // the 8-way batcher; oversized records fall back to the scalar Digest().
  std::vector<Hash> leaves(txs.size());
  crypto::Keccak256Batcher batcher;
  uint8_t msg[crypto::Keccak256Batcher::kMaxMessageLen];
  for (size_t i = 0; i < txs.size(); ++i) {
    size_t len = 0;
    if (SerializeTxPreimage(txs[i], msg, sizeof(msg), &len)) {
      batcher.Add(msg, len, &leaves[i]);
    } else {
      leaves[i] = txs[i].Digest();
    }
  }
  batcher.Flush();
  return crypto::BinaryMerkleTree::RootOf(leaves);
}

Blockchain::Blockchain(uint32_t difficulty_bits) : difficulty_bits_(difficulty_bits) {
  BlockHeader genesis;
  genesis.height = 0;
  genesis.timestamp = 0;
  genesis.tx_root = ComputeTxRoot({});
  genesis.state_root = crypto::EmptyTreeDigest();
  genesis.difficulty_bits = difficulty_bits_;
  genesis.nonce = MineNonce(&genesis);
  headers_.push_back(genesis);
}

uint64_t Blockchain::MineNonce(BlockHeader* header) const {
  for (uint64_t nonce = 0;; ++nonce) {
    header->nonce = nonce;
    if (SatisfiesPow(header->Digest(), header->difficulty_bits)) return nonce;
  }
}

void Blockchain::Append(const std::vector<Transaction>& txs, const Hash& state_root,
                        uint64_t timestamp) {
  BlockHeader header;
  header.height = headers_.size();
  header.timestamp = timestamp;
  header.prev_hash = headers_.back().Digest();
  header.tx_root = ComputeTxRoot(txs);
  header.state_root = state_root;
  header.difficulty_bits = difficulty_bits_;
  header.nonce = MineNonce(&header);
  headers_.push_back(header);
}

}  // namespace gem2::chain
