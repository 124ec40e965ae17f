/// \file blockchain.h
/// Block headers, transaction records and the hash-chained ledger (paper
/// Fig. 3). A header commits to its batch of transactions through a binary
/// MHT root (`tx_root`) and to the contract state through `state_root` (an
/// MHT over all authenticated digests), and is sealed with a simplified PoW
/// nonce:
///   H(header fields || nonce) must have `difficulty_bits` leading zero bits.
/// The ledger keeps headers only: a batch's transactions are hashed into its
/// `tx_root` at the seal and then dropped, since a client reads VO_chain
/// against headers alone (chain::LightClient).
#ifndef GEM2_CHAIN_BLOCKCHAIN_H_
#define GEM2_CHAIN_BLOCKCHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "gas/meter.h"

namespace gem2::chain {

/// A smart-contract invocation as the seal hashes it into `tx_root`.
struct Transaction {
  uint64_t seq = 0;
  std::string contract;
  std::string method;
  gas::Gas gas_used = 0;
  bool ok = true;
  std::string error;

  Hash Digest() const;
};

struct BlockHeader {
  uint64_t height = 0;
  uint64_t timestamp = 0;
  Hash prev_hash{};
  Hash tx_root{};
  Hash state_root{};
  uint64_t nonce = 0;
  uint32_t difficulty_bits = 0;

  /// Digest over all header fields including the nonce; this is the block's
  /// identity and the PoW target.
  Hash Digest() const;

  friend bool operator==(const BlockHeader&, const BlockHeader&) = default;
};

/// True when `digest` has at least `bits` leading zero bits.
bool SatisfiesPow(const Hash& digest, uint32_t bits);

/// The append-only hash-chained list of block headers. The genesis header is
/// mined eagerly; `headers()[h]` is the header at height h.
class Blockchain {
 public:
  explicit Blockchain(uint32_t difficulty_bits = 0);

  /// Mines and appends the header of a block holding `txs`: its `tx_root`
  /// commits to them and its `state_root` is `state_root`. Only the header
  /// is kept.
  void Append(const std::vector<Transaction>& txs, const Hash& state_root,
              uint64_t timestamp);

  const BlockHeader& latest() const { return headers_.back(); }
  const std::vector<BlockHeader>& headers() const { return headers_; }
  /// Number of blocks beyond genesis.
  size_t height() const { return headers_.size() - 1; }
  uint32_t difficulty_bits() const { return difficulty_bits_; }

 private:
  uint64_t MineNonce(BlockHeader* header) const;

  std::vector<BlockHeader> headers_;
  uint32_t difficulty_bits_;
};

/// MHT root over transaction digests.
Hash ComputeTxRoot(const std::vector<Transaction>& txs);

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_BLOCKCHAIN_H_
