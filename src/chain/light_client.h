/// \file light_client.h
/// A light client that follows the chain by headers only (SPV-style). This is
/// how the paper's query client actually obtains VO_chain: it does not replay
/// transactions or hold contract state — it tracks block headers, checks each
/// header's height, hash-chain linkage and proof-of-work, and then verifies
/// an authenticated state's leaf proof against the newest accepted header's
/// state root. Syncing from genesis is also the one check of a
/// whole chain: it reaches the chain's height only if every header is valid.
#ifndef GEM2_CHAIN_LIGHT_CLIENT_H_
#define GEM2_CHAIN_LIGHT_CLIENT_H_

#include <span>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/environment.h"

namespace gem2::chain {

class LightClient {
 public:
  /// Starts from a trusted genesis header (the usual SPV trust anchor).
  explicit LightClient(BlockHeader genesis);

  /// Accepts `header` if it extends the current tip: height + 1, prev_hash
  /// matching the tip's digest, and valid PoW. Returns false (and leaves the
  /// client unchanged) otherwise.
  [[nodiscard]] bool Accept(const BlockHeader& header);

  /// Catches up with a header list from genesis on (`headers[h]` at height
  /// h, as Blockchain::headers() holds them), starting at the current
  /// height; returns the number of headers accepted. Stops at the first
  /// invalid header.
  size_t Sync(std::span<const BlockHeader> headers);

  const BlockHeader& tip() const { return headers_.back(); }
  size_t height() const { return headers_.size() - 1; }

  /// Verifies an AuthenticatedState (VO_chain) against the synced tip: the
  /// state's header must BE the tip (same digest) and the leaf recomputed
  /// from its full digest list must reach the tip's state root.
  [[nodiscard]] bool VerifyStateAtTip(const AuthenticatedState& state,
                                      std::string* error = nullptr) const;

 private:
  std::vector<BlockHeader> headers_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_LIGHT_CLIENT_H_
