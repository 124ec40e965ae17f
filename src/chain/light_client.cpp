#include "chain/light_client.h"

#include <stdexcept>

#include "crypto/merkle.h"

namespace gem2::chain {

LightClient::LightClient(BlockHeader genesis) {
  if (genesis.height != 0) {
    throw std::invalid_argument("light client must anchor at a genesis header");
  }
  headers_.push_back(std::move(genesis));
}

bool LightClient::Accept(const BlockHeader& header) {
  const BlockHeader& tip = headers_.back();
  if (header.height != tip.height + 1) return false;
  if (header.prev_hash != tip.Digest()) return false;
  if (!SatisfiesPow(header.Digest(), header.difficulty_bits)) return false;
  headers_.push_back(header);
  return true;
}

size_t LightClient::Sync(std::span<const BlockHeader> headers) {
  size_t accepted = 0;
  for (size_t h = headers_.size(); h < headers.size(); ++h) {
    if (!Accept(headers[h])) break;
    ++accepted;
  }
  return accepted;
}

bool LightClient::VerifyStateAtTip(const AuthenticatedState& state,
                                   std::string* error) const {
  auto fail = [&](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (state.header.Digest() != tip().Digest()) {
    return fail("state is not anchored at the light client's tip");
  }
  if (!Environment::VerifyAuthenticatedState(state)) {
    return fail("state leaf proof does not reach the tip's state root");
  }
  return true;
}

}  // namespace gem2::chain
