// Quickstart: the smallest end-to-end use of the library.
//
// A data owner inserts a handful of objects into a hybrid-storage blockchain
// database backed by a GEM2-tree, a client runs an authenticated range query,
// and the verification outcome plus a few gas numbers are printed.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/authenticated_db.h"

int main() {
  using namespace gem2;

  // A database whose on-chain ADS is the GEM2-tree (paper defaults).
  core::DbOptions options;
  options.kind = core::AdsKind::kGem2;
  core::AuthenticatedDb db(options);

  // The data owner streams objects: <search key, payload>.
  // Only h(payload) goes on-chain; the payload lives at the service provider.
  std::printf("inserting 20 objects...\n");
  uint64_t total_gas = 0;
  for (Key key = 1; key <= 20; ++key) {
    chain::TxReceipt receipt =
        db.Insert({key * 10, "reading #" + std::to_string(key)});
    total_gas += receipt.gas_used;
  }
  std::printf("  total gas: %llu (avg %llu / insert)\n",
              static_cast<unsigned long long>(total_gas),
              static_cast<unsigned long long>(total_gas / 20));

  // The client asks the (untrusted) service provider for a range...
  const core::QuerySpec range = core::QuerySpec::Range(45, 105);
  core::SpecResponse response = db.ExecuteSpec(range);

  // ...and verifies the answer against the on-chain digests.
  core::VerifiedSpecResult result = db.VerifySpecFor(range, response);
  std::printf("query [45, 105] -> %zu results, verified: %s\n",
              result.objects.size(), result.ok ? "yes" : result.error.c_str());
  for (const Object& obj : result.objects) {
    std::printf("  key %lld = \"%s\"\n", static_cast<long long>(obj.key),
                obj.value.c_str());
  }
  std::printf("VO_sp: %llu bytes, VO_chain: %llu bytes, chain height: %zu\n",
              static_cast<unsigned long long>(result.vo_sp_bytes),
              static_cast<unsigned long long>(result.vo_chain_bytes),
              db.environment().blockchain().height());
  return result.ok ? 0 : 1;
}
