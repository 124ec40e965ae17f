// Supply-chain provenance over a hybrid-storage blockchain.
//
// A manufacturer registers production lots in bulk (one transaction per
// pallet — a single intrinsic fee and one gas budget), recalls defective lots
// (deletion via dummy objects, paper Section V-B), and a regulator later runs
// a verified audit over a serial-number range. Finally the whole ledger is
// serialized and re-validated from bytes, as an auditor receiving the chain
// would do.
//
// Build & run:  ./build/examples/supply_chain
#include <cstdio>
#include <string>

#include "chain/codec.h"
#include "core/authenticated_db.h"

namespace {

std::string LotRecord(gem2::Key serial, int line) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "lot serial=%lld line=%d status=produced",
                static_cast<long long>(serial), line);
  return buf;
}

}  // namespace

int main() {
  using namespace gem2;

  core::DbOptions options;
  options.kind = core::AdsKind::kGem2Star;
  options.gem2.m = 8;
  options.gem2.smax = 128;
  options.env.tx_base_fee = 21'000;  // realistic per-transaction fee
  options.env.gas_limit = 1'000'000'000ull;  // consortium chain: raised limit
  for (Key s = 100'000; s < 1'000'000; s += 100'000) {
    options.split_points.push_back(s);
  }
  core::AuthenticatedDb db(options);

  // Each production line registers pallets of 50 lots in single transactions.
  uint64_t batched_gas = 0;
  int pallets = 0;
  for (int line = 0; line < 4; ++line) {
    for (int pallet = 0; pallet < 5; ++pallet) {
      std::vector<Object> lots;
      for (int i = 0; i < 50; ++i) {
        const Key serial =
            100'000 * (line * 2 + 1) + pallet * 1000 + i * 7 + 13;
        lots.push_back({serial, LotRecord(serial, line)});
      }
      chain::TxReceipt r = db.InsertBatch(lots);
      if (!r.ok) {
        std::printf("FATAL: pallet registration aborted: %s\n", r.error.c_str());
        return 1;
      }
      batched_gas += r.gas_used;
      ++pallets;
    }
  }
  std::printf("registered %llu lots in %d batch transactions (%llu gas total,"
              " one 21k intrinsic fee per pallet)\n",
              static_cast<unsigned long long>(db.size()), pallets,
              static_cast<unsigned long long>(batched_gas));

  // Quality control recalls a defective serial range from line 0.
  core::VerifiedSpecResult affected =
      db.AuthenticatedSpec(core::QuerySpec::Range(101'000, 101'999));
  int recalled = 0;
  for (const Object& lot : affected.objects) {
    db.Delete(lot.key);
    ++recalled;
  }
  std::printf("recalled %d lots (tombstoned on-chain)\n", recalled);

  // The regulator audits line 0's full serial range with verification.
  core::VerifiedSpecResult audit =
      db.AuthenticatedSpec(core::QuerySpec::Range(100'000, 199'999));
  std::printf("audit of line 0: %zu live lots, %llu tombstones filtered, "
              "verified: %s\n",
              audit.objects.size(),
              static_cast<unsigned long long>(audit.tombstones_filtered),
              audit.ok ? "yes" : audit.error.c_str());
  if (!audit.ok) return 1;

  // Hand the ledger to the auditor as bytes; they revalidate from scratch.
  db.environment().SealBlock();
  Bytes wire = chain::SerializeChain(db.environment().blockchain());
  std::string error;
  auto restored = chain::ParseChain(wire, &error);
  if (!restored.has_value()) {
    std::printf("FATAL: ledger failed to reload: %s\n", error.c_str());
    return 1;
  }
  std::printf("ledger exported: %zu bytes, %zu blocks, revalidated on load\n",
              wire.size(), restored->height());
  return 0;
}
