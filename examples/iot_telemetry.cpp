// IoT telemetry over a hybrid-storage blockchain — the motivating scenario of
// the paper's introduction (Fig. 1): resource-poor devices continuously
// notarize sensor readings on-chain while a cloud service provider stores the
// raw data, and an auditor later runs *verifiable* time-range queries.
//
// Here 50 sensors emit timestamped readings (keys = microsecond timestamps),
// some readings are corrected in place (updates), and an auditor extracts a
// window with full soundness/completeness verification. The GEM2*-tree keeps
// the on-chain maintenance gas low.
//
// Build & run:  ./build/examples/iot_telemetry
#include <cstdio>
#include <string>

#include "chain/light_client.h"
#include "core/authenticated_db.h"
#include "workload/workload.h"

namespace {

std::string Reading(int sensor, double celsius) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "sensor-%02d temp=%.2fC", sensor, celsius);
  return buf;
}

}  // namespace

int main() {
  using namespace gem2;

  // Timestamps land in a day-long window; the GEM2*-tree's upper level is
  // split into 32 uniform time regions.
  constexpr Key kDayStart = 1'700'000'000'000'000;
  constexpr Key kTick = 1'000'000;  // 1 second in microseconds
  constexpr int kSensors = 50;
  constexpr int kRounds = 40;

  core::DbOptions options;
  options.kind = core::AdsKind::kGem2Star;
  options.gem2.m = 8;
  options.gem2.smax = 256;
  for (int r = 1; r < 32; ++r) {
    options.split_points.push_back(kDayStart +
                                   (kRounds * kSensors * kTick / 32) * r);
  }
  core::AuthenticatedDb db(options);

  Rng rng(2026);
  uint64_t total_gas = 0;
  uint64_t ops = 0;

  // Devices report in rounds; each reading gets a unique timestamp.
  for (int round = 0; round < kRounds; ++round) {
    for (int sensor = 0; sensor < kSensors; ++sensor) {
      const Key ts = kDayStart +
                     (static_cast<Key>(round) * kSensors + sensor) * kTick +
                     static_cast<Key>(rng.Uniform(0, kTick - 1));
      const double temp = 20.0 + static_cast<double>(rng.Uniform(0, 1500)) / 100.0;
      total_gas += db.Insert({ts, Reading(sensor, temp)}).gas_used;
      ++ops;
    }
  }

  // A calibration pass corrects 5% of past readings in place (updates).
  const auto& chain = db.environment().blockchain();
  std::printf("ingested %llu readings over %zu blocks, avg gas %llu/op\n",
              static_cast<unsigned long long>(ops), chain.height(),
              static_cast<unsigned long long>(total_gas / ops));

  core::VerifiedSpecResult everything =
      db.AuthenticatedSpec(core::QuerySpec::Range(kDayStart, kKeyMax));
  if (!everything.ok) {
    std::printf("FATAL: full-range audit failed: %s\n", everything.error.c_str());
    return 1;
  }
  int corrected = 0;
  for (size_t i = 0; i < everything.objects.size(); i += 20) {
    const Object& obj = everything.objects[i];
    db.Update({obj.key, obj.value + " (calibrated)"});
    ++corrected;
  }
  std::printf("corrected %d readings in place\n", corrected);

  // The auditor pulls a verified 10-minute window.
  const Key window_lo = kDayStart + 600 * kTick;
  const Key window_hi = kDayStart + 1200 * kTick;
  core::VerifiedSpecResult audit =
      db.AuthenticatedSpec(core::QuerySpec::Range(window_lo, window_hi));
  std::printf("audit window: %zu readings, verified: %s\n", audit.objects.size(),
              audit.ok ? "yes" : audit.error.c_str());
  std::printf("  VO_sp %.1f KB, VO_chain %.1f KB\n",
              static_cast<double>(audit.vo_sp_bytes) / 1024.0,
              static_cast<double>(audit.vo_chain_bytes) / 1024.0);
  for (size_t i = 0; i < audit.objects.size() && i < 3; ++i) {
    std::printf("  %lld: %s\n", static_cast<long long>(audit.objects[i].key),
                audit.objects[i].value.c_str());
  }

  // A light client checks every header from genesis: height, linkage, PoW.
  chain::LightClient client(chain.headers().front());
  if (client.Sync(chain.headers()) != chain.height()) {
    std::printf("FATAL: chain validation failed at header %zu\n",
                client.height() + 1);
    return 1;
  }
  std::printf("blockchain validated: %zu blocks, %llu transactions\n",
              chain.height(),
              static_cast<unsigned long long>(db.environment().num_transactions()));
  return audit.ok ? 0 : 1;
}
