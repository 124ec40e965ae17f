#include "fault/transport.h"

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::fault {
namespace {

void Count(const char* name, uint64_t delta = 1) {
  telemetry::MetricsRegistry::Global().counter(name).Add(delta);
}

}  // namespace

FlakyChannel::FlakyChannel(ChannelOptions options, uint64_t seed)
    : options_(options), rng_(seed) {}

FlakyChannel::Delivery FlakyChannel::Transmit(const Bytes& payload) {
  ++stats_.sent;
  Count("transport.sent");
  Delivery delivery;
  delivery.latency_us =
      options_.latency_us +
      (options_.jitter_us > 0 ? rng_.Uniform(0, options_.jitter_us) : 0);

  // Reordering: an earlier response surfaces from the network instead of
  // this one. The real payload is "in flight" and becomes the next stale
  // candidate either way.
  Bytes effective = payload;
  if (!previous_.empty() && rng_.Chance(options_.reorder_rate)) {
    effective = previous_;
    ++stats_.reordered;
    Count("transport.reordered");
  }
  previous_ = payload;

  if (rng_.Chance(options_.drop_rate)) {
    ++stats_.dropped;
    Count("transport.dropped");
    return delivery;  // no packets: the client times out
  }

  if (rng_.Chance(options_.truncate_rate) && effective.size() > 1) {
    effective.resize(rng_.Uniform(1, effective.size() - 1));
    ++stats_.truncated;
    Count("transport.truncated");
  }
  if (rng_.Chance(options_.corrupt_rate) && !effective.empty()) {
    const int flips = static_cast<int>(rng_.Uniform(1, 4));
    for (int i = 0; i < flips; ++i) {
      effective[rng_.Uniform(0, effective.size() - 1)] ^=
          static_cast<uint8_t>(rng_.Uniform(1, 255));
    }
    ++stats_.corrupted;
    Count("transport.corrupted");
  }

  delivery.packets.push_back(effective);
  if (rng_.Chance(options_.duplicate_rate)) {
    delivery.packets.push_back(effective);
    ++stats_.duplicated;
    Count("transport.duplicated");
  }
  stats_.delivered += delivery.packets.size();
  Count("transport.delivered", delivery.packets.size());
  return delivery;
}

}  // namespace gem2::fault
