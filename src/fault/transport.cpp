#include "fault/transport.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::fault {
namespace {

void Count(const char* name, uint64_t delta = 1) {
  if (telemetry::kCompiledIn) {
    telemetry::MetricsRegistry::Global().counter(name).Add(delta);
  }
}

void Observe(const char* name, uint64_t value) {
  if (telemetry::kCompiledIn) {
    telemetry::MetricsRegistry::Global().histogram(name).Observe(value);
  }
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

uint64_t RetryPolicy::BackoffUs(uint32_t attempt, Rng& rng) const {
  double backoff = static_cast<double>(base_backoff_us);
  for (uint32_t i = 1; i < attempt; ++i) {
    backoff *= multiplier;
    if (backoff >= static_cast<double>(max_backoff_us)) break;
  }
  uint64_t capped = std::min(static_cast<uint64_t>(backoff), max_backoff_us);
  if (capped > 1) capped += rng.Uniform(0, capped / 2);
  return std::min(capped, max_backoff_us + max_backoff_us / 2);
}

RetryingClient::RetryingClient(core::RangeStore& db, FlakyChannel& channel,
                               RetryPolicy policy, uint64_t seed)
    : db_(db), channel_(channel), policy_(policy), rng_(seed) {}

ClientOutcome RetryingClient::AuthenticatedSpec(const core::QuerySpec& spec) {
  ClientOutcome outcome;
  std::string last_error = "no attempt made";

  while (outcome.attempts < policy_.max_attempts &&
         outcome.elapsed_us < policy_.deadline_us) {
    ++outcome.attempts;
    // The SP recomputes the answer per attempt, as a real server would.
    FlakyChannel::Delivery delivery = channel_.Transmit(db_.SpecWire(spec));

    if (delivery.packets.empty()) {
      outcome.elapsed_us += policy_.attempt_timeout_us;
      last_error = "response timed out";
    } else {
      outcome.elapsed_us += delivery.latency_us;
      // Duplicate delivery: the first packet that verifies wins; the rest
      // are ignored. A corrupted copy next to a clean one must not matter.
      for (const Bytes& packet : delivery.packets) {
        core::VerifiedSpecResult vr = db_.VerifySpecWire(spec, packet);
        if (vr.ok) {
          outcome.ok = true;
          outcome.result = std::move(vr);
          break;
        }
        last_error = vr.error;
      }
      if (outcome.ok) break;
    }

    if (outcome.attempts < policy_.max_attempts &&
        outcome.elapsed_us < policy_.deadline_us) {
      const uint64_t backoff = policy_.BackoffUs(outcome.attempts, rng_);
      outcome.elapsed_us += backoff;
      Observe("client.retry.backoff_us", backoff);
    }
  }

  Observe("client.retry.attempts", outcome.attempts);
  if (!outcome.ok) {
    outcome.degraded = true;
    outcome.error = "degraded after " + std::to_string(outcome.attempts) +
                    " attempts (" + std::to_string(outcome.elapsed_us) +
                    "us elapsed): " + last_error;
    Count("client.query.degraded");
  } else if (outcome.attempts > 1) {
    Count("client.query.recovered");
  }
  return outcome;
}

}  // namespace gem2::fault
