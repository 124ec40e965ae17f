// Cross-role trace propagation tests: trace-context plumbing (NewTrace /
// TraceScope / ContinueTrace), the traced wire envelope (frames the
// authenticated image without touching its bytes), and the tentpole
// guarantee — a sharded scatter-gather query produces ONE parent span and
// exactly `slices` child spans sharing its trace id.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "core/wire.h"
#include "range_conjunct.h"
#include "shard/sharded_db.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace gem2::telemetry {
namespace {

using core::AdsKind;
using core::DbOptions;
using shard::ShardedDb;
using shard::ShardOptions;

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().ClearSinks();
    collector_ = std::make_shared<CollectorSink>();
    Tracer::Global().AddSink(collector_);
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override { Tracer::Global().ClearSinks(); }

  std::shared_ptr<CollectorSink> collector_;
};

// ---------------------------------------------------------------------------
// TraceContext primitives
// ---------------------------------------------------------------------------

TEST_F(TraceFixture, NewTraceIsValidAndUnique) {
  TraceContext a = NewTrace();
  TraceContext b = NewTrace();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.SameTraceAs(b));
  EXPECT_EQ(a.parent_span, 0u);
  EXPECT_FALSE(TraceContext{}.valid());
}

TEST_F(TraceFixture, TraceScopeInstallsAndRestores) {
  EXPECT_FALSE(CurrentTrace().valid());
  TraceContext outer = NewTrace();
  {
    TraceScope scope(outer);
    EXPECT_TRUE(CurrentTrace().SameTraceAs(outer));
    // ContinueTrace keeps an installed trace instead of minting a new one.
    EXPECT_TRUE(ContinueTrace().SameTraceAs(outer));
    TraceContext inner = NewTrace();
    {
      TraceScope nested(inner);
      EXPECT_TRUE(CurrentTrace().SameTraceAs(inner));
    }
    EXPECT_TRUE(CurrentTrace().SameTraceAs(outer));
  }
  EXPECT_FALSE(CurrentTrace().valid());
  // With nothing installed, ContinueTrace mints a fresh identity.
  EXPECT_TRUE(ContinueTrace().valid());
}

TEST_F(TraceFixture, TraceIdHexIs32LowercaseChars) {
  TraceContext t = NewTrace();
  std::string hex = t.TraceIdHex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

// ---------------------------------------------------------------------------
// Traced wire envelope
// ---------------------------------------------------------------------------

TEST_F(TraceFixture, TracedWireRoundTripsContextAndImage) {
  Bytes image = {0x02, 0xaa, 0xbb, 0xcc};  // arbitrary payload bytes
  TraceContext t = NewTrace();
  t.parent_span = 77;
  Bytes wire = core::WrapTracedWire(t, image);
  ASSERT_GT(wire.size(), image.size());
  core::TracedWire unwrapped = core::UnwrapTracedWire(wire);
  EXPECT_TRUE(unwrapped.trace.SameTraceAs(t));
  EXPECT_EQ(unwrapped.trace.parent_span, 77u);
  // The authenticated image is byte-identical: the envelope frames it, it
  // never rewrites it.
  EXPECT_EQ(unwrapped.image, image);
}

TEST_F(TraceFixture, BareImagePassesThroughUnframed) {
  Bytes image = {0x02, 0x01, 0x02, 0x03};
  core::TracedWire unwrapped = core::UnwrapTracedWire(image);
  EXPECT_FALSE(unwrapped.trace.valid());
  EXPECT_EQ(unwrapped.image, image);
  // An invalid context wraps to the bare image (no header at all), so
  // telemetry-off producers emit exactly the pre-envelope format.
  EXPECT_EQ(core::WrapTracedWire(TraceContext{}, image), image);
}

// ---------------------------------------------------------------------------
// Sharded scatter-gather span tree (the tentpole invariant)
// ---------------------------------------------------------------------------

std::unique_ptr<ShardedDb> BuildStore(size_t shards) {
  ShardOptions opts;
  opts.base.kind = AdsKind::kGem2;
  opts.base.gem2.m = 2;
  opts.base.gem2.smax = 16;
  for (size_t i = 1; i < shards; ++i) {
    opts.bounds.push_back(static_cast<Key>(i * 1000));
  }
  auto db = std::make_unique<ShardedDb>(std::move(opts));
  for (size_t s = 0; s < shards; ++s) {
    for (Key k = 0; k < 20; ++k) {
      db->Insert({static_cast<Key>(s * 1000 + k * 17), "v"});
    }
  }
  return db;
}

struct SpanTree {
  uint64_t parent_span_id = 0;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  std::vector<SpanRecord> children;  // the scatter's per-slice sp.query spans
};

SpanTree CollectQueryTree(CollectorSink& collector) {
  std::vector<SpanRecord> spans = collector.TakeSpans();
  SpanTree tree;
  const SpanRecord* parent = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "shard.query") {
      EXPECT_EQ(parent, nullptr) << "more than one scatter parent span";
      parent = &s;
    }
  }
  EXPECT_NE(parent, nullptr) << "no shard.query span recorded";
  if (parent == nullptr) return tree;
  tree.parent_span_id = parent->id;
  tree.trace_hi = parent->trace_hi;
  tree.trace_lo = parent->trace_lo;
  for (const SpanRecord& s : spans) {
    if (s.name == "sp.query" && s.parent_id == parent->id) {
      tree.children.push_back(s);
    }
  }
  return tree;
}

TEST_F(TraceFixture, ScatterGatherEmitsOneParentAndOneChildPerSlice) {
  constexpr size_t kShards = 3;
  auto db = BuildStore(kShards);
  collector_->TakeSpans();  // drop build-phase spans

  // The query overlaps all three shards, so the plan has three slices.
  core::QueryResponse response = testutil::RangeConjunct(*db, 10, 2500);
  ASSERT_EQ(response.slices.size(), kShards);
  EXPECT_TRUE(response.trace.valid());

  SpanTree tree = CollectQueryTree(*collector_);
  ASSERT_EQ(tree.children.size(), kShards);
  EXPECT_NE(tree.trace_hi | tree.trace_lo, 0u);
  // The response hands the client the same identity that tagged the spans.
  EXPECT_EQ(response.trace.trace_hi, tree.trace_hi);
  EXPECT_EQ(response.trace.trace_lo, tree.trace_lo);
  EXPECT_EQ(response.trace.parent_span, tree.parent_span_id);
  for (const SpanRecord& child : tree.children) {
    EXPECT_EQ(child.trace_hi, tree.trace_hi);
    EXPECT_EQ(child.trace_lo, tree.trace_lo);
    EXPECT_EQ(child.parent_id, tree.parent_span_id);
  }
}

TEST_F(TraceFixture, ClientVerifyJoinsTheQueryTrace) {
  auto db = BuildStore(2);
  collector_->TakeSpans();

  const core::QuerySpec spec = core::QuerySpec::Range(10, 1500);
  const core::SpecResponse response = db->ExecuteSpec(spec);
  core::VerifiedSpecResult vr = db->VerifySpecFor(spec, response);
  ASSERT_TRUE(vr.ok) << vr.error;

  std::vector<SpanRecord> spans = collector_->TakeSpans();
  const SpanRecord* verify = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "shard.verify") verify = &s;
  }
  ASSERT_NE(verify, nullptr);
  EXPECT_EQ(verify->trace_hi, response.trace.trace_hi);
  EXPECT_EQ(verify->trace_lo, response.trace.trace_lo);
}

TEST_F(TraceFixture, WireTransportCarriesTraceToTheClient) {
  auto db = BuildStore(2);
  collector_->TakeSpans();

  const core::QuerySpec spec = core::QuerySpec::Range(10, 1500);
  Bytes wire = db->SpecWire(spec);
  core::TracedWire traced = core::UnwrapTracedWire(wire);
  EXPECT_TRUE(traced.trace.valid());

  core::VerifiedSpecResult vr = db->VerifySpecWire(spec, wire);
  ASSERT_TRUE(vr.ok) << vr.error;
  std::vector<SpanRecord> spans = collector_->TakeSpans();
  const SpanRecord* verify = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "shard.verify") verify = &s;
  }
  ASSERT_NE(verify, nullptr);
  // The envelope delivered the SP-side identity across the byte boundary.
  EXPECT_EQ(verify->trace_hi, traced.trace.trace_hi);
  EXPECT_EQ(verify->trace_lo, traced.trace.trace_lo);
}

}  // namespace
}  // namespace gem2::telemetry
