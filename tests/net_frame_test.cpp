// Frame-protocol robustness: round-trips for every frame type, the no-copy
// BeginFrame/FinishFrame path is byte-identical to EncodeFrame, a frame
// truncated at EVERY offset never decodes, every single-byte flip is either
// rejected or visibly changes the decoded frame (mirroring wire_v3_test's
// discipline on the wire image), and the decoder fails closed — bad magic,
// unknown type, reserved bits, oversized lengths — and stays failed.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/frame.h"
#include "seed_util.h"

namespace gem2::net {
namespace {

using testutil::SeedReporter;

Bytes BodyOf(const char* text) {
  return Bytes(reinterpret_cast<const uint8_t*>(text),
               reinterpret_cast<const uint8_t*>(text) + std::strlen(text));
}

/// Decodes exactly one frame from `bytes`; fails the test on error or if
/// trailing bytes remain.
Frame DecodeOne(const Bytes& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(decoder.buffered(), 0u);
  Frame none;
  EXPECT_EQ(decoder.Next(&none), FrameDecoder::Result::kNeedMore);
  return frame;
}

TEST(NetFrame, RoundTripsEveryType) {
  const struct {
    FrameType type;
    Bytes body;
  } cases[] = {
      {FrameType::kQuery2,
       core::SerializeQuerySpec(core::QuerySpec::Range(1, 2))},
      {FrameType::kResponse, BodyOf("authenticated image bytes")},
      {FrameType::kBusy, Bytes{}},
      {FrameType::kError, BodyOf("diagnostic")},
  };
  uint64_t request_id = 1;
  for (const auto& c : cases) {
    const Bytes encoded = EncodeFrame(c.type, request_id, c.body);
    ASSERT_EQ(encoded.size(), kFrameHeaderBytes + c.body.size());
    const Frame frame = DecodeOne(encoded);
    EXPECT_EQ(frame.type, c.type);
    EXPECT_EQ(frame.request_id, request_id);
    EXPECT_EQ(frame.body, c.body);
    ++request_id;
  }
}

TEST(NetFrame, QueryBodyRoundTripsExtremeKeys) {
  const Key cases[][2] = {
      {0, 0},
      {-5, 17},
      {std::numeric_limits<Key>::min(), std::numeric_limits<Key>::max()},
      {-1, -1},
  };
  for (const auto& c : cases) {
    const Bytes encoded =
        EncodeQuery2Frame(99, core::QuerySpec::Range(c[0], c[1]));
    const Frame frame = DecodeOne(encoded);
    ASSERT_EQ(frame.type, FrameType::kQuery2);
    const auto body = ParseQuery2Body(frame.body);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, core::QuerySpec::Range(c[0], c[1]));
  }
}

TEST(NetFrame, ParseQueryBodyRejectsWrongSize) {
  // A query body is exactly one canonical spec image: nothing short of it,
  // nothing past it.
  const Bytes image = core::SerializeQuerySpec(core::QuerySpec::Range(0, 10));
  EXPECT_TRUE(ParseQuery2Body(image).has_value());
  EXPECT_FALSE(ParseQuery2Body(Bytes{}).has_value());
  EXPECT_FALSE(
      ParseQuery2Body(Bytes(image.begin(), image.end() - 1)).has_value());
  Bytes longer = image;
  longer.push_back(0);
  EXPECT_FALSE(ParseQuery2Body(longer).has_value());
}

TEST(NetFrame, BeginFinishMatchesEncodeByteForByte) {
  const Bytes body = BodyOf("response image serialized in place");
  Bytes framed;
  framed.push_back(0xEE);  // pre-existing bytes must survive untouched
  const size_t header = BeginFrame(&framed, FrameType::kResponse, 7777);
  framed.insert(framed.end(), body.begin(), body.end());
  FinishFrame(&framed, header);

  const Bytes reference = EncodeFrame(FrameType::kResponse, 7777, body);
  ASSERT_EQ(framed.size(), 1 + reference.size());
  EXPECT_EQ(framed[0], 0xEE);
  EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                         framed.begin() + 1));
}

TEST(NetFrame, DecodesByteAtATime) {
  // A slow-loris sender dribbling one byte per read still decodes cleanly.
  const Bytes encoded = EncodeFrame(FrameType::kResponse, 5, BodyOf("drip"));
  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i < encoded.size(); ++i) {
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore)
        << "frame completed early at byte " << i;
    decoder.Feed(&encoded[i], 1);
  }
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.request_id, 5u);
  EXPECT_EQ(frame.body, BodyOf("drip"));
}

TEST(NetFrame, DecodesPipelinedFramesFromOneBuffer) {
  Bytes stream;
  for (uint64_t id = 0; id < 16; ++id) {
    const Bytes one = EncodeQuery2Frame(
        id, core::QuerySpec::Range(Key(id) * 10, Key(id) * 10 + 5));
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  for (uint64_t id = 0; id < 16; ++id) {
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
    EXPECT_EQ(frame.request_id, id);
    const auto body = ParseQuery2Body(frame.body);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(body->predicates[0].lb, Key(id) * 10);
  }
  Frame none;
  EXPECT_EQ(decoder.Next(&none), FrameDecoder::Result::kNeedMore);
}

TEST(NetFrame, TruncationAtEveryOffsetNeverYieldsAFrame) {
  const Bytes encoded =
      EncodeFrame(FrameType::kResponse, 123, BodyOf("truncate me anywhere"));
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(encoded.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore)
        << "truncation at offset " << cut;
    EXPECT_FALSE(decoder.failed());
  }
}

TEST(NetFrame, EveryByteFlipIsRejectedOrVisiblyDifferent) {
  SeedReporter seed(20260808);
  const Bytes original =
      EncodeFrame(FrameType::kResponse, 0x0123456789abcdefull,
                  BodyOf("every byte of this frame is load-bearing"));
  const Frame reference = DecodeOne(original);
  for (size_t i = 0; i < original.size(); ++i) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      Bytes flipped = original;
      flipped[i] ^= uint8_t(1u << bit);
      FrameDecoder decoder;
      decoder.Feed(flipped.data(), flipped.size());
      Frame frame;
      const FrameDecoder::Result r = decoder.Next(&frame);
      if (r != FrameDecoder::Result::kFrame) continue;  // rejected: fine
      const bool identical = frame.type == reference.type &&
                             frame.request_id == reference.request_id &&
                             frame.body == reference.body;
      EXPECT_FALSE(identical)
          << "flip of byte " << i << " bit " << int(bit)
          << " decoded to a frame identical to the original";
    }
  }
}

TEST(NetFrame, Query2RoundTripsSpecShapes) {
  std::vector<core::QuerySpec> specs;
  specs.push_back(core::QuerySpec::Range(-10, 500));
  {
    core::QuerySpec both;
    both.op = core::BoolOp::kOr;
    both.predicates.push_back(
        core::Predicate{core::PredicateKind::kRange, 0, 1, 2});
    both.predicates.push_back(
        core::Predicate{core::PredicateKind::kRange, 3, -7, 7});
    specs.push_back(both);
    core::QuerySpec agg = core::QuerySpec::Range(0, 99, 1);
    agg.aggregate = core::AggregateKind::kSum;
    specs.push_back(agg);
  }
  uint64_t request_id = 40;
  for (const core::QuerySpec& spec : specs) {
    const Bytes encoded = EncodeQuery2Frame(request_id, spec);
    const Frame frame = DecodeOne(encoded);
    EXPECT_EQ(frame.type, FrameType::kQuery2);
    EXPECT_EQ(frame.request_id, request_id);
    const auto parsed = ParseQuery2Body(frame.body);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, spec);
    ++request_id;
  }
}

TEST(NetFrame, EncodeQuery2RefusesInvalidSpecs) {
  // An invalid spec must never reach the wire: the receiving decoder would
  // poison the connection.
  EXPECT_THROW(EncodeQuery2Frame(1, core::QuerySpec{}), std::invalid_argument);
  EXPECT_THROW(EncodeQuery2Frame(1, core::QuerySpec::Range(5, 4)),
               std::invalid_argument);
}

TEST(NetFrame, MalformedSpecBodyPoisonsDecoder) {
  // Spec validity is part of framing: a kQuery2 frame whose body is not one
  // valid canonical spec image kills the decoder like a bad magic would.
  const Bytes good = EncodeQuery2Frame(9, core::QuerySpec::Range(0, 10));
  for (const auto& mutate :
       {std::function<void(Bytes*)>([](Bytes* b) {
          b->pop_back();
          (*b)[19] = static_cast<uint8_t>((*b)[19] - 1);  // shrink length too
        }),
        std::function<void(Bytes*)>([](Bytes* b) {
          (*b)[kFrameHeaderBytes] = 7;  // unknown BoolOp tag
        }),
        std::function<void(Bytes*)>([](Bytes* b) {
          // Out-of-order bounds: parses structurally, fails Check.
          for (size_t i = 0; i < 8; ++i) {
            std::swap((*b)[kFrameHeaderBytes + 19 + i],
                      (*b)[kFrameHeaderBytes + 27 + i]);
          }
        })}) {
    Bytes bad = good;
    mutate(&bad);
    FrameDecoder decoder;
    decoder.Feed(bad.data(), bad.size());
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
    EXPECT_TRUE(decoder.failed());
    EXPECT_EQ(decoder.error(), "malformed query spec body");
    // Poisoned for good: a pristine frame cannot resurrect the stream.
    const Bytes fine = EncodeFrame(FrameType::kBusy, 2, {});
    decoder.Feed(fine.data(), fine.size());
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  }
}

TEST(NetFrame, RetiredQueryTypeOnePoisonsDecoder) {
  // Type byte 1 was the fixed-width range query (16-byte lb, ub body). It is
  // no longer a frame type: it kills the stream like any unknown type, and a
  // valid kQuery2 frame behind it never decodes.
  Bytes stream = EncodeQuery2Frame(1, core::QuerySpec::Range(5, 9));
  Bytes retired;
  AppendFrameHeader(&retired, FrameType::kQuery2, 2, 16);
  retired[4] = 1;
  retired.insert(retired.end(), 16, 0);
  stream.insert(stream.end(), retired.begin(), retired.end());
  const Bytes after = EncodeQuery2Frame(3, core::QuerySpec::Range(5, 9));
  stream.insert(stream.end(), after.begin(), after.end());
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.request_id, 1u);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), "unknown frame type");
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_TRUE(decoder.failed());
}

TEST(NetFrame, RejectsBadMagic) {
  Bytes encoded = EncodeFrame(FrameType::kBusy, 1, {});
  encoded[0] = 'X';
  FrameDecoder decoder;
  decoder.Feed(encoded.data(), encoded.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);
}

TEST(NetFrame, RejectsUnknownTypeAndReservedBits) {
  for (const size_t tampered : {size_t{4}, size_t{5}, size_t{6}, size_t{7}}) {
    Bytes encoded = EncodeFrame(FrameType::kBusy, 1, {});
    encoded[tampered] = (tampered == 4) ? 0x7f : 0x01;
    FrameDecoder decoder;
    decoder.Feed(encoded.data(), encoded.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError)
        << "tampered header byte " << tampered;
    EXPECT_TRUE(decoder.failed());
  }
}

TEST(NetFrame, RejectsOversizedFrameBeforeBufferingBody) {
  // Cap at 1 KiB; a header claiming 2 KiB is rejected from the header alone.
  FrameDecoder decoder(1024);
  Bytes header;
  AppendFrameHeader(&header, FrameType::kResponse, 1, 2048);
  decoder.Feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_NE(decoder.error().find("oversized"), std::string::npos);
}

TEST(NetFrame, DecoderStaysFailedAfterError) {
  Bytes bad = EncodeFrame(FrameType::kBusy, 1, {});
  bad[0] = 0;
  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  // A valid frame fed afterwards must NOT resurrect the stream: framing is
  // never resynchronized after damage.
  const Bytes good = EncodeFrame(FrameType::kBusy, 2, {});
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_TRUE(decoder.failed());
}

}  // namespace
}  // namespace gem2::net
