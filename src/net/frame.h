/// \file frame.h
/// Length-prefixed framing for the SP service protocol: the byte-stream
/// record layer the reactor speaks on every connection. A frame is a
/// fixed-size header followed by a variable body:
///
///   header (20 bytes):
///     [0..3]   magic "G2F1"
///     [4]      type   (FrameType)
///     [5]      flags  (must be 0 in this version)
///     [6..7]   reserved (must be 0)
///     [8..15]  request id, big-endian u64
///     [16..19] body length, big-endian u32
///   body:
///     kQuery2:   a canonical core::QuerySpec image (SerializeQuerySpec) —
///                every query, a plain range being QuerySpec::Range. The
///                decoder validates the spec as part of framing: a malformed
///                spec body poisons the decoder exactly like a bad magic
///                would.
///     kResponse: the traced-envelope + wire image exactly as SpecWire
///                produces it (the frame carries the GTW1 context
///                *alongside* the authenticated bytes, never inside them)
///     kBusy:     empty — explicit load-shed, the client should back off
///     kError:    UTF-8 diagnostic message
///
/// The request id correlates responses with requests: admission-controlled
/// servers may answer out of order, and a client may pipeline many requests
/// on one connection. Ids are chosen by the client and echoed verbatim.
///
/// Type byte 1 (the retired fixed-width range query) is not a known type.
///
/// Decoding is fail-closed in the same spirit as the wire codecs: a bad
/// magic, unknown type, nonzero flags/reserved bits, or a body length above
/// the configured cap is a framing error — the server answers kError and
/// drops the connection; it never guesses at resynchronization.
#ifndef GEM2_NET_FRAME_H_
#define GEM2_NET_FRAME_H_

#include <cstddef>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "core/query_spec.h"

namespace gem2::net {

enum class FrameType : uint8_t {
  kResponse = 2,
  kBusy = 3,
  kError = 4,
  kQuery2 = 5,
};

inline constexpr uint8_t kFrameMagic[4] = {'G', '2', 'F', '1'};
inline constexpr size_t kFrameHeaderBytes = 20;

/// Default body-length cap. Request frames are a few dozen bytes; response
/// images for sane selectivities are well under this. Anything larger is
/// rejected before a single body byte is buffered.
inline constexpr uint32_t kDefaultMaxFrameBytes = 64u << 20;

struct FrameHeader {
  FrameType type = FrameType::kQuery2;
  uint64_t request_id = 0;
  uint32_t length = 0;
};

/// One decoded frame (header + body copy).
struct Frame {
  FrameType type = FrameType::kQuery2;
  uint64_t request_id = 0;
  Bytes body;
};

/// Appends a complete frame header. `length` must be the final body size.
void AppendFrameHeader(Bytes* out, FrameType type, uint64_t request_id,
                       uint32_t length);

/// Begins a frame whose body will be appended directly behind the header
/// (the no-copy serving path): writes a header with a zero length field and
/// returns its offset in `*out`. FinishFrame patches the length once the
/// body is in place.
size_t BeginFrame(Bytes* out, FrameType type, uint64_t request_id);

/// Patches the length field of the header at `header_offset` to cover all
/// bytes appended since BeginFrame. Throws std::length_error if the body
/// outgrew UINT32_MAX.
void FinishFrame(Bytes* out, size_t header_offset);

/// Encodes a full frame in one buffer.
Bytes EncodeFrame(FrameType type, uint64_t request_id, const Bytes& body);

/// Encodes a kQuery2 frame carrying `spec` (canonical QuerySpec image).
/// Throws std::invalid_argument for a structurally invalid spec — an invalid
/// spec must never reach the wire (the receiving decoder would poison).
Bytes EncodeQuery2Frame(uint64_t request_id, const core::QuerySpec& spec);

/// Parses a kQuery2 body; std::nullopt unless the whole body is one valid
/// canonical spec image (core::ParseQuerySpec, fail-closed).
std::optional<core::QuerySpec> ParseQuery2Body(const Bytes& body);

/// Incremental fail-closed decoder over a connection's inbound byte stream.
/// Feed whatever read() produced; Next() pops complete frames. After an
/// error the decoder stays failed — the connection must be dropped, framing
/// is never resynchronized.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const uint8_t* data, size_t len);

  enum class Result {
    kFrame,     ///< *out holds the next frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< stream is malformed (see error()); decoder is dead
  };

  Result Next(Frame* out);

  const std::string& error() const { return error_; }
  bool failed() const { return failed_; }
  /// Bytes buffered but not yet consumed by a popped frame.
  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  uint32_t max_frame_bytes_;
  Bytes buffer_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace gem2::net

#endif  // GEM2_NET_FRAME_H_
