#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace gem2::net {
namespace {

bool KnownType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kResponse) &&
         t <= static_cast<uint8_t>(FrameType::kQuery2);
}

uint32_t ReadU32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// Decodes a header from `len` available bytes. kNeedMore until 20 bytes are
/// present; kError on any malformed field.
enum class HeaderStatus { kOk, kNeedMore, kBad };

HeaderStatus DecodeHeader(const uint8_t* data, size_t len,
                          uint32_t max_frame_bytes, FrameHeader* out,
                          std::string* error) {
  if (len < kFrameHeaderBytes) return HeaderStatus::kNeedMore;
  if (std::memcmp(data, kFrameMagic, 4) != 0) {
    *error = "bad frame magic";
    return HeaderStatus::kBad;
  }
  if (!KnownType(data[4])) {
    *error = "unknown frame type";
    return HeaderStatus::kBad;
  }
  if (data[5] != 0 || data[6] != 0 || data[7] != 0) {
    *error = "nonzero reserved frame bits";
    return HeaderStatus::kBad;
  }
  out->type = static_cast<FrameType>(data[4]);
  out->request_id = ReadU64(data + 8);
  out->length = ReadU32(data + 16);
  if (out->length > max_frame_bytes) {
    *error = "oversized frame";
    return HeaderStatus::kBad;
  }
  return HeaderStatus::kOk;
}

}  // namespace

void AppendFrameHeader(Bytes* out, FrameType type, uint64_t request_id,
                       uint32_t length) {
  out->insert(out->end(), kFrameMagic, kFrameMagic + 4);
  out->push_back(static_cast<uint8_t>(type));
  out->push_back(0);
  out->push_back(0);
  out->push_back(0);
  AppendUint64(out, request_id);
  out->push_back(static_cast<uint8_t>(length >> 24));
  out->push_back(static_cast<uint8_t>(length >> 16));
  out->push_back(static_cast<uint8_t>(length >> 8));
  out->push_back(static_cast<uint8_t>(length));
}

size_t BeginFrame(Bytes* out, FrameType type, uint64_t request_id) {
  const size_t offset = out->size();
  AppendFrameHeader(out, type, request_id, 0);
  return offset;
}

void FinishFrame(Bytes* out, size_t header_offset) {
  const size_t body = out->size() - header_offset - kFrameHeaderBytes;
  if (body > UINT32_MAX) throw std::length_error("frame body exceeds 4 GiB");
  uint8_t* p = out->data() + header_offset + 16;
  p[0] = static_cast<uint8_t>(body >> 24);
  p[1] = static_cast<uint8_t>(body >> 16);
  p[2] = static_cast<uint8_t>(body >> 8);
  p[3] = static_cast<uint8_t>(body);
}

Bytes EncodeFrame(FrameType type, uint64_t request_id, const Bytes& body) {
  if (body.size() > UINT32_MAX) {
    throw std::length_error("frame body exceeds 4 GiB");
  }
  Bytes out;
  out.reserve(kFrameHeaderBytes + body.size());
  AppendFrameHeader(&out, type, request_id,
                    static_cast<uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes EncodeQuery2Frame(uint64_t request_id, const core::QuerySpec& spec) {
  const std::string invalid = spec.Check();
  if (!invalid.empty()) {
    throw std::invalid_argument("EncodeQuery2Frame: " + invalid);
  }
  const Bytes body = core::SerializeQuerySpec(spec);
  Bytes out;
  out.reserve(kFrameHeaderBytes + body.size());
  AppendFrameHeader(&out, FrameType::kQuery2, request_id,
                    static_cast<uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<core::QuerySpec> ParseQuery2Body(const Bytes& body) {
  return core::ParseQuerySpec(body);
}

void FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (failed_ || len == 0) return;
  // Compact the consumed prefix before growing: a connection that pipelines
  // many frames would otherwise keep every byte it ever received buffered.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ >= 4096)) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + len);
}

FrameDecoder::Result FrameDecoder::Next(Frame* out) {
  if (failed_) return Result::kError;
  FrameHeader header;
  const HeaderStatus status = DecodeHeader(
      buffer_.data() + pos_, buffer_.size() - pos_, max_frame_bytes_, &header,
      &error_);
  if (status == HeaderStatus::kBad) {
    failed_ = true;
    return Result::kError;
  }
  if (status == HeaderStatus::kNeedMore ||
      buffer_.size() - pos_ < kFrameHeaderBytes + header.length) {
    return Result::kNeedMore;
  }
  out->type = header.type;
  out->request_id = header.request_id;
  const uint8_t* body = buffer_.data() + pos_ + kFrameHeaderBytes;
  out->body.assign(body, body + header.length);
  pos_ += kFrameHeaderBytes + header.length;
  // Spec validity is part of framing: a kQuery2 body that is not one valid
  // canonical QuerySpec image poisons the decoder — the peer is either
  // confused or malicious, and resynchronizing would only guess.
  if (out->type == FrameType::kQuery2 &&
      !core::ParseQuerySpec(out->body).has_value()) {
    failed_ = true;
    error_ = "malformed query spec body";
    return Result::kError;
  }
  return Result::kFrame;
}

}  // namespace gem2::net
