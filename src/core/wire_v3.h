/// \file wire_v3.h
/// Wire format v3, the one encoding of the SP -> client protocol.
///
/// A fixed-width encoding spends most of a response's bytes on integers and
/// ships every result key twice (in the object list and in its VO entry).
/// v3 encodes each fact once, compactly:
///
///   image      := 0x03 kind payload
///   payload/0  := body                                   (single)
///   payload/1  := zz(lb) varint(ub-lb) varint(n>=1) n * slice  (composite)
///   slice      := varint(shard) varint(len) body
///   body       := zz(lb) varint(ub-lb)
///                 varint(nsplits) nsplits * zzdelta
///                 varint(ntrees) ntrees * tree
///   tree       := varint(|label|) label varint(nobjects) vo
///   vo         := 0x00 | 0x01 child
///   child      := 0x01 zzdelta(key) varint(|value|) value (result entry)
///               | 0x02 zzdelta(key) hash32                (boundary entry)
///               | 0x03 zzdelta(lo) varint(hi-lo) hash32   (pruned subtree)
///               | varint(3+n) n * child                   (expanded node, n>=1)
///
/// All varints are canonical (minimal-length) LEB128; zz is the zigzag
/// mapping of a signed 64-bit value; zzdelta is zz of the difference from the
/// previous key in the tree's VO chain (chains start at the body's lb; a
/// pruned element advances the chain to its hi). Key and length deltas use
/// wrapping 64-bit arithmetic, so every (prev, value) pair round-trips.
/// A `child` is one ads::VoElement (ads/vo.h): a TreeVo's elements are the
/// VO's children in this preorder, so both directions are one loop.
///
/// A tree's result records travel inside its result entries, in VO order:
/// the encoder throws std::invalid_argument when `objects` does not list the
/// result entries' records in that order (only a forged struct can), and the
/// parser rebuilds `objects` from the entries, so no image carries a record
/// its VO does not prove. `nobjects` is a reserve hint that must equal the
/// number of result entries. The parser is strictly canonical (non-minimal
/// varints, a wrong `nobjects` and trailing bytes are rejected), so every
/// accepted image re-serializes to the identical bytes, the invariant the
/// byte-level fault harness relies on. It is fail-closed: malformed input
/// yields std::nullopt, never a throw.
#ifndef GEM2_CORE_WIRE_V3_H_
#define GEM2_CORE_WIRE_V3_H_

#include <optional>
#include <span>
#include <string>

#include "core/response.h"

namespace gem2::core::wirev3 {

/// The v3 version byte (first byte of every v3 image).
inline constexpr uint8_t kVersion = 3;

/// Appends `v` as a canonical (minimal-length) LEB128 varint.
void AppendVarint(Bytes* out, uint64_t v);
void AppendVarint(std::string* out, uint64_t v);

/// Zigzag mapping between signed values and small unsigned varints.
uint64_t ZigzagEncode(int64_t v);
int64_t ZigzagDecode(uint64_t v);

/// Reads a canonical varint from `data` starting at `*pos`, advancing `*pos`.
/// std::nullopt on truncation, 64-bit overflow, or a non-minimal encoding
/// (`*pos` is unspecified after a failure). The one varint reader: images
/// and multi-attribute records (multiattr_db.h) both parse through it.
std::optional<uint64_t> ReadVarint(std::span<const uint8_t> data, size_t* pos);

/// Serializes a full query response as a v3 image. Throws
/// std::invalid_argument when a tree's objects are not its result entries'
/// records in VO order, or its VO elements do not form one tree (an expanded
/// node with no children, fewer elements than the child counts need, or
/// elements after the root's subtree).
Bytes Serialize(const QueryResponse& response);

/// Appends the v3 image to `*out` (byte-identical to Serialize) so callers
/// can encode into an already-framed outbound buffer without a copy.
void SerializeInto(const QueryResponse& response, Bytes* out);

/// Parses a v3 image; std::nullopt on malformed (or non-canonical) input.
std::optional<QueryResponse> Parse(const Bytes& data);

/// As Parse, over the `size` bytes at `data` (an image embedded in a larger
/// buffer, such as a spec envelope's conjunct, parses in place).
std::optional<QueryResponse> Parse(const uint8_t* data, size_t size);

}  // namespace gem2::core::wirev3

#endif  // GEM2_CORE_WIRE_V3_H_
