/// \file wire_v3.h
/// Wire format v3, the one encoding of the SP -> client protocol.
///
/// A fixed-width encoding spends most of a response's bytes on integers and
/// on repeated 32-byte hashes: a composite response carries one body per
/// shard slice, and the slices' VOs frequently prune the *same* subtrees (the
/// shards flank a shared seam). v3 encodes the information compactly:
///
///   image      := 0x03 kind table payload
///   table      := varint(count) count * hash32
///   payload/0  := body                                   (single)
///   payload/1  := zz(lb) varint(ub-lb) varint(n>=1) n * slice  (composite)
///   slice      := varint(shard) varint(len) body
///   body       := zz(lb) varint(ub-lb)
///                 varint(nsplits) nsplits * zzdelta
///                 varint(ntrees) ntrees * tree
///   tree       := varint(|label|) label varint(nobjects) nobjects * object vo
///   object     := zzdelta(key) varint(|value|) value
///   vo         := 0x00 | 0x01 child
///   child      := 0x01 zzdelta(key)                       (result entry)
///               | 0x02 zzdelta(key) hashref               (boundary entry)
///               | 0x03 zzdelta(lo) varint(hi-lo) hashref  (pruned subtree)
///               | 0x04 varint(n) n * child                (expanded node)
///   hashref    := varint(0) hash32 | varint(slot+1)
///
/// All varints are canonical (minimal-length) LEB128; zz is the zigzag
/// mapping of a signed 64-bit value; zzdelta is zz of the difference from the
/// previous key in the chain (chains start at the body's lb; a pruned element
/// advances the chain to its hi). Key and length deltas use wrapping 64-bit
/// arithmetic, so every (prev, value) pair round-trips.
///
/// The hash table dedups 32-byte hashes (boundary value hashes and pruned
/// content hashes) that occur more than once anywhere in the response — the
/// Monad MPT "node reference" idiom applied to VO subtrees. Slots are
/// assigned in first-encounter order. The parser is strictly canonical: it
/// rejects non-minimal varints, duplicate or unreferenced table entries,
/// inline hashes that repeat or shadow a table slot, first references out of
/// slot order, and trailing bytes — so every accepted image re-serializes to
/// the identical bytes, the invariant the byte-level fault harness relies on.
/// The parser is fail-closed: malformed input yields std::nullopt, never a
/// throw.
#ifndef GEM2_CORE_WIRE_V3_H_
#define GEM2_CORE_WIRE_V3_H_

#include <optional>

#include "core/response.h"

namespace gem2::core::wirev3 {

/// The v3 version byte (first byte of every v3 image).
inline constexpr uint8_t kVersion = 3;

/// Appends `v` as a canonical (minimal-length) LEB128 varint.
void AppendVarint(Bytes* out, uint64_t v);

/// Zigzag mapping between signed values and small unsigned varints.
uint64_t ZigzagEncode(int64_t v);
int64_t ZigzagDecode(uint64_t v);

/// Reads a canonical varint from `data` starting at `*pos`, advancing `*pos`.
/// std::nullopt on truncation, 64-bit overflow, or a non-minimal encoding
/// (`*pos` is unspecified after a failure).
std::optional<uint64_t> ReadVarint(const Bytes& data, size_t* pos);

/// Location of the subtree-hash table inside a v3 image, for surgical edits
/// by the fault layer's v3 mutation operators.
struct TableInfo {
  size_t offset = 0;    ///< byte offset of the first 32-byte entry
  uint64_t count = 0;   ///< number of entries
};

/// Parses just far enough into `image` to locate the hash table. nullopt if
/// the image is not v3 or the header/table framing is malformed.
std::optional<TableInfo> LocateTable(const Bytes& image);

/// Serializes a full query response as a v3 image.
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
