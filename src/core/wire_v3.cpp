#include "core/wire_v3.h"

#include <algorithm>
#include <cstring>

#include "ads/vo.h"

namespace gem2::core::wirev3 {
namespace {

constexpr uint8_t kKindSingle = 0;
constexpr uint8_t kKindComposite = 1;

// VO child tags.
constexpr uint8_t kTagEntryResult = 1;
constexpr uint8_t kTagEntryBoundary = 2;
constexpr uint8_t kTagPruned = 3;
constexpr uint8_t kTagNode = 4;

uint64_t U(Key k) { return static_cast<uint64_t>(k); }

/// A hash's first 8 bytes: hashes are uniform, so sorting on these orders
/// almost every pair without reading the other 24.
uint64_t Prefix(const uint8_t* hash) {
  uint64_t prefix;
  std::memcpy(&prefix, hash, 8);
  return prefix;
}

/// A hash keyed for sorting: its prefix and its position (a reference's
/// index when encoding, the hash's image offset when parsing).
struct Ref {
  uint64_t prefix;
  size_t pos;
};

// ---------------------------------------------------------------------------
// Encoding

/// Every hash reference of one response, in serialization order (boundary
/// value hashes and pruned content hashes; result entries carry none).
void CensusChild(const ads::VoChild& child, std::vector<const Hash*>* refs) {
  if (const auto* e = std::get_if<ads::VoEntry>(&child)) {
    if (!e->is_result) refs->push_back(&e->value_hash);
    return;
  }
  if (const auto* p = std::get_if<ads::VoPruned>(&child)) {
    refs->push_back(&p->content_hash);
    return;
  }
  for (const ads::VoChild& c : std::get<ads::VoNodePtr>(child)->children) {
    CensusChild(c, refs);
  }
}

void CensusBody(const QueryResponse& r, std::vector<const Hash*>* refs) {
  for (const TreeResultSet& tree : r.trees) {
    if (!tree.vo.empty_tree && tree.vo.root) CensusChild(*tree.vo.root, refs);
  }
}

/// The subtree-hash table: hashes referenced >= 2 times anywhere in the
/// response, in first-encounter order. `codes[i]` is the hashref the i-th
/// reference (serialization order) encodes as — 0 for an inline hash, slot+1
/// for a table slot — so the serializer reads codes in sequence and never
/// looks a hash up.
struct HashTable {
  std::vector<const Hash*> entries;
  std::vector<uint32_t> codes;
};

HashTable BuildTable(const QueryResponse& response) {
  std::vector<const Hash*> refs;
  if (response.slices.empty()) {
    CensusBody(response, &refs);
  } else {
    for (const ShardSlice& slice : response.slices) {
      CensusBody(slice.response, &refs);
    }
  }
  const uint32_t n = static_cast<uint32_t>(refs.size());
  HashTable table;
  table.codes.assign(n, 0);
  if (n < 2) return table;

  // One index sort groups equal hashes, earliest reference first within a
  // group. It orders by the hashes' first 8 bytes and reads all 32 only on
  // a tie. Each reference of a repeated hash first records its group's
  // first reference + 1; singletons keep code 0 (inline).
  std::vector<Ref> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = {Prefix(refs[i]->data()), i};
  std::sort(order.begin(), order.end(), [&refs](const Ref& a, const Ref& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const int c = std::memcmp(refs[a.pos]->data(), refs[b.pos]->data(), 32);
    return c != 0 ? c < 0 : a.pos < b.pos;
  });
  std::vector<uint32_t>& codes = table.codes;
  for (uint32_t g = 0; g < n;) {
    uint32_t e = g + 1;
    while (e < n && order[e].prefix == order[g].prefix &&
           *refs[order[e].pos] == *refs[order[g].pos]) {
      ++e;
    }
    if (e - g >= 2) {
      for (uint32_t k = g; k < e; ++k) {
        codes[order[k].pos] = static_cast<uint32_t>(order[g].pos) + 1;
      }
    }
    g = e;
  }
  // In serialization order a group's first reference opens the next slot
  // and later references copy its code, already final since it comes
  // earlier.
  for (uint32_t i = 0; i < n; ++i) {
    if (codes[i] == 0) continue;
    if (codes[i] == i + 1) {
      table.entries.push_back(refs[i]);
      codes[i] = static_cast<uint32_t>(table.entries.size());
    } else {
      codes[i] = codes[codes[i] - 1];
    }
  }
  return table;
}

void AppendZigzag(Bytes* out, int64_t v) { AppendVarint(out, ZigzagEncode(v)); }

/// Appends zz(key - *prev) and advances the chain (wrapping arithmetic, so
/// any (prev, key) pair round-trips).
void AppendKeyDelta(Bytes* out, Key key, uint64_t* prev) {
  AppendZigzag(out, static_cast<int64_t>(U(key) - *prev));
  *prev = U(key);
}

/// Appends the hashref for the next reference in serialization order.
void AppendHashRef(Bytes* out, const Hash& h, const uint32_t** code) {
  const uint32_t c = *(*code)++;
  AppendVarint(out, c);
  if (c == 0) AppendHash(out, h);
}

void SerializeChild(const ads::VoChild& child, const uint32_t** code,
                    uint64_t* prev, Bytes* out) {
  if (const auto* e = std::get_if<ads::VoEntry>(&child)) {
    if (e->is_result) {
      out->push_back(kTagEntryResult);
      AppendKeyDelta(out, e->key, prev);
    } else {
      out->push_back(kTagEntryBoundary);
      AppendKeyDelta(out, e->key, prev);
      AppendHashRef(out, e->value_hash, code);
    }
    return;
  }
  if (const auto* p = std::get_if<ads::VoPruned>(&child)) {
    out->push_back(kTagPruned);
    AppendZigzag(out, static_cast<int64_t>(U(p->lo) - *prev));
    AppendVarint(out, U(p->hi) - U(p->lo));
    AppendHashRef(out, p->content_hash, code);
    *prev = U(p->hi);
    return;
  }
  const ads::VoNode& node = *std::get<ads::VoNodePtr>(child);
  out->push_back(kTagNode);
  AppendVarint(out, node.children.size());
  for (const ads::VoChild& c : node.children) {
    SerializeChild(c, code, prev, out);
  }
}

void SerializeBody(const QueryResponse& r, const uint32_t** code, Bytes* out) {
  AppendZigzag(out, static_cast<int64_t>(r.lb));
  AppendVarint(out, U(r.ub) - U(r.lb));
  AppendVarint(out, r.upper_splits.size());
  uint64_t prev = U(r.lb);
  for (Key s : r.upper_splits) AppendKeyDelta(out, s, &prev);
  AppendVarint(out, r.trees.size());
  for (const TreeResultSet& tree : r.trees) {
    AppendVarint(out, tree.label.size());
    AppendString(out, tree.label);
    AppendVarint(out, tree.objects.size());
    prev = U(r.lb);
    for (const Object& obj : tree.objects) {
      AppendKeyDelta(out, obj.key, &prev);
      AppendVarint(out, obj.value.size());
      AppendString(out, obj.value);
    }
    if (tree.vo.empty_tree || !tree.vo.root) {
      out->push_back(0);
    } else {
      out->push_back(1);
      prev = U(r.lb);
      SerializeChild(*tree.vo.root, code, &prev, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Parsing

/// Reads a canonical varint from the `size` bytes at `data` (see
/// ReadVarint).
std::optional<uint64_t> ReadVarintAt(const uint8_t* data, size_t size,
                                     size_t* pos) {
  uint64_t v = 0;
  for (size_t i = 0; i < 10; ++i) {
    if (*pos >= size) return std::nullopt;
    const uint8_t b = data[(*pos)++];
    // The 10th byte holds bits 63..69: anything but 0x01 overflows 64 bits.
    if (i == 9 && b != 0x01) return std::nullopt;
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      // Canonical encodings are minimal: a multi-byte varint may not end in
      // a zero group (0x8000... would re-encode shorter).
      if (i > 0 && b == 0) return std::nullopt;
      return v;
    }
  }
  return std::nullopt;
}

/// Reader with the canonicality accounting that makes accepted images
/// re-serialize byte-identically: per-slot reference counts, first-reference
/// ordering, and where every table entry and inline hash sits in the image,
/// checked for repeats once the walk is done.
struct Reader {
  Reader(const uint8_t* d, size_t n) : data(d), size(n) {}

  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool failed = false;

  std::vector<Hash> table;
  std::vector<uint64_t> ref_count;
  uint64_t next_first_ref = 0;
  /// Table entries, then every inline hash in parse order, keyed by their
  /// offset in the image.
  std::vector<Ref> hashes;

  bool Fail() {
    failed = true;
    return false;
  }

  bool Need(size_t n) {
    if (n > size - pos) return Fail();
    return true;
  }

  size_t Remaining() const { return size - pos; }

  uint8_t Byte() {
    if (!Need(1)) return 0;
    return data[pos++];
  }

  uint64_t Varint() {
    if (pos < size && data[pos] < 0x80) return data[pos++];
    auto v = ReadVarintAt(data, size, &pos);
    if (!v.has_value()) {
      failed = true;
      return 0;
    }
    return *v;
  }

  int64_t Zigzag() { return ZigzagDecode(Varint()); }

  Key KeyDelta(uint64_t* prev) {
    const uint64_t k = *prev + static_cast<uint64_t>(Zigzag());
    *prev = k;
    return static_cast<Key>(k);
  }

  Hash ReadHash() {
    Hash h{};
    if (!Need(32)) return h;
    std::memcpy(h.data(), data + pos, 32);
    pos += 32;
    return h;
  }

  Hash HashRef() {
    const uint64_t v = Varint();
    if (failed) return Hash{};
    if (v == 0) {
      if (Need(32)) hashes.push_back({Prefix(data + pos), pos});
      return ReadHash();
    }
    const uint64_t slot = v - 1;
    if (slot >= table.size()) {
      Fail();  // dangling reference
      return Hash{};
    }
    if (ref_count[slot] == 0) {
      // Slots are assigned in first-encounter order, so the first reference
      // to each slot must arrive in ascending slot order.
      if (slot != next_first_ref) {
        Fail();
        return Hash{};
      }
      ++next_first_ref;
    }
    ++ref_count[slot];
    return table[slot];
  }

  bool ParseTable() {
    const uint64_t count = Varint();
    if (failed || count > Remaining() / 32) return Fail();
    table.resize(count);
    hashes.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      hashes.push_back({Prefix(data + pos), pos});
      std::memcpy(table[i].data(), data + pos, 32);
      pos += 32;
    }
    ref_count.assign(count, 0);
    return true;
  }

  /// Every slot must have paid for its 32 bytes (referenced at least twice),
  /// and no hash may appear twice among the table entries and inline hashes:
  /// a duplicate entry, a repeated inline hash, or an inline hash shadowing
  /// a slot would each have been encoded differently.
  bool Canonical() {
    for (uint64_t c : ref_count) {
      if (c < 2) return false;
    }
    // One sort (on the first 8 bytes, all 32 only on a tie) and one scan
    // for equal neighbours.
    auto cmp = [this](const Ref& a, const Ref& b) {
      if (a.prefix != b.prefix) return a.prefix < b.prefix ? -1 : 1;
      return std::memcmp(data + a.pos, data + b.pos, 32);
    };
    std::sort(hashes.begin(), hashes.end(),
              [&cmp](const Ref& a, const Ref& b) { return cmp(a, b) < 0; });
    return std::adjacent_find(hashes.begin(), hashes.end(),
                              [&cmp](const Ref& a, const Ref& b) {
                                return cmp(a, b) == 0;
                              }) == hashes.end();
  }
};

bool ParseChild(Reader& r, uint64_t* prev, uint32_t depth, ads::VoChild* out) {
  if (depth > ads::kMaxVoDepth) return r.Fail();
  const uint8_t tag = r.Byte();
  if (r.failed) return false;
  switch (tag) {
    case kTagEntryResult: {
      ads::VoEntry e;
      e.key = r.KeyDelta(prev);
      e.is_result = true;
      if (r.failed) return false;
      *out = ads::VoChild(e);
      return true;
    }
    case kTagEntryBoundary: {
      ads::VoEntry e;
      e.key = r.KeyDelta(prev);
      e.value_hash = r.HashRef();
      e.is_result = false;
      if (r.failed) return false;
      *out = ads::VoChild(e);
      return true;
    }
    case kTagPruned: {
      ads::VoPruned p;
      const uint64_t lo = *prev + static_cast<uint64_t>(r.Zigzag());
      const uint64_t hi = lo + r.Varint();
      p.lo = static_cast<Key>(lo);
      p.hi = static_cast<Key>(hi);
      p.content_hash = r.HashRef();
      if (r.failed) return false;
      *prev = hi;
      *out = ads::VoChild(p);
      return true;
    }
    case kTagNode: {
      const uint64_t n = r.Varint();
      // The smallest child (a result entry) is 2 bytes.
      if (r.failed || n > r.Remaining() / 2) return r.Fail();
      auto node = std::make_unique<ads::VoNode>();
      node->children.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        ads::VoChild c;
        if (!ParseChild(r, prev, depth + 1, &c)) return false;
        node->children.push_back(std::move(c));
      }
      *out = ads::VoChild(std::move(node));
      return true;
    }
    default:
      return r.Fail();
  }
}

bool ParseBody(Reader& r, QueryResponse* response) {
  const uint64_t lb = static_cast<uint64_t>(r.Zigzag());
  const uint64_t ub = lb + r.Varint();
  response->lb = static_cast<Key>(lb);
  response->ub = static_cast<Key>(ub);
  const uint64_t num_splits = r.Varint();
  // Counts are bounded by the bytes present before any reserve(), so a
  // corrupted count fails parsing instead of requesting a huge allocation.
  if (r.failed || num_splits > r.Remaining()) return false;
  response->upper_splits.reserve(num_splits);
  uint64_t prev = lb;
  for (uint64_t i = 0; i < num_splits; ++i) {
    response->upper_splits.push_back(r.KeyDelta(&prev));
  }
  const uint64_t num_trees = r.Varint();
  // A serialized tree is at least 3 bytes: label length, object count, VO tag.
  if (r.failed || num_trees > r.Remaining() / 3) return false;
  response->trees.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    TreeResultSet tree;
    const uint64_t label_len = r.Varint();
    if (r.failed || !r.Need(label_len)) return false;
    tree.label.assign(reinterpret_cast<const char*>(r.data + r.pos), label_len);
    r.pos += label_len;
    const uint64_t num_objects = r.Varint();
    // A serialized object is at least 2 bytes: key delta plus value length.
    if (r.failed || num_objects > r.Remaining() / 2) return false;
    tree.objects.reserve(num_objects);
    prev = lb;
    for (uint64_t i = 0; i < num_objects; ++i) {
      Object obj;
      obj.key = r.KeyDelta(&prev);
      const uint64_t value_len = r.Varint();
      if (r.failed || !r.Need(value_len)) return false;
      obj.value.assign(reinterpret_cast<const char*>(r.data + r.pos),
                       value_len);
      r.pos += value_len;
      tree.objects.push_back(std::move(obj));
    }
    const uint8_t vo_tag = r.Byte();
    if (r.failed) return false;
    if (vo_tag == 0) {
      tree.vo.empty_tree = true;
    } else if (vo_tag == 1) {
      ads::VoChild root;
      prev = lb;
      if (!ParseChild(r, &prev, 0, &root)) return false;
      tree.vo.root = std::move(root);
    } else {
      return r.Fail();
    }
    response->trees.push_back(std::move(tree));
  }
  return true;
}

}  // namespace

void AppendVarint(Bytes* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

std::optional<uint64_t> ReadVarint(const Bytes& data, size_t* pos) {
  return ReadVarintAt(data.data(), data.size(), pos);
}

std::optional<TableInfo> LocateTable(const Bytes& image) {
  if (image.size() < 3 || image[0] != kVersion) return std::nullopt;
  if (image[1] != kKindSingle && image[1] != kKindComposite) return std::nullopt;
  size_t pos = 2;
  auto count = ReadVarint(image, &pos);
  if (!count.has_value()) return std::nullopt;
  if (*count > (image.size() - pos) / 32) return std::nullopt;
  return TableInfo{pos, *count};
}

Bytes Serialize(const QueryResponse& response) {
  Bytes out;
  SerializeInto(response, &out);
  return out;
}

void SerializeInto(const QueryResponse& response, Bytes* out) {
  const HashTable table = BuildTable(response);
  const uint32_t* code = table.codes.data();
  out->push_back(kVersion);
  out->push_back(response.slices.empty() ? kKindSingle : kKindComposite);
  AppendVarint(out, table.entries.size());
  for (const Hash* h : table.entries) AppendHash(out, *h);
  if (response.slices.empty()) {
    SerializeBody(response, &code, out);
    return;
  }
  AppendZigzag(out, static_cast<int64_t>(response.lb));
  AppendVarint(out, U(response.ub) - U(response.lb));
  AppendVarint(out, response.slices.size());
  Bytes body;
  for (const ShardSlice& slice : response.slices) {
    AppendVarint(out, slice.shard);
    body.clear();
    SerializeBody(slice.response, &code, &body);
    AppendVarint(out, body.size());
    out->insert(out->end(), body.begin(), body.end());
  }
}

std::optional<QueryResponse> Parse(const Bytes& data) {
  return Parse(data.data(), data.size());
}

std::optional<QueryResponse> Parse(const uint8_t* data, size_t size) {
  if (size < 3 || data[0] != kVersion) return std::nullopt;
  const uint8_t kind = data[1];
  Reader r(data, size);
  r.pos = 2;
  if (!r.ParseTable()) return std::nullopt;
  QueryResponse response;
  if (kind == kKindSingle) {
    if (!ParseBody(r, &response)) return std::nullopt;
  } else if (kind == kKindComposite) {
    const uint64_t lb = static_cast<uint64_t>(r.Zigzag());
    const uint64_t ub = lb + r.Varint();
    response.lb = static_cast<Key>(lb);
    response.ub = static_cast<Key>(ub);
    const uint64_t num_slices = r.Varint();
    // An empty composite would re-serialize as a single image, and a slice
    // is at least 6 bytes: shard, body length, minimal body.
    if (r.failed || num_slices == 0 || num_slices > r.Remaining() / 6) {
      return std::nullopt;
    }
    response.slices.reserve(num_slices);
    for (uint64_t i = 0; i < num_slices; ++i) {
      const uint64_t shard = r.Varint();
      const uint64_t body_len = r.Varint();
      if (r.failed || shard > UINT32_MAX || !r.Need(body_len)) {
        return std::nullopt;
      }
      const size_t body_start = r.pos;
      ShardSlice slice;
      slice.shard = static_cast<uint32_t>(shard);
      if (!ParseBody(r, &slice.response)) return std::nullopt;
      // The declared body length must frame exactly the bytes consumed.
      if (r.pos - body_start != body_len) return std::nullopt;
      response.slices.push_back(std::move(slice));
    }
  } else {
    return std::nullopt;
  }
  if (r.failed || r.pos != size) return std::nullopt;
  if (!r.Canonical()) return std::nullopt;
  return response;
}

}  // namespace gem2::core::wirev3
