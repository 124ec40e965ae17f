#include "core/wire_v3.h"

#include <cstring>
#include <stdexcept>

#include "ads/vo.h"

namespace gem2::core::wirev3 {
namespace {

constexpr uint8_t kKindSingle = 0;
constexpr uint8_t kKindComposite = 1;

// VO child tags. An expanded node of n >= 1 children is tagged 3 + n.
constexpr uint8_t kTagEntryResult = 1;
constexpr uint8_t kTagEntryBoundary = 2;
constexpr uint8_t kTagPruned = 3;

uint64_t U(Key k) { return static_cast<uint64_t>(k); }

/// AppendVarint over either byte container.
template <typename Out>
void AppendVarintTo(Out* out, uint64_t v) {
  using Byte = typename Out::value_type;
  while (v >= 0x80) {
    out->push_back(static_cast<Byte>(static_cast<uint8_t>(v) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<Byte>(v));
}

// ---------------------------------------------------------------------------
// Encoding

void AppendZigzag(Bytes* out, int64_t v) { AppendVarint(out, ZigzagEncode(v)); }

/// Appends zz(key - *prev) and advances the chain (wrapping arithmetic, so
/// any (prev, key) pair round-trips).
void AppendKeyDelta(Bytes* out, Key key, uint64_t* prev) {
  AppendZigzag(out, static_cast<int64_t>(U(key) - *prev));
  *prev = U(key);
}

[[noreturn]] void ThrowOutOfStep() {
  throw std::invalid_argument(
      "wire v3: objects do not list the result entries in VO order");
}

/// One tree's VO walk: the key chain, and the tree's objects, the next of
/// which is the record of the next result entry.
struct TreeEncoder {
  Bytes* out;
  uint64_t prev;
  const std::vector<Object>& objects;
  size_t next_object = 0;

  void Child(const ads::VoChild& child) {
    if (const auto* e = std::get_if<ads::VoEntry>(&child)) {
      if (e->is_result) {
        if (next_object == objects.size() || objects[next_object].key != e->key) {
          ThrowOutOfStep();
        }
        const std::string& value = objects[next_object++].value;
        out->push_back(kTagEntryResult);
        AppendKeyDelta(out, e->key, &prev);
        AppendVarint(out, value.size());
        AppendString(out, value);
      } else {
        out->push_back(kTagEntryBoundary);
        AppendKeyDelta(out, e->key, &prev);
        AppendHash(out, e->value_hash);
      }
      return;
    }
    if (const auto* p = std::get_if<ads::VoPruned>(&child)) {
      out->push_back(kTagPruned);
      AppendZigzag(out, static_cast<int64_t>(U(p->lo) - prev));
      AppendVarint(out, U(p->hi) - U(p->lo));
      AppendHash(out, p->content_hash);
      prev = U(p->hi);
      return;
    }
    const ads::VoNode& node = *std::get<ads::VoNodePtr>(child);
    if (node.children.empty()) {
      throw std::invalid_argument("wire v3: expanded node with no children");
    }
    AppendVarint(out, kTagPruned + node.children.size());
    for (const ads::VoChild& c : node.children) Child(c);
  }
};

void SerializeBody(const QueryResponse& r, Bytes* out) {
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
    TreeEncoder encoder{out, U(r.lb), tree.objects};
    if (tree.vo.empty_tree || !tree.vo.root) {
      out->push_back(0);
    } else {
      out->push_back(1);
      encoder.Child(*tree.vo.root);
    }
    if (encoder.next_object != tree.objects.size()) ThrowOutOfStep();
  }
}

// ---------------------------------------------------------------------------
// Parsing

/// Cursor over an untrusted image; any failure latches `failed`.
struct Reader {
  Reader(const uint8_t* d, size_t n) : data(d), size(n) {}

  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool failed = false;

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
    auto v = ReadVarint({data, size}, &pos);
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

  /// Reads varint(|s|) s into `*s`.
  void String(std::string* s) {
    const uint64_t len = Varint();
    if (failed || !Need(len)) return;
    s->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
  }
};

/// Parses one child of a tree's VO, appending each result entry's record to
/// `*objects`.
bool ParseChild(Reader& r, uint64_t* prev, uint32_t depth,
                std::vector<Object>* objects, ads::VoChild* out) {
  if (depth > ads::kMaxVoDepth) return r.Fail();
  const uint64_t tag = r.Varint();
  if (r.failed) return false;
  switch (tag) {
    case 0:
      return r.Fail();
    case kTagEntryResult: {
      ads::VoEntry e;
      e.key = r.KeyDelta(prev);
      e.is_result = true;
      Object& obj = objects->emplace_back();
      obj.key = e.key;
      r.String(&obj.value);
      if (r.failed) return false;
      *out = ads::VoChild(e);
      return true;
    }
    case kTagEntryBoundary: {
      ads::VoEntry e;
      e.key = r.KeyDelta(prev);
      e.value_hash = r.ReadHash();
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
      p.content_hash = r.ReadHash();
      if (r.failed) return false;
      *prev = hi;
      *out = ads::VoChild(p);
      return true;
    }
    default: {
      const uint64_t n = tag - kTagPruned;
      // The smallest child (a result entry with an empty value) is 3 bytes.
      if (n > r.Remaining() / 3) return r.Fail();
      auto node = std::make_unique<ads::VoNode>();
      node->children.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        ads::VoChild c;
        if (!ParseChild(r, prev, depth + 1, objects, &c)) return false;
        node->children.push_back(std::move(c));
      }
      *out = ads::VoChild(std::move(node));
      return true;
    }
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
    TreeResultSet& tree = response->trees.emplace_back();
    r.String(&tree.label);
    const uint64_t num_objects = r.Varint();
    // Each object is a result entry of at least 3 bytes.
    if (r.failed || num_objects > r.Remaining() / 3) return r.Fail();
    tree.objects.reserve(num_objects);
    const uint8_t vo_tag = r.Byte();
    if (r.failed) return false;
    if (vo_tag == 0) {
      tree.vo.empty_tree = true;
    } else if (vo_tag == 1) {
      ads::VoChild root;
      prev = lb;
      if (!ParseChild(r, &prev, 0, &tree.objects, &root)) return false;
      tree.vo.root = std::move(root);
    } else {
      return r.Fail();
    }
    if (tree.objects.size() != num_objects) return r.Fail();
  }
  return true;
}

}  // namespace

void AppendVarint(Bytes* out, uint64_t v) { AppendVarintTo(out, v); }

void AppendVarint(std::string* out, uint64_t v) { AppendVarintTo(out, v); }

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

std::optional<uint64_t> ReadVarint(std::span<const uint8_t> data, size_t* pos) {
  uint64_t v = 0;
  for (size_t i = 0; i < 10; ++i) {
    if (*pos >= data.size()) return std::nullopt;
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

Bytes Serialize(const QueryResponse& response) {
  Bytes out;
  SerializeInto(response, &out);
  return out;
}

void SerializeInto(const QueryResponse& response, Bytes* out) {
  out->push_back(kVersion);
  out->push_back(response.slices.empty() ? kKindSingle : kKindComposite);
  if (response.slices.empty()) {
    SerializeBody(response, out);
    return;
  }
  AppendZigzag(out, static_cast<int64_t>(response.lb));
  AppendVarint(out, U(response.ub) - U(response.lb));
  AppendVarint(out, response.slices.size());
  Bytes body;
  for (const ShardSlice& slice : response.slices) {
    AppendVarint(out, slice.shard);
    body.clear();
    SerializeBody(slice.response, &body);
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
  return response;
}

}  // namespace gem2::core::wirev3
