#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gem2bench {

using gem2::core::AggregateKind;
using gem2::core::BoolOp;
using gem2::core::Predicate;
using gem2::core::PredicateKind;
using gem2::core::QuerySpec;

Rng::Rng(uint64_t seed, uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ull + stream * 0xd1b54a32d192ed03ull) {}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) {
  // Lemire's multiply-shift; the tiny bias is irrelevant for load shapes.
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

StratifiedMix::StratifiedMix(const std::vector<unsigned>& weights) {
  for (size_t i = 0; i < weights.size(); ++i) block_.insert(block_.end(), weights[i], i);
  pos_ = block_.size();
}

size_t StratifiedMix::Next(Rng& rng) {
  if (pos_ == block_.size()) {
    for (size_t i = block_.size() - 1; i > 0; --i) std::swap(block_[i], block_[rng.Below(i + 1)]);
    pos_ = 0;
  }
  return block_[pos_++];
}

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
}

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Fingerprint::Add(const std::string& s) {
  Add(s.size());
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

void Fingerprint::Add(const QuerySpec& spec) {
  Add(static_cast<uint64_t>(spec.op));
  Add(static_cast<uint64_t>(spec.aggregate));
  for (const Predicate& p : spec.predicates) {
    Add(p.attr);
    Add(static_cast<uint64_t>(p.lb));
    Add(static_cast<uint64_t>(p.ub));
  }
}

std::string Fingerprint::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string Payload(Rng& rng) {
  static constexpr char kHex[] = "0123456789abcdef";
  uint64_t v = rng.Next();
  std::string s(16, '0');
  for (char& c : s) {
    c = kHex[v & 15];
    v >>= 4;
  }
  return s;
}

std::vector<Object> UniformObjects(Rng& rng, uint64_t n,
                                   std::unordered_set<Key>* taken) {
  std::vector<Object> out;
  out.reserve(n);
  while (out.size() < n) {
    const Key k = static_cast<Key>(rng.Below(kKeyDomain));
    if (!taken->insert(k).second) continue;
    out.push_back({k, Payload(rng)});
  }
  return out;
}

OwnerOpStream::OwnerOpStream(uint64_t seed, const std::vector<Object>& preload)
    : rng_(seed, 2), mix_({7, 3}) {
  keys_.reserve(preload.size() * 4);
  for (const Object& o : preload) {
    taken_.insert(o.key);
    keys_.push_back(o.key);
  }
}

OwnerOpStream::Op OwnerOpStream::Next() {
  Op op;
  op.insert = mix_.Next(rng_) == 0;
  if (op.insert) {
    Key k = 0;
    do {
      k = static_cast<Key>(rng_.Below(kKeyDomain));
    } while (!taken_.insert(k).second);
    keys_.push_back(k);
    op.object.key = k;
  } else {
    op.object.key = keys_[rng_.Below(keys_.size())];
  }
  op.object.value = Payload(rng_);
  return op;
}

RangeSpecStream::RangeSpecStream(uint64_t seed, uint64_t stream,
                                 std::vector<RangeClass> mix)
    : rng_(seed, stream), classes_(std::move(mix)), mix_(Weights(classes_)) {}

std::vector<unsigned> RangeSpecStream::Weights(const std::vector<RangeClass>& mix) {
  std::vector<unsigned> w;
  for (const RangeClass& c : mix) w.push_back(c.weight);
  return w;
}

QuerySpec RangeSpecStream::Next() {
  const double sel = classes_[mix_.Next(rng_)].selectivity;
  const Key width = static_cast<Key>(sel * static_cast<double>(kKeyDomain));
  const Key lb = static_cast<Key>(rng_.Below(static_cast<uint64_t>(kKeyDomain - width)));
  return QuerySpec::Range(lb, lb + width - 1);
}

std::vector<Record> ZipfRecords(uint64_t seed, uint64_t n, uint32_t attrs) {
  const Zipf zipf(kAttrDomain, 0.8);
  Rng rng(seed, 3);
  std::vector<Record> out(n);
  for (uint64_t i = 0; i < n; ++i) {
    out[i].id = static_cast<int64_t>(i);
    for (uint32_t k = 0; k < attrs; ++k) {
      out[i].attrs.push_back(static_cast<Key>(zipf.Sample(rng)));
    }
    out[i].payload = Payload(rng);
  }
  return out;
}

BooleanSpecStream::BooleanSpecStream(uint64_t seed,
                                     std::vector<std::vector<Key>> sorted_values)
    : rng_(seed, 4), mix_({39, 39, 10, 10, 2}), sorted_(std::move(sorted_values)) {}

Predicate BooleanSpecStream::Around(uint32_t attr, double half_share) {
  const std::vector<Key>& v = sorted_[attr];
  const Key centre = static_cast<Key>(rng_.Below(kAttrDomain));
  const size_t rank = std::lower_bound(v.begin(), v.end(), centre) - v.begin();
  const size_t half = std::max<size_t>(1, static_cast<size_t>(v.size() * half_share));
  const size_t lo = rank > half ? rank - half : 0;
  const size_t hi = std::min(v.size() - 1, rank + half);
  return Predicate{PredicateKind::kRange, attr, v[lo], v[hi]};
}

QuerySpec BooleanSpecStream::Next() {
  enum Class { kAnd, kOr, kCount, kSum, kWideOr };
  QuerySpec spec;
  const size_t c = mix_.Next(rng_);
  if (c == kCount || c == kSum) {
    spec.aggregate = c == kCount ? AggregateKind::kCount : AggregateKind::kSum;
    spec.predicates.push_back(Around(static_cast<uint32_t>(rng_.Below(sorted_.size())), 0.005));
    return spec;
  }
  spec.op = c == kAnd ? BoolOp::kAnd : BoolOp::kOr;
  for (uint32_t k = 0; k < sorted_.size(); ++k) {
    spec.predicates.push_back(Around(k, c == kWideOr ? 0.05 : 0.005));
  }
  return spec;
}

std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate, double seconds) {
  Rng rng(seed, 5);
  std::vector<uint64_t> due;
  due.reserve(static_cast<size_t>(rate * seconds * 1.2) + 16);
  double t = 0;
  while (true) {
    t += rng.Exponential(rate);
    if (t >= seconds) break;
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

}  // namespace gem2bench
