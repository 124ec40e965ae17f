/// \file inputs.h
/// The benchmark's seeded input generators. Every input a workload feeds
/// the library — preload keys and payloads, the owner op stream, query specs
/// and the open-loop arrival schedule — comes from here and depends only on
/// `--seed`. Nothing here uses the library's own generators (src/workload)
/// or random helpers, so a change to the library cannot shift the inputs.
/// A Fingerprint over the generated inputs is printed with every result, so
/// runs of two commits can be shown to have used identical inputs.
#ifndef GEM2BENCH_INPUTS_H_
#define GEM2BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "core/query_spec.h"

namespace gem2bench {

using gem2::Key;
using gem2::Object;

/// SplitMix64: small, fast, and fully specified here.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  /// Uniform in [0, n) (n > 0).
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1).
  double Uniform();
  /// Exponential with the given rate (mean 1 / rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Draws class indices so that every block of sum(weights) draws holds
/// exactly weights[i] draws of class i, in seeded random order. Any stretch
/// of ops then carries the nominal mix, so rates and percentiles do not
/// wander with the luck of the draw.
class StratifiedMix {
 public:
  explicit StratifiedMix(const std::vector<unsigned>& weights);
  size_t Next(Rng& rng);

 private:
  std::vector<size_t> block_;
  size_t pos_;
};

/// Zipf(theta) ranks over [0, n) by inverse-CDF lookup: rank 0 is the most
/// frequent value.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// FNV-1a over everything generated.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void Add(const std::string& s);
  void Add(const gem2::core::QuerySpec& spec);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Keys of the flat stores are uniform in [0, kKeyDomain).
inline constexpr Key kKeyDomain = Key{1} << 40;

/// A 16-character payload.
std::string Payload(Rng& rng);

/// `n` objects with distinct uniform keys. `taken` receives every key and
/// rejects keys already in it.
std::vector<Object> UniformObjects(Rng& rng, uint64_t n,
                                   std::unordered_set<Key>* taken);

/// The ingest owner stream: 70% inserts of fresh uniform keys, 30% updates
/// of a uniformly chosen existing key with a new payload.
class OwnerOpStream {
 public:
  struct Op {
    bool insert = true;
    Object object;
  };
  OwnerOpStream(uint64_t seed, const std::vector<Object>& preload);
  Op Next();

 private:
  Rng rng_;
  StratifiedMix mix_;
  std::unordered_set<Key> taken_;
  std::vector<Key> keys_;
};

/// One class of a range mix: `weight` draws in every block of the mix,
/// each a range covering `selectivity` of the key domain.
struct RangeClass {
  unsigned weight;
  double selectivity;
};

/// 0.1% ranges only.
inline const std::vector<RangeClass> kNarrowRanges = {{1, 0.001}};
/// range_uniform: 0.1% / 1% / 10% in a 30 / 68 / 2 mix. The 10% class is 2%
/// of the mix so that p99 falls in the middle of that class rather than in
/// the tail that host interference makes; p50 falls in the 1% class.
inline const std::vector<RangeClass> kFig9Ranges = {{30, 0.001}, {68, 0.01}, {2, 0.1}};

/// Range specs over [0, kKeyDomain), uniform positions, classes drawn by a
/// StratifiedMix.
class RangeSpecStream {
 public:
  RangeSpecStream(uint64_t seed, uint64_t stream, std::vector<RangeClass> mix);
  gem2::core::QuerySpec Next();

 private:
  static std::vector<unsigned> Weights(const std::vector<RangeClass>& mix);

  Rng rng_;
  std::vector<RangeClass> classes_;
  StratifiedMix mix_;
};

/// Records of the boolean workload: K attributes, each an independent
/// zipf(0.8) rank over [0, kAttrDomain).
inline constexpr uint64_t kAttrDomain = uint64_t{1} << 20;

struct Record {
  int64_t id = 0;
  std::vector<Key> attrs;
  std::string payload;
};

std::vector<Record> ZipfRecords(uint64_t seed, uint64_t n, uint32_t attrs);

/// Boolean/aggregate specs: AND 39 / OR 39 / COUNT 10 / SUM 10 over
/// predicates covering ~1% of the records each, and 2% wide ORs whose two
/// predicates cover ~10% each. A predicate's centre is a value drawn
/// uniformly over the attribute domain; under zipf values most of the domain
/// is tail, so most predicates land in the top-quartile shard (the hot
/// shard). Narrow predicates rarely cross a shard bound; the wide ORs often
/// do, which runs the pooled scatter-gather, and as the heaviest 2% they put
/// p99 in the middle of their class rather than in interference noise.
class BooleanSpecStream {
 public:
  /// `sorted_values[k]` = attribute k's values over all records, ascending.
  BooleanSpecStream(uint64_t seed, std::vector<std::vector<Key>> sorted_values);
  gem2::core::QuerySpec Next();

 private:
  /// A predicate on `attr` holding ~2 * `half_share` of the records.
  gem2::core::Predicate Around(uint32_t attr, double half_share);

  Rng rng_;
  StratifiedMix mix_;
  std::vector<std::vector<Key>> sorted_;
};

/// Open-loop arrivals: Poisson at `rate` per second, offsets in ns from the
/// window start, up to `seconds`.
std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate, double seconds);

}  // namespace gem2bench

#endif  // GEM2BENCH_INPUTS_H_
