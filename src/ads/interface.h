/// \file interface.h
/// The seam every ADS kind implements (paper Fig. 1): a smart contract that
/// maintains the structure under the gas meter and commits its digests, and
/// the service provider's unmetered mirror of the same structure that answers
/// range queries with VO_sp.
///
/// Each ADS library (mbtree, smbtree, lsm, gem2, gem2star) derives its
/// contract from AdsContract and its mirror from AdsMirror, and owns the
/// digest labels both sides use: the labels a contract commits through its
/// DigestLedger are the labels its mirror's Query answers under. Fed the same
/// operations, a contract's AuthenticatedDigests() equals its mirror's
/// Digests() bit for bit.
#ifndef GEM2_ADS_INTERFACE_H_
#define GEM2_ADS_INTERFACE_H_

#include <vector>

#include "ads/query.h"
#include "chain/contract.h"
#include "common/types.h"
#include "gas/meter.h"

namespace gem2::ads {

/// A mirror's answer to one range query: one TreeAnswer per committed tree a
/// client requires for [lb, ub], plus the GEM2*-tree's upper-level split
/// points (empty for every other kind), which the client checks against the
/// "upper" digest to re-derive which regions had to be answered.
struct RangeAnswer {
  std::vector<TreeAnswer> trees;
  std::vector<Key> upper_splits;
};

/// On-chain side: a contract whose operations are metered transactions and
/// which keeps every digest it commits current in its DigestLedger.
class AdsContract : public chain::Contract {
 public:
  using chain::Contract::Contract;

  /// Inserts a fresh key.
  virtual void Insert(Key key, const Hash& value_hash, gas::Meter& meter) = 0;
  /// Replaces an existing key's value hash; throws std::invalid_argument for
  /// an unknown key.
  virtual void Update(Key key, const Hash& value_hash, gas::Meter& meter) = 0;

  /// Structural self-check of the contract's in-memory structure; throws
  /// std::logic_error on violation.
  virtual void CheckInvariants() const {}
};

/// SP side: the same structure, unmetered and fully materialized.
class AdsMirror {
 public:
  AdsMirror() = default;
  virtual ~AdsMirror() = default;

  AdsMirror(const AdsMirror&) = delete;
  AdsMirror& operator=(const AdsMirror&) = delete;

  /// Inserts a fresh key.
  virtual void Insert(Key key, const Hash& value_hash) = 0;
  /// Replaces an existing key's value hash; throws std::invalid_argument for
  /// an unknown key.
  virtual void Update(Key key, const Hash& value_hash) = 0;

  /// Range query with VO_sp (Algorithms 5 / 7). Safe to call from concurrent
  /// readers; mutations must be exclusive with it.
  virtual RangeAnswer Query(Key lb, Key ub) const = 0;

  /// The digests the twin contract commits, in the same order.
  virtual std::vector<chain::DigestEntry> Digests() const = 0;

  /// Structural self-check; throws std::logic_error on violation.
  virtual void CheckInvariants() const {}
};

}  // namespace gem2::ads

#endif  // GEM2_ADS_INTERFACE_H_
