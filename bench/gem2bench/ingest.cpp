// ingest: the data owner's write path. GEM2-tree in the paper setting,
// preloaded with uniform keys, then a closed loop of owner ops (70% insert,
// 30% update) from one thread. Every op is journaled through
// store::DurableJournal on an in-memory MemVfs with fsync policy kBatch/64
// (fixed here, so both sides of a comparison sync alike). Chain execution,
// block sealing, the state commitment, GEM2 merges, Keccak and the journal
// do all the work; no query runs inside the measured window, so query-side
// changes should show no change here.
//
// The window runs in rounds of a fixed op count: each round builds the
// preloaded store afresh (that build is a setup_s sample, outside the
// window) and replays the same op stream on it, until the window's time is
// spent. The store never grows past one round's writes, so memory does not
// depend on how fast the host is, and every round measures the same work.
//
// Exact counts (gas, Keccak permutations, journal bytes and syncs, state
// entries per block) cover a fixed prefix of the first round's ops, so they
// repeat bit for bit for a seed however fast the host is. VO bytes come from
// the audit queries of the set-up's warm-up, on the preloaded store.
#include <map>
#include <optional>

#include "crypto/keccak.h"
#include "gem2bench.h"
#include "inputs.h"
#include "store/durable_journal.h"
#include "store/vfs.h"

namespace gem2bench {
namespace {

using gem2::store::IoStatus;

/// MemVfs that counts appended bytes and syncs of the files it opens.
class CountingVfs : public gem2::store::Vfs {
 public:
  uint64_t bytes() const { return bytes_; }
  uint64_t syncs() const { return syncs_; }

  IoStatus CreateDir(const std::string& path) override { return mem_.CreateDir(path); }
  std::optional<std::vector<std::string>> ListDir(const std::string& path) override {
    return mem_.ListDir(path);
  }
  bool FileExists(const std::string& path) override { return mem_.FileExists(path); }
  std::optional<uint64_t> FileSize(const std::string& path) override {
    return mem_.FileSize(path);
  }
  IoStatus ReadFile(const std::string& path, gem2::Bytes* out) override {
    return mem_.ReadFile(path, out);
  }
  IoStatus WriteFileAtomic(const std::string& path, const gem2::Bytes& data,
                           bool sync) override {
    return mem_.WriteFileAtomic(path, data, sync);
  }
  std::unique_ptr<gem2::store::WritableFile> OpenAppend(const std::string& path,
                                                        IoStatus* status) override {
    auto file = mem_.OpenAppend(path, status);
    if (file == nullptr) return nullptr;
    return std::make_unique<CountingFile>(std::move(file), this);
  }
  IoStatus RemoveFile(const std::string& path) override { return mem_.RemoveFile(path); }
  IoStatus TruncateFile(const std::string& path, uint64_t size) override {
    return mem_.TruncateFile(path, size);
  }

 private:
  class CountingFile : public gem2::store::WritableFile {
   public:
    CountingFile(std::unique_ptr<gem2::store::WritableFile> inner, CountingVfs* vfs)
        : inner_(std::move(inner)), vfs_(vfs) {}
    IoStatus Append(const uint8_t* data, size_t len) override {
      vfs_->bytes_ += len;
      return inner_->Append(data, len);
    }
    IoStatus Sync() override {
      ++vfs_->syncs_;
      return inner_->Sync();
    }
    IoStatus Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<gem2::store::WritableFile> inner_;
    CountingVfs* vfs_;
  };

  gem2::store::MemVfs mem_;
  uint64_t bytes_ = 0;
  uint64_t syncs_ = 0;
};

/// The db's journal sink: forwards to the DurableJournal and, for a traced
/// op, records the append as a store.append span under the op's write.
class TimedSink : public gem2::core::JournalSink {
 public:
  explicit TimedSink(gem2::core::JournalSink* inner) : inner_(inner) {}

  void Arm(TraceLane* lane, uint64_t op) {
    lane_ = lane;
    op_ = op;
  }
  bool Append(const gem2::core::JournalEntry& entry) override {
    ScopedSpan span(lane_, Layer::kStoreAppend, Layer::kChainWrite, op_);
    return inner_->Append(entry);
  }
  bool Sync() override { return inner_->Sync(); }
  std::string last_error() const override { return inner_->last_error(); }

 private:
  gem2::core::JournalSink* inner_;
  TraceLane* lane_ = nullptr;
  uint64_t op_ = 0;
};

// Members are destroyed in reverse order: the db before the sinks it writes.
struct IngestState {
  CountingVfs vfs;
  std::unique_ptr<gem2::store::DurableJournal> journal;
  std::unique_ptr<TimedSink> sink;
  std::unique_ptr<gem2::core::AuthenticatedDb> db;
};

using Reference = std::map<gem2::Key, std::string>;

/// Range queries at 0.1% over the store, verified and checked against the
/// reference model. Returns the mean wire image size.
double Audit(gem2::core::AuthenticatedDb& db, const Reference& reference,
             uint64_t seed, uint64_t queries, Result* result) {
  const auto states = db.ReadChainState();
  RangeSpecStream specs(seed, 7, kNarrowRanges);
  uint64_t bytes = 0;
  for (uint64_t i = 0; i < queries; ++i) {
    const gem2::core::QuerySpec spec = specs.Next();
    const Answer a = RunQuery(db, states, spec, nullptr, 0);
    ++result->attempted;
    bytes += a.image_bytes;
    std::string diff = a.ok ? CompareRange(reference, spec, a.verified.objects) : a.error;
    if (!diff.empty()) result->Mismatch("ingest audit: " + diff);
  }
  return static_cast<double>(bytes) / static_cast<double>(std::max<uint64_t>(queries, 1));
}

}  // namespace

void RunIngest(const Config& config, Tracer& tracer, Result* result) {
  const Scale& scale = config.scale;
  Rng rng(config.seed, 1);
  std::unordered_set<gem2::Key> taken;
  const std::vector<gem2::Object> preload = UniformObjects(rng, scale.ingest_preload, &taken);
  Fingerprint fingerprint;
  Reference preloaded;
  for (const gem2::Object& o : preload) {
    fingerprint.Add(static_cast<uint64_t>(o.key));
    fingerprint.Add(o.value);
    preloaded[o.key] = o.value;
  }

  double vo_bytes = 0;
  auto build = [&] {
    auto s = std::make_unique<IngestState>();
    gem2::store::JournalOptions jo;
    jo.fsync_policy = gem2::store::FsyncPolicy::kBatch;
    jo.batch_records = 64;
    std::string error;
    s->journal = gem2::store::DurableJournal::Open(&s->vfs, "journal", 0, jo, &error);
    if (s->journal == nullptr) throw std::runtime_error("journal open: " + error);
    s->sink = std::make_unique<TimedSink>(s->journal.get());
    gem2::core::DbOptions options = PaperDbOptions();
    options.journal_sink = s->sink.get();
    s->db = std::make_unique<gem2::core::AuthenticatedDb>(options);
    for (const gem2::Object& o : preload) s->db->Insert(o);
    // Warm-up: seal, read chain state, and run the audit queries, which
    // also materializes the SP's lazy partition trees.
    Result scratch;
    vo_bytes = Audit(*s->db, preloaded, config.seed, scale.audit_queries, &scratch);
    if (!scratch.correct) throw std::runtime_error("preloaded store fails its audit");
    return s;
  };

  TraceLane* lane = tracer.NewLane();
  Samples latency;  // untraced ops of the window
  Samples seal_writes;
  Samples plain_writes;
  Samples setups;
  GasTally gas;
  std::unique_ptr<IngestState> state;
  std::optional<OwnerOpStream> stream;
  Reference reference;
  uint64_t pending_txs = 0;  // transactions since the last block seal
  uint64_t round_ops = 0;
  uint64_t span_op = 0;

  // One owner op of the current round; `op_lane` is non-null when the op is
  // traced, `timed` when its latency counts toward p50_ms / p99_ms.
  auto run_op = [&](TraceLane* op_lane, bool timed, bool in_prefix) {
    gem2::core::AuthenticatedDb& db = *state->db;
    gem2::chain::Environment& env = db.environment();
    const OwnerOpStream::Op op = stream->Next();
    if (in_prefix) {
      fingerprint.Add(op.insert ? 1 : 2);
      fingerprint.Add(static_cast<uint64_t>(op.object.key));
      fingerprint.Add(op.object.value);
    }
    gem2::chain::TxReceipt receipt;
    uint64_t elapsed = 0;
    uint64_t txs = 0;
    {
      ScopedSpan op_span(op_lane, Layer::kOp, Layer::kCount, span_op);
      state->sink->Arm(op_lane, span_op);
      const uint64_t txs_before = env.num_transactions();
      const uint64_t t0 = NowNs();
      {
        ScopedSpan write_span(op_lane, Layer::kChainWrite, Layer::kOp, span_op);
        receipt = op.insert ? db.Insert(op.object) : db.Update(op.object);
      }
      elapsed = NowNs() - t0;
      txs = env.num_transactions() - txs_before;
    }
    if (timed) latency.Add(elapsed);
    // The write that fills a block runs the automatic seal.
    pending_txs += txs;
    const bool sealed = pending_txs >= env.options().txs_per_block;
    if (sealed) pending_txs = 0;
    if (op_lane != nullptr) (sealed ? seal_writes : plain_writes).Add(elapsed);
    ++result->attempted;
    if (!receipt.ok) result->Mismatch("owner op failed: " + receipt.error);
    reference[op.object.key] = op.object.value;
    if (in_prefix) gas.Add(receipt);
    ++round_ops;
    ++span_op;
  };

  Window window(config.seconds, config.trace);
  window.Pause();
  for (int round = 0; round == 0 || window.Running(); ++round) {
    state.reset();
    state = TimedBuild(&setups, build);
    stream.emplace(config.seed, preload);
    reference = preloaded;
    pending_txs = 0;
    round_ops = 0;

    // Baselines for the exact prefix counts (the build left the chain
    // sealed and the seal pipeline drained).
    gem2::chain::Environment& env = state->db->environment();
    const uint64_t perms0 = gem2::crypto::KeccakPermutationCount();
    const uint64_t height0 = env.blockchain().height();
    const uint64_t entries0 = env.commit_stats().entries_updated;
    const uint64_t bytes0 = state->vfs.bytes();
    const uint64_t syncs0 = state->vfs.syncs();
    const bool first = round == 0;
    auto prefix_snapshot = [&] {
      const uint64_t height = env.blockchain().height();  // drains the seal
      const double n = static_cast<double>(round_ops);
      gas.Report(result, /*categories=*/true);
      result->Set("crypto.perms_per_write",
                  static_cast<double>(gem2::crypto::KeccakPermutationCount() - perms0) / n);
      result->Set("chain.entries_updated_per_block",
                  static_cast<double>(env.commit_stats().entries_updated - entries0) /
                      static_cast<double>(std::max<uint64_t>(height - height0, 1)));
      result->Set("store.bytes_per_write",
                  static_cast<double>(state->vfs.bytes() - bytes0) / n);
      result->Set("store.syncs", static_cast<double>(state->vfs.syncs() - syncs0));
    };

    window.Resume();
    while (round_ops < scale.ingest_round_ops && window.Running()) {
      const bool in_prefix = first && round_ops < scale.ingest_prefix_ops;
      run_op(window.traced() ? lane : nullptr, !window.traced(), in_prefix);
      window.CountOp();
      if (in_prefix && round_ops == scale.ingest_prefix_ops) {
        window.Pause();
        prefix_snapshot();
        window.Resume();
      }
    }
    window.Pause();
    if (first && round_ops < scale.ingest_prefix_ops) {
      // A slow host ended the window early: finish the prefix untimed.
      while (round_ops < scale.ingest_prefix_ops) run_op(nullptr, false, true);
      prefix_snapshot();
    }
    // One build and its round; later rounds rebuild on memory the
    // allocator kept from the last (see TimedBuild).
    if (first) result->Set("peak_rss_mb", PeakRssMb());
  }
  state->sink->Arm(nullptr, 0);

  result->Set("vo_bytes_per_query", vo_bytes);
  result->Set("ops_per_s", window.OpsPerSecond());
  SetLatency(result, latency);
  result->Set("write_p99_ms", latency.Quantile(0.99) / 1e6);
  result->Set("trace.overhead_frac", window.OverheadFrac());
  SetTiming(result, "chain.seal_write_ns", seal_writes);
  SetTiming(result, "chain.plain_write_ns", plain_writes);
  SetLayerTiming(result, tracer, Layer::kStoreAppend, "store.append_ns");

  // The last round's final state must answer like the reference model.
  Audit(*state->db, reference, config.seed + 1, scale.audit_queries, result);
  // A slow host may fit fewer rounds than the set-up samples wanted.
  state.reset();
  FinishSetups(scale.setups, &setups, result, build);
  result->attempted += scale.audit_queries * setups.size();
  result->fingerprint = fingerprint.Hex();
}

}  // namespace gem2bench
