/// \file failpoint_vfs.h
/// Deterministic I/O fault injection at the Vfs seam.
///
/// FailpointVfs wraps a store::MemVfs and makes every syscall boundary a
/// potential failure point: appends can land a short prefix and return EIO,
/// fsync can fail — or worse, *lie* (return success while leaving the bytes
/// volatile, the firmware bug that breaks naive write-ahead logs), power can
/// cut mid-operation tearing the unsynced tail, and durable bytes can rot.
/// Every decision is a pure function of the config seed and the operation
/// index, so any schedule replays bit-for-bit from the seed alone
/// (GEM2_TEST_SEED convention, fault/fault.h).
///
/// RunFailpointSweep drives the SP's durable journal (store::DurableJournal,
/// opened through its Recover path) through hundreds of such schedules and
/// holds it to the recover-or-fail-closed contract: after every crash,
/// recovery either yields exactly a prefix of the acknowledged operation
/// stream, entry for entry, or refuses to serve — and a recovered journal
/// keeps taking appends that the next recovery returns. Any
/// accepted-but-wrong stream is a sweep failure.
#ifndef GEM2_FAULT_FAILPOINT_VFS_H_
#define GEM2_FAULT_FAILPOINT_VFS_H_

#include <cstdint>
#include <string>

#include "store/vfs.h"

namespace gem2::fault {

struct FailpointConfig {
  uint64_t seed = 0;
  /// Per-append probability of failing with EIO after landing a seeded short
  /// prefix of the buffer (the torn write a real disk produces).
  double p_append_error = 0.0;
  /// Per-sync probability of returning EIO (bytes stay volatile).
  double p_sync_error = 0.0;
  /// Per-sync probability of *lying*: returning success while leaving the
  /// bytes volatile. Indistinguishable from a working fsync until power cuts.
  double p_sync_lie = 0.0;
  /// Per-operation probability of cutting power mid-operation: the op fails,
  /// unsynced bytes keep only a seeded torn prefix, and everything fails
  /// until Restart().
  double p_power_cut = 0.0;
  /// Per-operation probability of flipping one seeded bit in one seeded
  /// durable byte (media rot). Applied before the operation runs.
  double p_bit_rot = 0.0;
};

struct FailpointStats {
  uint64_t ops = 0;  // syscall-boundary decisions taken
  uint64_t short_writes = 0;
  uint64_t append_errors = 0;
  uint64_t sync_errors = 0;
  uint64_t sync_lies = 0;
  uint64_t power_cuts = 0;
  uint64_t bit_flips = 0;
};

class FailpointVfs : public store::Vfs {
 public:
  /// `base` must outlive this wrapper.
  FailpointVfs(store::MemVfs* base, const FailpointConfig& config)
      : base_(base), config_(config) {}

  store::IoStatus CreateDir(const std::string& path) override;
  std::optional<std::vector<std::string>> ListDir(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  std::optional<uint64_t> FileSize(const std::string& path) override;
  store::IoStatus ReadFile(const std::string& path, Bytes* out) override;
  store::IoStatus WriteFileAtomic(const std::string& path, const Bytes& data,
                                  bool sync) override;
  std::unique_ptr<store::WritableFile> OpenAppend(
      const std::string& path, store::IoStatus* status) override;
  store::IoStatus RemoveFile(const std::string& path) override;
  store::IoStatus TruncateFile(const std::string& path, uint64_t size) override;

  /// Power the simulated machine back on (the injected schedule keeps going).
  void Restart() { base_->Restart(); }
  bool powered_off() const { return base_->powered_off(); }

  const FailpointStats& stats() const { return stats_; }
  store::MemVfs* base() { return base_; }

 private:
  friend class FailpointWritableFile;

  /// One derived RNG draw stream per syscall; advances the op counter.
  uint64_t NextOpSeed() { return ++stats_.ops; }
  /// Pre-op ambient faults (bit rot, spontaneous power cut) for op `op_seed`.
  void AmbientFaults(uint64_t op_seed);

  store::MemVfs* base_;
  FailpointConfig config_;
  FailpointStats stats_;
};

}  // namespace gem2::fault

#endif  // GEM2_FAULT_FAILPOINT_VFS_H_
