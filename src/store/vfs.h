/// \file vfs.h
/// The seam between the durable SP storage engine and the operating system.
///
/// Every byte the engine persists flows through a Vfs, so the whole I/O
/// surface is mockable and — more importantly — *failable*: the deterministic
/// fault::FailpointVfs wraps any Vfs and injects short writes, EIO, lying
/// fsyncs, power-cut tail truncation, and bit rot at any syscall boundary,
/// reproducibly from one seed. Production uses PosixVfs; tests and the
/// failpoint sweep use MemVfs, whose durable-vs-volatile byte model makes a
/// power cut (lose unsynced bytes, tear the last write) an explicit, exact
/// operation instead of an accident of the page cache.
#ifndef GEM2_STORE_VFS_H_
#define GEM2_STORE_VFS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace gem2::store {

struct IoStatus {
  bool ok = true;
  std::string message;

  static IoStatus Ok() { return {}; }
  static IoStatus Error(std::string message) {
    return {false, std::move(message)};
  }
  explicit operator bool() const { return ok; }
};

/// An append-only file handle. Append buffers into the OS (or the in-memory
/// volatile shadow); Sync makes everything appended so far durable.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual IoStatus Append(const uint8_t* data, size_t len) = 0;
  virtual IoStatus Sync() = 0;
  virtual IoStatus Close() = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Creates `path` (and missing parents) as a directory; ok if it exists.
  virtual IoStatus CreateDir(const std::string& path) = 0;

  /// File names (not paths, no subdirectories) in `path`, sorted.
  virtual std::optional<std::vector<std::string>> ListDir(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual std::optional<uint64_t> FileSize(const std::string& path) = 0;

  /// Reads a whole file into `*out`.
  virtual IoStatus ReadFile(const std::string& path, Bytes* out) = 0;

  /// Publishes `data` at `path` atomically: write to a temp file in the same
  /// directory, make it durable when `sync`, then rename over `path`. After a
  /// crash the file holds either the old or the new content, never a mix.
  virtual IoStatus WriteFileAtomic(const std::string& path, const Bytes& data,
                                   bool sync) = 0;

  /// Opens `path` for appending, creating it when missing.
  virtual std::unique_ptr<WritableFile> OpenAppend(const std::string& path,
                                                   IoStatus* status) = 0;

  virtual IoStatus RemoveFile(const std::string& path) = 0;

  /// Shrinks `path` to `size` bytes (RepairJournal's torn-tail repair).
  virtual IoStatus TruncateFile(const std::string& path, uint64_t size) = 0;
};

/// Real filesystem. Atomic publication writes a `.tmp` sibling, fsyncs it
/// when asked, renames it over the target and fsyncs the directory.
class PosixVfs : public Vfs {
 public:
  IoStatus CreateDir(const std::string& path) override;
  std::optional<std::vector<std::string>> ListDir(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  std::optional<uint64_t> FileSize(const std::string& path) override;
  IoStatus ReadFile(const std::string& path, Bytes* out) override;
  IoStatus WriteFileAtomic(const std::string& path, const Bytes& data,
                           bool sync) override;
  std::unique_ptr<WritableFile> OpenAppend(const std::string& path,
                                           IoStatus* status) override;
  IoStatus RemoveFile(const std::string& path) override;
  IoStatus TruncateFile(const std::string& path, uint64_t size) override;
};

/// In-memory filesystem with explicit durability: per file, `durable` bytes
/// survive anything; `volatile` bytes (appended but not fsync'd) survive a
/// process crash but not a power cut. CutPower() keeps a caller-chosen prefix
/// of each file's volatile bytes (the torn tail a real disk leaves) and
/// fails every subsequent operation until Restart().
class MemVfs : public Vfs {
 public:
  IoStatus CreateDir(const std::string& path) override;
  std::optional<std::vector<std::string>> ListDir(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  std::optional<uint64_t> FileSize(const std::string& path) override;
  IoStatus ReadFile(const std::string& path, Bytes* out) override;
  IoStatus WriteFileAtomic(const std::string& path, const Bytes& data,
                           bool sync) override;
  std::unique_ptr<WritableFile> OpenAppend(const std::string& path,
                                           IoStatus* status) override;
  IoStatus RemoveFile(const std::string& path) override;
  IoStatus TruncateFile(const std::string& path, uint64_t size) override;

  /// Simulated power loss: for every file, volatile bytes past a
  /// `keep_fraction(volatile_size)`-chosen prefix are gone; durable bytes
  /// stay. All operations fail until Restart(). `keep_bytes` maps a file's
  /// volatile byte count to how many of them survive (identity = clean cut
  /// at the last write; 0 = lose everything unsynced).
  void CutPower(const std::function<size_t(size_t)>& keep_bytes);
  void Restart() { powered_off_ = false; }
  bool powered_off() const { return powered_off_; }

  /// XORs `mask` into the byte at `offset` of `path` (bit-rot injection).
  /// False when the file is missing or shorter than `offset`.
  bool CorruptByte(const std::string& path, uint64_t offset, uint8_t mask);

  /// Full visible content (durable + volatile) — what a recovery after a
  /// plain process crash reads. Nullopt when missing.
  std::optional<Bytes> Snapshot(const std::string& path);

  /// Every file path currently present (for artifact dumps).
  std::vector<std::string> AllFiles() const;

 private:
  friend class MemWritableFile;
  struct MemFile {
    Bytes durable;
    Bytes volatile_;  // appended after the last sync
  };

  std::string Normalize(const std::string& path) const;
  MemFile* Find(const std::string& path);

  std::map<std::string, MemFile> files_;
  std::map<std::string, bool> dirs_;
  bool powered_off_ = false;
};

}  // namespace gem2::store

#endif  // GEM2_STORE_VFS_H_
