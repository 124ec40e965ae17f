/// \file arena.h
/// File-mapped bump arena: the page store the durable SP engine writes
/// checkpoints through (store/posix_vfs.cpp).
#ifndef GEM2_COMMON_ARENA_H_
#define GEM2_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace gem2::common {

/// Bump arena whose backing memory is a file mapping (mmap): the page store
/// the durable SP engine checkpoints ADS state into at epoch boundaries.
///
/// A writer Create()s the arena over a fresh file sized to `capacity`, bumps
/// checkpoint pages into the mapping with Allocate(), then Seal()s: the file
/// is msync'd and truncated to the bytes actually used, after which the
/// caller publishes it with an atomic rename. A reader OpenReadOnly()s the
/// published file and walks the mapped bytes in place — no read syscalls, no
/// copy; the kernel pages data in on demand, which is what lets a checkpoint
/// restore stream at memory bandwidth instead of replaying the op log.
///
/// Fixed-capacity (checkpoint sizes are known up front) and holds raw bytes
/// only; integrity is the caller's page-footer checksums, not the arena's
/// concern. Not thread-safe.
class FileMappedArena {
 public:
  ~FileMappedArena();

  FileMappedArena(const FileMappedArena&) = delete;
  FileMappedArena& operator=(const FileMappedArena&) = delete;

  /// Creates (truncating) `path` sized to `capacity` bytes and maps it
  /// read-write. Returns nullptr with `*error` set on any syscall failure.
  static std::unique_ptr<FileMappedArena> Create(const std::string& path,
                                                 size_t capacity,
                                                 std::string* error);

  /// Maps an existing file read-only (used() == capacity() == file size).
  static std::unique_ptr<FileMappedArena> OpenReadOnly(const std::string& path,
                                                       std::string* error);

  /// Bumps `size` bytes out of the mapping (write mode only). Returns nullptr
  /// when the request exceeds the remaining capacity.
  uint8_t* Allocate(size_t size);

  /// Flushes the mapping to stable storage (msync) and shrinks the file to
  /// the allocated length. The arena stays mapped and readable.
  bool Seal(std::string* error);

  const uint8_t* data() const { return base_; }
  uint8_t* mutable_data() { return writable_ ? base_ : nullptr; }
  size_t capacity() const { return capacity_; }
  size_t used() const { return used_; }
  const std::string& path() const { return path_; }

 private:
  FileMappedArena() = default;

  std::string path_;
  uint8_t* base_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
  int fd_ = -1;
  bool writable_ = false;
};

}  // namespace gem2::common

#endif  // GEM2_COMMON_ARENA_H_
