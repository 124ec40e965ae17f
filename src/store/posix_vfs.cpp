#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/vfs.h"

namespace gem2::store {
namespace {

IoStatus ErrnoStatus(const std::string& what) {
  return IoStatus::Error(what + ": " + std::strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) close(fd_);
  }

  IoStatus Append(const uint8_t* data, size_t len) override {
    while (len > 0) {
      const ssize_t n = write(fd_, data, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write");
      }
      data += n;
      len -= static_cast<size_t>(n);
    }
    return IoStatus::Ok();
  }

  IoStatus Sync() override {
    if (fsync(fd_) != 0) return ErrnoStatus("fsync");
    return IoStatus::Ok();
  }

  IoStatus Close() override {
    if (fd_ >= 0 && close(fd_) != 0) {
      fd_ = -1;
      return ErrnoStatus("close");
    }
    fd_ = -1;
    return IoStatus::Ok();
  }

 private:
  int fd_;
};

/// fsync the directory so a freshly created/renamed entry is itself durable.
IoStatus SyncDir(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir " + dir);
  const int rc = fsync(fd);
  close(fd);
  if (rc != 0) return ErrnoStatus("fsync dir " + dir);
  return IoStatus::Ok();
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

IoStatus PosixVfs::CreateDir(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir " + partial);
    }
  }
  return IoStatus::Ok();
}

std::optional<std::vector<std::string>> PosixVfs::ListDir(
    const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return std::nullopt;
  std::vector<std::string> names;
  while (struct dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

bool PosixVfs::FileExists(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0;
}

std::optional<uint64_t> PosixVfs::FileSize(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0 || st.st_size < 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

IoStatus PosixVfs::ReadFile(const std::string& path, Bytes* out) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path);
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return ErrnoStatus("read " + path);
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  close(fd);
  return IoStatus::Ok();
}

IoStatus PosixVfs::WriteFileAtomic(const std::string& path, const Bytes& data,
                                   bool sync) {
  // Write the whole image to a temp file, make it durable, then rename over
  // `path`: a crash leaves the old file or the new one, never a mix.
  const std::string tmp = path + ".tmp";
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open " + tmp);
  PosixWritableFile file(fd);
  IoStatus status = file.Append(data.data(), data.size());
  if (status.ok && sync) status = file.Sync();
  if (status.ok) status = file.Close();
  if (!status.ok) return status;
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename " + tmp + " -> " + path);
  }
  if (sync) return SyncDir(DirName(path));
  return IoStatus::Ok();
}

std::unique_ptr<WritableFile> PosixVfs::OpenAppend(const std::string& path,
                                                   IoStatus* status) {
  int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    if (status != nullptr) *status = ErrnoStatus("open " + path);
    return nullptr;
  }
  if (status != nullptr) *status = IoStatus::Ok();
  return std::make_unique<PosixWritableFile>(fd);
}

IoStatus PosixVfs::RemoveFile(const std::string& path) {
  if (unlink(path.c_str()) != 0) return ErrnoStatus("unlink " + path);
  return IoStatus::Ok();
}

IoStatus PosixVfs::TruncateFile(const std::string& path, uint64_t size) {
  if (truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate " + path);
  }
  return IoStatus::Ok();
}

}  // namespace gem2::store
