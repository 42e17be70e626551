#include "raid/file_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "raid/mem_disk.h"

namespace dcode::raid {

namespace {

// preadv/pwritev segment caps: IOV_MAX is 1024 on Linux; stay under it.
constexpr size_t kMaxIov = 512;

std::string errno_message(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

FileDisk::FileDisk(int id, size_t size, std::string path, Options opts)
    : BlockDevice(id, size),
      path_(std::move(path)),
      unlink_on_close_(opts.unlink_on_close) {
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (!opts.reuse) flags |= O_TRUNC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw std::runtime_error(errno_message("open", path_));
  struct stat st = {};
  reopened_ = opts.reuse && ::fstat(fd_, &st) == 0 && st.st_size > 0;
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    int saved = errno;
    ::close(fd_);
    errno = saved;
    throw std::runtime_error(errno_message("ftruncate", path_));
  }
  // No readahead: its large folios tax every later small overwrite (see
  // the header comment). A hint only, so a failure changes nothing else.
  (void)::posix_fadvise(fd_, 0, 0, POSIX_FADV_RANDOM);
}

FileDisk::~FileDisk() {
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_) ::unlink(path_.c_str());
}

IoResult FileDisk::do_read(uint64_t offset, std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return IoResult::transient();
      return IoResult::failed();
    }
    if (n == 0) break;  // hole past EOF reads as zero via ftruncate sizing
    done += static_cast<size_t>(n);
  }
  return IoResult::success(done);
}

IoResult FileDisk::do_write(uint64_t offset, std::span<const uint8_t> in) {
  size_t done = 0;
  while (done < in.size()) {
    ssize_t n = ::pwrite(fd_, in.data() + done, in.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return IoResult::transient();
      return IoResult::failed();
    }
    done += static_cast<size_t>(n);
  }
  return IoResult::success(done);
}

IoResult FileDisk::do_readv(uint64_t offset, std::span<const IoVec> iov) {
  size_t total = 0;
  size_t i = 0;
  std::vector<struct iovec> sys;
  while (i < iov.size()) {
    sys.clear();
    size_t chunk_bytes = 0;
    while (i < iov.size() && sys.size() < kMaxIov) {
      sys.push_back({iov[i].data, iov[i].len});
      chunk_bytes += iov[i].len;
      ++i;
    }
    size_t done = 0;
    while (done < chunk_bytes) {
      ssize_t n = ::preadv(fd_, sys.data(), static_cast<int>(sys.size()),
                           static_cast<off_t>(offset + total + done));
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) return IoResult::transient();
        return IoResult::failed();
      }
      if (n == 0) break;
      done += static_cast<size_t>(n);
      if (done < chunk_bytes) {
        // Short transfer: advance the segment list past `n` bytes.
        size_t skip = static_cast<size_t>(n);
        while (!sys.empty() && skip >= sys.front().iov_len) {
          skip -= sys.front().iov_len;
          sys.erase(sys.begin());
        }
        if (!sys.empty() && skip > 0) {
          sys.front().iov_base = static_cast<uint8_t*>(sys.front().iov_base) +
                                 skip;
          sys.front().iov_len -= skip;
        }
      }
    }
    total += done;
  }
  return IoResult::success(total);
}

IoResult FileDisk::do_writev(uint64_t offset,
                             std::span<const ConstIoVec> iov) {
  size_t total = 0;
  size_t i = 0;
  std::vector<struct iovec> sys;
  while (i < iov.size()) {
    sys.clear();
    size_t chunk_bytes = 0;
    while (i < iov.size() && sys.size() < kMaxIov) {
      sys.push_back({const_cast<uint8_t*>(iov[i].data), iov[i].len});
      chunk_bytes += iov[i].len;
      ++i;
    }
    size_t done = 0;
    while (done < chunk_bytes) {
      ssize_t n = ::pwritev(fd_, sys.data(), static_cast<int>(sys.size()),
                            static_cast<off_t>(offset + total + done));
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) return IoResult::transient();
        return IoResult::failed();
      }
      done += static_cast<size_t>(n);
      if (done < chunk_bytes) {
        size_t skip = static_cast<size_t>(n);
        while (!sys.empty() && skip >= sys.front().iov_len) {
          skip -= sys.front().iov_len;
          sys.erase(sys.begin());
        }
        if (!sys.empty() && skip > 0) {
          sys.front().iov_base = static_cast<uint8_t*>(sys.front().iov_base) +
                                 skip;
          sys.front().iov_len -= skip;
        }
      }
    }
    total += done;
  }
  return IoResult::success(total);
}

IoResult FileDisk::do_flush() {
  if (::fsync(fd_) != 0) return IoResult::failed();
  return IoResult::success(0);
}

IoResult FileDisk::do_discard(uint64_t offset, size_t len) {
  // Portable discard: write zeros (a hole punch where supported would be
  // an optimization, not a semantic change — reads return zeros either
  // way).
  std::vector<uint8_t> zeros(std::min<size_t>(len, 1 << 20), 0);
  size_t done = 0;
  while (done < len) {
    size_t n = std::min(zeros.size(), len - done);
    IoResult r = do_write(offset + done, {zeros.data(), n});
    if (!r.ok()) return r;
    done += n;
  }
  return IoResult::success(len);
}

DeviceFactory default_device_factory() {
  const char* backend = std::getenv("DCODE_DISK_BACKEND");
  if (backend == nullptr || std::string_view(backend) == "mem" ||
      std::string_view(backend).empty()) {
    return [](int id, size_t size) -> std::unique_ptr<BlockDevice> {
      return std::make_unique<MemDisk>(id, size);
    };
  }
  DCODE_CHECK(std::string_view(backend) == "file",
              "DCODE_DISK_BACKEND must be 'mem' or 'file'");
  const char* dir = std::getenv("DCODE_DISK_DIR");
  if (dir == nullptr) dir = std::getenv("TMPDIR");
  if (dir == nullptr) dir = "/tmp";
  std::string base = dir;
  return [base](int id, size_t size) -> std::unique_ptr<BlockDevice> {
    // Unique per process × disk × incarnation so parallel tests and
    // replace-with-blank never collide on a path.
    static std::atomic<uint64_t> serial{0};
    std::string path = base + "/dcode-disk-" + std::to_string(::getpid()) +
                       "-" + std::to_string(id) + "-" +
                       std::to_string(serial.fetch_add(1)) + ".img";
    return std::make_unique<FileDisk>(id, size, std::move(path),
                                      FileDisk::Options{
                                          .reuse = false,
                                          .unlink_on_close = true,
                                      });
  };
}

}  // namespace dcode::raid
