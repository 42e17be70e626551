#include "raid/integrity.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/check.h"
#include "xorops/checksum.h"

namespace dcode::raid {
namespace {

constexpr uint64_t kSidecarMagic = 0x444353494445434BULL;  // "DCSIDECK"
// v2: sums are CRC-64/XZ (v1 held XXH64, which no longer verifies).
constexpr uint32_t kSidecarVersion = 2;
constexpr int64_t kHeaderBytes = 24;

struct SlotImage {
  uint64_t seq;
  uint64_t sum;
  uint64_t prev;
  uint64_t tag;
  uint64_t self;  // checksum64 of the first 32 bytes, seeded with element
};
static_assert(sizeof(SlotImage) == ChecksumStore::kSlotBytes);

uint64_t slot_self_checksum(const SlotImage& s, int64_t element) {
  return xorops::checksum64(&s, 32, static_cast<uint64_t>(element));
}

}  // namespace

const char* to_string(IntegrityVerdict v) {
  switch (v) {
    case IntegrityVerdict::kOk:
      return "ok";
    case IntegrityVerdict::kUntracked:
      return "untracked";
    case IntegrityVerdict::kCorrupt:
      return "corrupt";
    case IntegrityVerdict::kMisdirected:
      return "misdirected";
    case IntegrityVerdict::kStale:
      return "stale";
  }
  return "?";
}

namespace detail {

bool pread_fully(int fd, void* buf, size_t n, int64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF before the full count
    p += r;
    offset += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool pwrite_fully(int fd, const void* buf, size_t n, int64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += r;
    offset += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace detail

ChecksumStore::ChecksumStore(int64_t elements)
    : elements_(elements), recs_(new Record[static_cast<size_t>(elements)]) {
  DCODE_CHECK(elements > 0, "ChecksumStore needs at least one element");
}

ChecksumStore::~ChecksumStore() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

int64_t ChecksumStore::slot_offset(int64_t element, int slot) {
  return kHeaderBytes + element * 2 * static_cast<int64_t>(kSlotBytes) +
         slot * static_cast<int64_t>(kSlotBytes);
}

ChecksumStore::Snapshot ChecksumStore::load(int64_t element) const {
  DCODE_CHECK(element >= 0 && element < elements_,
              "integrity element out of range");
  const Record& r = recs_[static_cast<size_t>(element)];
  for (;;) {
    const uint64_t s1 = r.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // writer mid-update; spin (writers are brief)
    // Acquire loads keep the re-check after them, and one that reads a
    // later writer's release store also sees that writer's odd seq, so the
    // re-check fails (Boehm's seqlock recipe; no fence, which TSan cannot
    // see).
    Snapshot out;
    out.sum = r.sum.load(std::memory_order_acquire);
    out.prev = r.prev.load(std::memory_order_acquire);
    out.tag = r.tag.load(std::memory_order_acquire);
    if (r.seq.load(std::memory_order_relaxed) == s1) return out;
  }
}

void ChecksumStore::store_locked(int64_t element, uint64_t sum, uint64_t prev,
                                 uint64_t tag) {
  Record& r = recs_[static_cast<size_t>(element)];
  const uint64_t s = r.seq.load(std::memory_order_relaxed);
  r.seq.store(s + 1, std::memory_order_relaxed);
  r.sum.store(sum, std::memory_order_release);
  r.prev.store(prev, std::memory_order_release);
  r.tag.store(tag, std::memory_order_release);
  r.seq.store(s + 2, std::memory_order_release);
  if (map_ != nullptr) persist(element, sum, prev, tag, s + 2);
}

void ChecksumStore::record(int64_t element, uint64_t sum, int64_t stripe,
                           int row, int role) {
  DCODE_CHECK(element >= 0 && element < elements_,
              "integrity element out of range");
  std::lock_guard<std::mutex> lk(writer_mutex(element));
  const Record& r = recs_[static_cast<size_t>(element)];
  const uint64_t old_tag = r.tag.load(std::memory_order_relaxed);
  const uint64_t old_sum = r.sum.load(std::memory_order_relaxed);
  uint32_t gen = tag_generation(old_tag) + 1;
  if (gen == 0) gen = 1;  // wrap: never back to the untracked sentinel
  store_locked(element, sum, old_tag != 0 ? old_sum : 0,
               make_tag(gen, stripe, row, role));
}

void ChecksumStore::resync(int64_t element, uint64_t sum, int64_t stripe,
                           int row, int role) {
  DCODE_CHECK(element >= 0 && element < elements_,
              "integrity element out of range");
  std::lock_guard<std::mutex> lk(writer_mutex(element));
  const Record& r = recs_[static_cast<size_t>(element)];
  uint32_t gen = tag_generation(r.tag.load(std::memory_order_relaxed)) + 1;
  if (gen == 0) gen = 1;
  // prev cleared: after reconstruction the pre-image is unknowable, so
  // stale detection restarts instead of false-positive matching it.
  store_locked(element, sum, 0, make_tag(gen, stripe, row, role));
}

IntegrityVerdict ChecksumStore::classify(int64_t element,
                                         uint64_t payload_sum) const {
  const Snapshot snap = load(element);
  if (!snap.tracked()) return IntegrityVerdict::kUntracked;
  if (payload_sum == snap.sum) return IntegrityVerdict::kOk;
  if (snap.prev != 0 && payload_sum == snap.prev)
    return IntegrityVerdict::kStale;
  // Mismatch path only (rare): is this payload a nearby element's current
  // content? Then the write that produced it was misdirected.
  const int64_t first = std::max<int64_t>(0, element - kMisdirectWindow);
  const int64_t last = std::min(elements_ - 1, element + kMisdirectWindow);
  for (int64_t e = first; e <= last; ++e) {
    if (e == element) continue;
    const Snapshot other = load(e);
    if (other.tracked() && other.sum == payload_sum)
      return IntegrityVerdict::kMisdirected;
  }
  return IntegrityVerdict::kCorrupt;
}

void ChecksumStore::invalidate_all() {
  for (int64_t e = 0; e < elements_; ++e) {
    std::lock_guard<std::mutex> lk(writer_mutex(e));
    store_locked(e, 0, 0, 0);
  }
}

void ChecksumStore::attach_file(const std::string& path) {
  DCODE_CHECK(map_ == nullptr, "ChecksumStore already has a sidecar attached");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("integrity sidecar open failed: " + path);
  }
  auto fail = [&](const char* what) {
    ::close(fd);
    throw std::runtime_error(std::string("integrity sidecar ") + what + ": " +
                             path);
  };
  // The reload scan below is the only read of the file; it batches its
  // own reads, and readahead's large folios would tax each slot store
  // (see raid/file_disk.h). A hint only, so a failure changes nothing else.
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_RANDOM);
  const size_t want_size = static_cast<size_t>(
      kHeaderBytes + elements_ * 2 * static_cast<int64_t>(kSlotBytes));
  const off_t cur = ::lseek(fd, 0, SEEK_END);
  if (cur == 0) {
    // Fresh sidecar: the header first, so a crash before the allocation
    // below leaves a file that reopens. The slot area reads as zeros, and
    // a zero slot has seq 0 and a wrong self-checksum: invalid.
    uint8_t hdr[kHeaderBytes] = {};
    std::memcpy(hdr, &kSidecarMagic, 8);
    std::memcpy(hdr + 8, &kSidecarVersion, 4);
    const uint64_t n = static_cast<uint64_t>(elements_);
    std::memcpy(hdr + 16, &n, 8);
    if (!detail::pwrite_fully(fd, hdr, sizeof(hdr), 0)) fail("init failed");
  } else {
    uint8_t hdr[kHeaderBytes] = {};
    uint64_t magic = 0, n = 0;
    uint32_t version = 0;
    if (!detail::pread_fully(fd, hdr, sizeof(hdr), 0)) {
      fail("header unreadable");
    }
    std::memcpy(&magic, hdr, 8);
    std::memcpy(&version, hdr + 8, 4);
    std::memcpy(&n, hdr + 16, 8);
    if (magic != kSidecarMagic || version != kSidecarVersion ||
        n != static_cast<uint64_t>(elements_)) {
      fail("format mismatch");
    }
  }
  // Every block before the mapping: a store into a hole needs a block,
  // and on a full file system that page fault would be SIGBUS.
  if (::posix_fallocate(fd, 0, static_cast<off_t>(want_size)) != 0) {
    fail("allocation failed");
  }
  if (cur != 0) {
    // Adopt the newer valid slot of each element; torn or misplaced
    // slots fail their seeded self-checksum and are ignored. Without
    // readahead the scan must batch its own reads: whole slot pairs,
    // kScanChunkElements elements per pread.
    std::vector<SlotImage> chunk(
        2 * static_cast<size_t>(std::min(elements_, kScanChunkElements)));
    for (int64_t first = 0; first < elements_; first += kScanChunkElements) {
      const int64_t count = std::min(kScanChunkElements, elements_ - first);
      if (!detail::pread_fully(fd, chunk.data(),
                               2 * static_cast<size_t>(count) * kSlotBytes,
                               slot_offset(first, 0))) {
        continue;  // unreadable: this chunk's elements stay untracked
      }
      for (int64_t i = 0; i < count; ++i) {
        const int64_t e = first + i;
        const SlotImage* pair = chunk.data() + 2 * i;
        const SlotImage* best = nullptr;
        for (const SlotImage* s : {pair, pair + 1}) {
          if (s->seq == 0 || slot_self_checksum(*s, e) != s->self) continue;
          if (best == nullptr || s->seq > best->seq) best = s;
        }
        if (best == nullptr) continue;
        Record& r = recs_[static_cast<size_t>(e)];
        r.sum.store(best->sum, std::memory_order_relaxed);
        r.prev.store(best->prev, std::memory_order_relaxed);
        r.tag.store(best->tag, std::memory_order_relaxed);
        r.seq.store(best->seq, std::memory_order_release);
      }
    }
  }
  void* map = ::mmap(nullptr, want_size, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  if (map == MAP_FAILED) fail("map failed");
  // Stores fault pages in one at a time; no fault should read ahead.
  (void)::madvise(map, want_size, MADV_RANDOM);
  fd_ = fd;
  map_ = static_cast<uint8_t*>(map);
  map_bytes_ = want_size;
}

void ChecksumStore::persist(int64_t element, uint64_t sum, uint64_t prev,
                            uint64_t tag, uint64_t seq) {
  SlotImage s{seq, sum, prev, tag, 0};
  s.self = slot_self_checksum(s, element);
  // Alternate slots by write number so the previous good record survives
  // a store torn by the process's death.
  const int slot = static_cast<int>((seq / 2) & 1);
  std::memcpy(map_ + slot_offset(element, slot), &s, sizeof(s));
}

void ChecksumStore::flush() {
  if (map_ == nullptr) return;
  (void)::msync(map_, map_bytes_, MS_SYNC);
  (void)::fdatasync(fd_);
}

}  // namespace dcode::raid
