// The per-element integrity channel: content checksums + write-identity
// tags, independent of parity.
//
// Parity syndromes can localize a corrupt element only when both parity
// families agree, and they are structurally blind to three failure
// modes real drives exhibit: a *misdirected* write (payload lands on the
// wrong LBA — two stripes wrong, both internally parity-consistent after
// repair elsewhere), a *lost* write (acknowledged but never persisted —
// the old payload is perfectly well-formed), and a *stale* full stripe
// (every element old but mutually consistent). The ChecksumStore closes
// that gap: for every device element it keeps
//
//   sum   — CRC-64/XZ (xorops::checksum64) of the element payload as
//           last acknowledged,
//   prev  — the sum the element held before that write (the stale
//           candidate: a lost write leaves the device serving exactly
//           this content),
//   tag   — a write-identity tag packing (generation, stripe, row, role)
//           so scrub can tell *which* logical write an element belongs
//           to, not just whether its bytes hash right.
//
// Classification on a read whose payload hashes to `h`:
//
//   h == sum                     kOk           payload is current
//   tag == 0                     kUntracked    element never written
//   h == prev                    kStale        lost / stale write
//   h == the current sum of      kMisdirected  write landed on the
//        another element within                wrong LBA
//        kMisdirectWindow records
//        on this device
//   otherwise                    kCorrupt      torn write or bit rot
//
// The store is updated strictly *after* the device acknowledges a write
// (record-after-write): if the device lies — accepts the write and drops
// it — the store remembers the new sum while the platter serves the old
// payload, which is precisely how lost writes become detectable.
//
// Persistence: MemDisk stores stay in memory; FileDisk stores attach a
// sidecar file (format version 2: CRC-64/XZ sums; a version-1 XXH64 file
// is refused). Each element owns two 40-byte slots written alternately
// (sequence-numbered dual slots), each slot self-checksummed with the
// element index as seed — a torn sidecar write invalidates only the slot
// being written, the loader falls back to the other, and a sidecar
// record that ends up at the wrong element offset always fails its seed
// check (the CRC register starts at ~index, and distinct start registers
// give distinct CRCs of the same 32 bytes).
//
// attach_file allocates every block of the sidecar (posix_fallocate) and
// then maps it MAP_SHARED, so a record reaches the file as a 40-byte
// store into the page cache, with no syscall. Stores survive the
// process's death; they survive power loss only after flush() (msync,
// then fdatasync). Crash consistency needs no ordering guarantees from
// the filesystem or the CPU: a process killed mid-store leaves some
// bytes of one slot new and the rest old, which fails the slot's
// self-checksum, never a wrong-but-valid record, and the other slot is
// untouched. Allocation before mapping means no store can fault on a
// full file system. What the mapping costs: an I/O error while a
// sidecar page is read back in raises SIGBUS and ends the process.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "raid/block_device.h"

namespace dcode::raid {

enum class IntegrityVerdict {
  kOk = 0,
  kUntracked,   // element has no recorded write; nothing to verify
  kCorrupt,     // payload matches neither current nor any known sum
  kMisdirected, // payload is another element's current content
  kStale,       // payload is this element's *previous* content
};

const char* to_string(IntegrityVerdict v);

// Thrown by the engine when verify-on-read condemns an element. Derives
// from DiskFailedError so every existing catch site treats it as "this
// disk cannot serve this element" — the safe default — while integrity-
// aware paths (read failover, write repair) catch it first and recover
// from parity instead of failing the disk.
class ElementIntegrityError : public DiskFailedError {
 public:
  ElementIntegrityError(int disk, int64_t stripe, int row,
                        IntegrityVerdict verdict)
      : DiskFailedError(disk), stripe_(stripe), row_(row), verdict_(verdict) {}
  int64_t stripe() const { return stripe_; }
  int row() const { return row_; }
  IntegrityVerdict verdict() const { return verdict_; }

 private:
  int64_t stripe_;
  int row_;
  IntegrityVerdict verdict_;
};

// Write-identity tag: (generation << 32) | stripe:20 | row:8 | role:4.
// generation counts acknowledged writes to the element (starts at 1, so
// tag == 0 always means "untracked"); role is the element's coding role
// (0 = data, 1.. = parity family index + 1) so scrub can cross-check
// that a sidecar record describes the element it sits on.
constexpr uint64_t make_tag(uint32_t generation, int64_t stripe, int row,
                            int role) {
  return (static_cast<uint64_t>(generation) << 32) |
         ((static_cast<uint64_t>(stripe) & 0xFFFFF) << 12) |
         ((static_cast<uint64_t>(row) & 0xFF) << 4) |
         (static_cast<uint64_t>(role) & 0xF);
}
constexpr uint32_t tag_generation(uint64_t tag) {
  return static_cast<uint32_t>(tag >> 32);
}
constexpr int64_t tag_stripe(uint64_t tag) {
  return static_cast<int64_t>((tag >> 12) & 0xFFFFF);
}
constexpr int tag_row(uint64_t tag) {
  return static_cast<int>((tag >> 4) & 0xFF);
}
constexpr int tag_role(uint64_t tag) { return static_cast<int>(tag & 0xF); }

// make_tag keeps the low 20 bits of the stripe, so an engine with
// integrity on refuses more stripes than this (StripeIoEngine's
// constructor): past it, two stripes' write identities would alias.
inline constexpr int64_t kMaxTaggedStripes = int64_t{1} << 20;

namespace detail {
// Partial-count-safe positional I/O used by the sidecar (and tested
// directly: pread/pwrite may legally transfer fewer bytes than asked).
// pread_fully returns false on EOF-before-n or error; pwrite_fully
// returns false on error. Both retry EINTR and short counts.
bool pread_fully(int fd, void* buf, size_t n, int64_t offset);
bool pwrite_fully(int fd, const void* buf, size_t n, int64_t offset);
}  // namespace detail

// One disk's integrity records. Thread contract: at most one writer per
// element at a time (the array's stripe locks already guarantee this);
// readers are unrestricted — each record is a seqlock over atomics.
class ChecksumStore {
 public:
  explicit ChecksumStore(int64_t elements);
  ~ChecksumStore();

  ChecksumStore(const ChecksumStore&) = delete;
  ChecksumStore& operator=(const ChecksumStore&) = delete;

  int64_t elements() const { return elements_; }

  struct Snapshot {
    uint64_t sum = 0;
    uint64_t prev = 0;
    uint64_t tag = 0;
    bool tracked() const { return tag != 0; }
  };

  Snapshot load(int64_t element) const;

  // Records an acknowledged write: current sum becomes prev, the new sum
  // and identity land, the generation advances. Call *after* the device
  // acks. `stripe`/`row`/`role` form the identity half of the tag.
  void record(int64_t element, uint64_t sum, int64_t stripe, int row,
              int role);

  // Re-derives the record from known-good content (journal replay,
  // scrub repair, degraded reconstruction). Clears prev — the previous
  // payload is unknowable after reconstruction, so stale detection
  // starts over rather than false-positive.
  void resync(int64_t element, uint64_t sum, int64_t stripe, int row,
              int role);

  // Classifies a payload hash against this disk's records (table above).
  IntegrityVerdict classify(int64_t element, uint64_t payload_sum) const;

  // classify() looks for a misdirected write's payload among the records
  // this many elements either side of the element, not the whole device:
  // 9 stripes each way for a 7-row code such as D-Code p=7, wider than the
  // few-element slips of firmware misdirection, and a bounded cost per
  // mismatch. A payload matching only a farther record reads kCorrupt; the
  // repair is the same.
  static constexpr int64_t kMisdirectWindow = 64;

  // Forgets everything (disk replaced with a blank: no history survives).
  void invalidate_all();

  // --- persistence (FileDisk sidecars) ---------------------------------
  // Attaches (creating or loading) a sidecar file. Existing valid slots
  // populate the in-memory records; the file is then allocated in full
  // and mapped, and subsequent record/resync calls store through the
  // mapping. Throws std::runtime_error on open/format/allocation errors.
  void attach_file(const std::string& path);
  bool persistent() const { return map_ != nullptr; }
  // Makes every record stored so far durable: msync, then fdatasync.
  void flush();

  // Raw slot access for crash/torn-slot tests: byte offset of (element,
  // slot) in the sidecar file, and the slot payload size.
  static int64_t slot_offset(int64_t element, int slot);
  static constexpr size_t kSlotBytes = 40;
  // attach_file's reload reads this many elements' slot pairs per pread
  // (the most whole pairs that fit in 1 MiB).
  static constexpr int64_t kScanChunkElements =
      (int64_t{1} << 20) / (2 * static_cast<int64_t>(kSlotBytes));

 private:
  struct Record {
    std::atomic<uint64_t> seq{0};  // seqlock; odd = writer active
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> prev{0};
    std::atomic<uint64_t> tag{0};
  };

  // Writers are rare (one per element write) and already serialized per
  // stripe by the array; these locks only close the scrub-resync vs
  // foreground-write race so the per-record seqlock keeps its
  // single-writer invariant. Each store has its own, so writers to
  // different disks never share one; consecutive elements of a disk map
  // to different slots.
  struct alignas(64) WriterSlot {
    std::mutex mu;
  };
  static constexpr size_t kWriterSlots = 16;
  std::mutex& writer_mutex(int64_t element) const {
    return writers_[static_cast<size_t>(element) % kWriterSlots].mu;
  }

  void store_locked(int64_t element, uint64_t sum, uint64_t prev,
                    uint64_t tag);
  void persist(int64_t element, uint64_t sum, uint64_t prev, uint64_t tag,
               uint64_t seq);

  int64_t elements_;
  std::unique_ptr<Record[]> recs_;
  mutable std::array<WriterSlot, kWriterSlots> writers_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;  // the whole sidecar, MAP_SHARED
  size_t map_bytes_ = 0;
};

}  // namespace dcode::raid
