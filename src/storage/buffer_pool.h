// BufferPool — a fixed budget of in-memory page frames over a PageFile,
// with pin/unpin discipline and clock (second-chance) eviction.
//
// The pool is the only path to page bytes: readers and writers Pin a
// page (faulting it from its current physical slot on a miss, possibly
// evicting an unpinned frame — dirty victims are written back to the
// page's scratch slot first), operate on the returned payload, and
// Unpin, marking the frame dirty when they wrote. Capping `pool_pages`
// below the table's page count therefore gives genuine out-of-core
// operation: every tick faults and evicts.
//
// The pool also owns the per-page slot state of the shadow-paging
// scheme (see page_file.h): `committed` says which physical slot the
// latest manifest points at, `scratch_valid` says the other slot holds
// newer (uncommitted) bytes. Misses read the newest valid slot;
// evictions and checkpoint flushes write the scratch slot; a checkpoint
// promotes every scratch slot to committed before the manifest rename
// publishes the flip.
//
// Thread safety: Pin/Unpin are serialized by one mutex; a pinned
// frame's payload may be read outside the lock (pin_count blocks
// eviction, frames never move).
#ifndef SGL_STORAGE_BUFFER_POOL_H_
#define SGL_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/page_file.h"
#include "util/status.h"

namespace sgl {
namespace storage {

class BufferPool {
 public:
  /// A pinned page: `payload` is the page's data area (payload_size()
  /// bytes, header excluded). Valid until Unpin.
  struct Pinned {
    uint8_t* payload = nullptr;
    int32_t frame = -1;
  };

  /// `file` must outlive the pool. `pool_pages` >= 2.
  BufferPool(PageFile* file, int32_t page_size, int32_t pool_pages);

  /// Optional counters (storage.pool.*); null pointers are skipped.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions);

  int32_t payload_size() const { return page_size_ - kPageHeaderBytes; }

  /// Pin `id`. With `create`, the frame starts zeroed without touching
  /// disk (the caller is about to overwrite the whole page); otherwise a
  /// miss faults the newest valid slot and verifies its checksum.
  Result<Pinned> Pin(PageId id, bool create);

  /// Release a pin; `dirty` records that the payload was modified.
  void Unpin(const Pinned& pinned, bool dirty);

  /// Write every dirty frame to its page's scratch slot (frames stay
  /// resident and become clean). Returns pages written via `*written`.
  Status FlushDirty(int64_t* written);

  /// Checkpoint publication: flip the committed bit of every page whose
  /// scratch slot holds newer bytes. Call only after FlushDirty + fsync.
  void PromoteScratch();

  /// The committed-slot bit per page (index = PageId), for the manifest.
  const std::vector<uint8_t>& committed_bits() const { return committed_; }

  /// Install the committed-slot bits read back from a manifest.
  void LoadCommittedBits(std::vector<uint8_t> bits);

  /// Drop every cached frame (recovery is about to re-read the durable
  /// image, so resident bytes — possibly newer than the checkpoint —
  /// must not satisfy its faults). All frames must be unpinned.
  Status InvalidateAll();

 private:
  struct Frame {
    PageId page = -1;  // -1 = free
    int32_t pin_count = 0;
    bool dirty = false;
    bool ref = false;  // clock second-chance bit
    std::unique_ptr<uint8_t[]> bytes;
  };

  /// Grow the per-page slot-state vectors to cover `id`.
  void EnsurePage(PageId id);

  /// Pick a victim frame by clock sweep, writing it back if dirty.
  Result<int32_t> Evict();

  int32_t ScratchSlot(PageId id) const { return 1 - committed_[id]; }
  int32_t NewestSlot(PageId id) const {
    return scratch_valid_[id] ? ScratchSlot(id) : committed_[id];
  }

  PageFile* file_;
  const int32_t page_size_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, int32_t> page_to_frame_;
  int32_t clock_hand_ = 0;
  std::vector<uint8_t> committed_;      // per page: committed slot (0/1)
  std::vector<uint8_t> scratch_valid_;  // per page: scratch newer than committed

  std::mutex mu_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
};

}  // namespace storage
}  // namespace sgl

#endif  // SGL_STORAGE_BUFFER_POOL_H_
