// PageFile — positioned POSIX I/O over the world's page file.
//
// Each logical page owns two physical slots (a ping-pong pair): the slot
// the latest manifest committed, and a scratch slot the next checkpoint
// writes. Physical offset = (page * 2 + slot) * page_size. Checkpointing
// writes each page touched since the last one to its scratch slot,
// flips its committed bit, and publishes the flips atomically through
// the manifest rename, so a crash at any instant leaves the previous
// checkpoint's image untouched on disk — classic shadow paging, sized
// for exactly two versions.
//
// The file descriptor is used with pread/pwrite (no shared cursor), so
// a page's offset is the only state a read or write needs.
#ifndef SGL_STORAGE_PAGE_FILE_H_
#define SGL_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <string>

#include "storage/page.h"
#include "util/status.h"

namespace sgl {
namespace storage {

class PageFile {
 public:
  PageFile() = default;
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Open (creating if absent) the page file at `path`.
  Status Open(const std::string& path, int32_t page_size);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Read the physical slot of `page` into `buf` (page_size bytes) and
  /// verify header + checksum. A slot that was never written reads as a
  /// hole; `missing_ok` turns that into an all-zero valid page instead
  /// of an error (fresh pages past the last checkpointed extent).
  Status ReadSlot(PageId page, int32_t slot, uint8_t* buf, bool missing_ok);

  /// Seal `buf` (writes its header in place) and write it to the
  /// physical slot of `page`.
  Status WriteSlot(PageId page, int32_t slot, uint8_t* buf);

  /// fsync the file.
  Status Sync();

 private:
  int64_t SlotOffset(PageId page, int32_t slot) const {
    return (page * 2 + slot) * static_cast<int64_t>(page_size_);
  }

  int fd_ = -1;
  int32_t page_size_ = 0;
  std::string path_;
};

}  // namespace storage
}  // namespace sgl

#endif  // SGL_STORAGE_PAGE_FILE_H_
