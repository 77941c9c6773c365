// On-disk page format shared by the page file, the world store, the WAL
// and the manifest (src/storage/).
//
// A page is a fixed-size block: a 24-byte little-endian header followed
// by the payload. Every multi-byte field is written byte-by-byte in
// little-endian order — never a struct memcpy, and runs of doubles only
// through StoreDoublesLE — so page files are identical across
// platforms. The checksum (FNV-1a over the payload) makes torn or
// bit-rotted pages detectable at read time; the page id in the header
// catches misdirected writes.
#ifndef SGL_STORAGE_PAGE_H_
#define SGL_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sgl {
namespace storage {

/// Logical page number. The world store maps (row chunk, column slot) to
/// page ids densely: id = chunk * num_slots + slot (slot 0 = keys).
using PageId = int64_t;

inline constexpr uint32_t kPageMagic = 0x53475047;  // "SGPG" little-endian
inline constexpr int32_t kPageHeaderBytes = 24;

/// FNV-1a 64-bit over `len` bytes — the storage layer's one checksum.
inline uint64_t Fnv1a(const uint8_t* data, size_t len,
                      uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline void StoreLE(uint8_t* dst, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    dst[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
  }
}

inline uint64_t LoadLE(const uint8_t* src, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(src[i]) << (8 * i);
  }
  return v;
}

/// Doubles travel as their raw IEEE-754 bit pattern (exact round-trip).
inline uint64_t PackDouble(double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double UnpackDouble(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Store `n` doubles as consecutive 8-byte little-endian bit patterns —
/// the layout of a column page's payload and of a WAL cell run. On a
/// little-endian host that layout is the doubles' memory image.
inline void StoreDoublesLE(uint8_t* dst, const double* src, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (n > 0) std::memcpy(dst, src, n * 8);
#else
  for (size_t i = 0; i < n; ++i) StoreLE(dst + i * 8, PackDouble(src[i]), 8);
#endif
}

/// Fill `page` (page_size bytes; payload already in place after the
/// header) with a valid header for `id`.
inline void SealPage(uint8_t* page, int32_t page_size, PageId id) {
  const uint8_t* payload = page + kPageHeaderBytes;
  const size_t payload_len =
      static_cast<size_t>(page_size - kPageHeaderBytes);
  StoreLE(page, kPageMagic, 4);
  StoreLE(page + 4, static_cast<uint64_t>(payload_len), 4);
  StoreLE(page + 8, static_cast<uint64_t>(id), 8);
  StoreLE(page + 16, Fnv1a(payload, payload_len), 8);
}

/// Verify a page read back from disk: magic, id, and payload checksum.
inline bool PageValid(const uint8_t* page, int32_t page_size, PageId id) {
  if (LoadLE(page, 4) != kPageMagic) return false;
  const size_t payload_len =
      static_cast<size_t>(page_size - kPageHeaderBytes);
  if (LoadLE(page + 4, 4) != payload_len) return false;
  if (LoadLE(page + 8, 8) != static_cast<uint64_t>(id)) return false;
  return LoadLE(page + 16, 8) == Fnv1a(page + kPageHeaderBytes, payload_len);
}

}  // namespace storage
}  // namespace sgl

#endif  // SGL_STORAGE_PAGE_H_
