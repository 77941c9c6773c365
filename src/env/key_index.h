// KeyIndex: the environment table's map from unit key to row.
//
// An open-addressing hash table: one flat array of (key, row) slots, a
// power of two long and at most half full, probed linearly from each
// key's home slot. Erase shifts the rest of the probe run back instead of
// leaving a tombstone, so lookups never scan dead slots. Adding or
// removing a key allocates nothing; only growth past half full does.
#ifndef SGL_ENV_KEY_INDEX_H_
#define SGL_ENV_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgl {

class KeyIndex {
 public:
  /// Row of `key`, or -1.
  int32_t Find(int64_t key) const {
    if (slots_.empty()) return -1;
    for (size_t s = HomeSlot(key);; s = Next(s)) {
      const Slot& slot = slots_[s];
      if (slot.row < 0) return -1;
      if (slot.key == key) return slot.row;
    }
  }

  /// Map `key` to `row` (>= 0), replacing any row it had.
  void Put(int64_t key, int32_t row) {
    if (2 * (size_ + 1) > slots_.size()) Grow(size_ + 1);
    size_t s = HomeSlot(key);
    while (slots_[s].row >= 0 && slots_[s].key != key) s = Next(s);
    if (slots_[s].row < 0) ++size_;
    slots_[s] = Slot{key, row};
  }

  /// Remove `key` if present.
  void Erase(int64_t key) {
    if (slots_.empty()) return;
    size_t hole = HomeSlot(key);
    while (slots_[hole].key != key || slots_[hole].row < 0) {
      if (slots_[hole].row < 0) return;
      hole = Next(hole);
    }
    // Backward shift: pull each later entry of the run into the hole
    // unless its home slot lies cyclically in (hole, s], where the hole
    // would put it before its home.
    for (size_t s = Next(hole); slots_[s].row >= 0; s = Next(s)) {
      const size_t home = HomeSlot(slots_[s].key);
      const bool stays = hole < s ? (hole < home && home <= s)
                                  : (hole < home || home <= s);
      if (stays) continue;
      slots_[hole] = slots_[s];
      hole = s;
    }
    slots_[hole].row = -1;
    --size_;
  }

  /// Make room for `n` keys without further growth.
  void Reserve(size_t n) {
    if (2 * n > slots_.size()) Grow(n);
  }

  size_t size() const { return size_; }
  /// Slots in the table (a power of two, or 0 before the first key).
  size_t capacity() const { return slots_.size(); }
  /// The slot `key`'s probe run starts at (capacity() > 0).
  size_t HomeSlot(int64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread runs of
    // consecutive keys, the common case, evenly.
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  struct Slot {
    int64_t key = 0;
    int32_t row = -1;  // -1: empty
  };

  size_t Next(size_t s) const { return (s + 1) & (slots_.size() - 1); }

  /// Rehash into the smallest power of two (at least 16) that holds `n`
  /// keys at most half full.
  void Grow(size_t n) {
    size_t cap = 16;
    int bits = 4;
    while (cap < 2 * n) {
      cap *= 2;
      ++bits;
    }
    std::vector<Slot> old(cap);
    old.swap(slots_);
    shift_ = 64 - bits;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.row >= 0) Put(slot.key, slot.row);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace sgl

#endif  // SGL_ENV_KEY_INDEX_H_
