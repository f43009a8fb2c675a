#ifndef QCONT_BASE_NAME_TABLE_H_
#define QCONT_BASE_NAME_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>

namespace qcont {

/// Storage for `n` trivially copyable elements: an inline array of N,
/// one heap block past it. Sized once per use (`Reset`), so a kernel has
/// one code path for every input size and allocates only when an input
/// outgrows the inline capacity. Contents are unspecified after Reset.
template <typename T, std::size_t N>
class StackBuffer {
 public:
  StackBuffer() = default;
  explicit StackBuffer(std::size_t n) { Reset(n); }
  StackBuffer(const StackBuffer&) = delete;
  StackBuffer& operator=(const StackBuffer&) = delete;

  void Reset(std::size_t n) {
    if (n > N && n > heap_size_) {
      heap_.reset(new T[n]);
      heap_size_ = n;
    }
    data_ = n > N ? heap_.get() : inline_;
  }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  T inline_[N];
  std::unique_ptr<T[]> heap_;
  std::size_t heap_size_ = 0;
  T* data_ = inline_;
};

/// Dense ids 0, 1, … for distinct keys, in first-insertion order. The
/// caller stores the key to look up as id size() and calls Add: `hash(id)`
/// hashes the key of an id and `same(a, b)` compares the keys of two ids.
/// While at most kScanKeys keys are known, the new key is compared with
/// every earlier one, which is cheapest for small inputs; past that the
/// ids sit in an open-addressing table keyed by the hash, so a lookup is
/// O(1) and a pass over an input stays linear in it.
class KeyIndex {
 public:
  static constexpr std::uint32_t kScanKeys = 16;

  /// Room for `capacity` keys, at least the number of Add calls to come;
  /// forgets every key.
  void Reset(std::size_t capacity) {
    capacity_ = capacity;
    size_ = 0;
    mask_ = 0;
  }

  std::uint32_t size() const { return size_; }

  /// The id of an earlier key equal to the key stored as id size(), or, if
  /// there is none, size() before the call: the new key is kept.
  template <typename Hash, typename Same>
  std::uint32_t Add(Hash hash, Same same) {
    const std::uint32_t id = size_;
    if (mask_ == 0) {
      for (std::uint32_t other = 0; other < id; ++other) {
        if (same(other, id)) return other;
      }
      if (++size_ > kScanKeys) {
        mask_ = std::bit_ceil(2 * capacity_) - 1;
        slots_.Reset(mask_ + 1);
        std::fill(slots_.data(), slots_.data() + mask_ + 1, kUnbound);
        for (std::uint32_t k = 0; k < size_; ++k) Slot(hash, same, k) = k;
      }
      return id;
    }
    std::uint32_t& slot = Slot(hash, same, id);
    if (slot == kUnbound) slot = size_++;
    return slot;
  }

 private:
  static constexpr std::uint32_t kUnbound =
      std::numeric_limits<std::uint32_t>::max();

  // The slot holding a key equal to id's, or the empty slot it would take.
  template <typename Hash, typename Same>
  std::uint32_t& Slot(Hash& hash, Same& same, std::uint32_t id) {
    std::size_t slot = hash(id) & mask_;
    while (slots_[slot] != kUnbound && !same(slots_[slot], id)) {
      slot = (slot + 1) & mask_;
    }
    return slots_[slot];
  }

  std::size_t capacity_ = 0;
  std::uint32_t size_ = 0;
  std::size_t mask_ = 0;
  StackBuffer<std::uint32_t, 64> slots_;
};

/// Dense ids for names, in first-occurrence order; `capacity` bounds the
/// number of Intern calls. The table keeps views: every interned name
/// must outlive it (or the next Reset).
class NameTable {
 public:
  void Reset(std::size_t capacity) {
    index_.Reset(capacity);
    names_.Reset(capacity);
  }
  std::uint32_t size() const { return index_.size(); }
  std::uint32_t Intern(std::string_view name) {
    names_[index_.size()] = {name.data(), name.size()};
    return index_.Add(
        [&](std::uint32_t id) {
          return std::hash<std::string_view>()(names_[id].view());
        },
        [&](std::uint32_t a, std::uint32_t b) {
          return names_[a].view() == names_[b].view();
        });
  }
  /// The name of id `id` (< size()).
  std::string_view NameOf(std::uint32_t id) const { return names_[id].view(); }

 private:
  // A trivially constructible view, so the inline names cost nothing
  // until used.
  struct Name {
    const char* data;
    std::size_t size;
    std::string_view view() const { return {data, size}; }
  };
  KeyIndex index_;
  StackBuffer<Name, 64> names_;
};

}  // namespace qcont

#endif  // QCONT_BASE_NAME_TABLE_H_
