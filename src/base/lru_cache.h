#ifndef QCONT_BASE_LRU_CACHE_H_
#define QCONT_BASE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace qcont {

/// Counters of one LruCache (or a sum of several). `entries` is the
/// current population; the rest are monotonic and survive Clear().
struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  LruCacheStats& operator+=(const LruCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    entries += other.entries;
    return *this;
  }
};

/// The one bounded LRU behind every cache layer (DESIGN.md §15): the plan
/// cache's four answer kinds, the program-artifact cache and the global
/// analysis-report cache. Strict LRU: a hit refreshes recency, and an
/// insert past `capacity` evicts the least recently used entry. Capacity
/// 0 stores nothing (every lookup misses, inserts are dropped).
///
/// Epochs: every entry records the epoch of its *first* insertion, and
/// BeginEpoch advances the counter. A hit's optional `stable` out-param
/// reports whether the entry predates the current epoch, i.e. whether it
/// would be resident no matter how the current batch is scheduled. Servers
/// derive their hit/miss response markers from it, which keeps response
/// streams identical across thread counts.
///
/// Thread safety: one mutex guards everything; values are returned by copy,
/// so `V` is typically small or a shared handle.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Entries inserted from now on report `*stable == false` until the next
  /// BeginEpoch call.
  void BeginEpoch() {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
  }

  /// Counts a hit or a miss; a hit refreshes recency. `stable` (optional)
  /// is false on a miss.
  std::optional<V> Lookup(const K& key, bool* stable = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = Find(key, stable);
    if (it == index_.end()) return std::nullopt;
    return it->second->value;
  }

  /// Returns the number of entries evicted (0 or 1). Re-inserting a
  /// resident key replaces its value and refreshes it, but keeps its
  /// original epoch (its stability must not regress) and is not counted
  /// as an insertion.
  std::uint64_t Insert(const K& key, V value) {
    if (capacity_ == 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return 0;
    }
    return Emplace(key, std::move(value));
  }

  /// The single-flight primitive: one atomic Lookup-then-Insert. On a hit
  /// returns the resident value and `true`; on a miss inserts `value` (not
  /// kept when capacity is 0) and returns it with `false`. Concurrent
  /// callers of one key therefore count exactly one miss between them, and
  /// the others get the first caller's value — typically a shared_future
  /// the first caller fulfills outside the lock.
  std::pair<V, bool> FindOrInsert(const K& key, V value,
                                  bool* stable = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = Find(key, stable);
    if (it != index_.end()) return {it->second->value, true};
    if (capacity_ > 0) Emplace(key, value);
    return {std::move(value), false};
  }

  /// Drops every entry. Counters keep accumulating; drops are not
  /// evictions.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    order_.clear();
  }

  LruCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Snapshot();
  }

  /// The same snapshot, also calling `visit(value)` on every resident entry
  /// under the same lock, so a caller's per-value sum (e.g. bytes) is
  /// consistent with `entries`.
  template <typename F>
  LruCacheStats stats(F&& visit) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& entry : order_) visit(entry.value);
    return Snapshot();
  }

 private:
  struct Entry {
    K key;
    V value;
    std::uint64_t epoch = 0;  // epoch of the entry's first insertion
  };
  using Order = std::list<Entry>;  // front = most recent
  using Index = std::unordered_map<K, typename Order::iterator, Hash>;

  // Requires mu_. Counts the lookup and refreshes a hit.
  typename Index::iterator Find(const K& key, bool* stable) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      if (stable != nullptr) *stable = false;
      return it;
    }
    ++hits_;
    if (stable != nullptr) *stable = it->second->epoch < epoch_;
    order_.splice(order_.begin(), order_, it->second);
    return it;
  }

  // Requires mu_.
  LruCacheStats Snapshot() const {
    return {hits_, misses_, insertions_, evictions_, index_.size()};
  }

  // Requires mu_, capacity_ > 0 and `key` absent.
  std::uint64_t Emplace(const K& key, V value) {
    order_.push_front(Entry{key, std::move(value), epoch_});
    index_.emplace(key, order_.begin());
    ++insertions_;
    if (index_.size() <= capacity_) return 0;
    index_.erase(order_.back().key);
    order_.pop_back();
    ++evictions_;
    return 1;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  Order order_;
  Index index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace qcont

#endif  // QCONT_BASE_LRU_CACHE_H_
