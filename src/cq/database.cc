#include "cq/database.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "base/check.h"
#include "base/simd.h"
#include "base/thread_pool.h"
#include "obs/obs.h"

namespace qcont {

namespace {

// Fixed probe-kernel constants (DESIGN.md §16 records the sweep each was
// chosen from).
//
// Tag probe-group width in slots: one SSE2/NEON 16-byte compare per group.
constexpr std::uint32_t kGroupWidth = 16;
// Probe-table growth threshold: grow once occupied slots would exceed this
// percentage of capacity.
constexpr std::size_t kMaxLoadPercent = 75;
// ProbeMany lookahead: while key i resolves, the tag group and home slot
// of key i + kPrefetchDistance are software-prefetched.
constexpr std::size_t kPrefetchDistance = 8;

// Overhang of the tag array past the slot capacity: the first group is
// mirrored there so a group load starting at any slot index stays in
// bounds.
constexpr std::size_t kTagMirror = kGroupWidth;

// Slot tag: the top 7 hash bits with the high bit set, so an occupied
// slot's tag is never 0 (the empty-slot tag) and never matches a
// zero-needle group compare. The low hash bits pick the home slot, so tag
// and slot index are nearly independent.
inline std::uint8_t TagOf(std::uint64_t h) {
  return static_cast<std::uint8_t>(h >> 56) | 0x80u;
}

inline void SetTagAt(std::vector<std::uint8_t>& tags, std::size_t cap,
                     std::size_t slot, std::uint8_t tag) {
  tags[slot] = tag;
  if (slot < kTagMirror) tags[cap + slot] = tag;
}

// Blocked Bloom filter over key hashes: 2 probe bits per key drawn from
// hash bits disjoint from the slot-index (low) and tag (top 8) bits. The
// word vector is power-of-two sized, so masking replaces modulo.
inline void BloomAdd(std::vector<std::uint64_t>& bloom, std::uint64_t h) {
  const std::size_t bit_mask = bloom.size() * 64 - 1;
  const std::size_t b1 = (h >> 16) & bit_mask;
  const std::size_t b2 = (h >> 36) & bit_mask;
  bloom[b1 >> 6] |= 1ULL << (b1 & 63);
  bloom[b2 >> 6] |= 1ULL << (b2 & 63);
}

inline bool BloomMayContain(const std::vector<std::uint64_t>& bloom,
                            std::uint64_t h) {
  const std::size_t bit_mask = bloom.size() * 64 - 1;
  const std::size_t b1 = (h >> 16) & bit_mask;
  const std::size_t b2 = (h >> 36) & bit_mask;
  return (bloom[b1 >> 6] >> (b1 & 63) & 1) != 0 &&
         (bloom[b2 >> 6] >> (b2 & 63) & 1) != 0;
}

// Highest position a mask constrains (mask must be nonzero).
inline std::uint32_t HighestBit(std::uint32_t mask) {
  std::uint32_t top = 0;
  while (mask >>= 1) ++top;
  return top;
}

// Inline slot key for key widths <= 2: each value shifted up by one so the
// result is always nonzero (0 is the empty-slot sentinel; kNoValue never
// occurs in a row, so v+1 never wraps). Returns 0 for wide keys, which are
// stored out of line.
inline std::uint64_t PackedKey(std::uint32_t width,
                               std::span<const ValueId> key) {
  if (width == 1) return (static_cast<std::uint64_t>(key[0]) + 1) << 32;
  if (width == 2) {
    return ((static_cast<std::uint64_t>(key[0]) + 1) << 32) |
           (static_cast<std::uint64_t>(key[1]) + 1);
  }
  if (width == 0) return 1;  // the single possible (empty) key
  return 0;
}

// Debug-build validator for the freeze contract of the concurrency model
// (ARCHITECTURE.md): a database handed to a parallel region is *frozen* —
// concurrent probes are lock-free precisely because no mutation runs
// until the barrier. Mutating entry points bump a relaxed epoch counter;
// a guard constructed at the top of a lock-free read path re-checks the
// epoch on destruction and aborts if a mutation raced the read. Compiled
// out entirely in NDEBUG builds (the sanitizer CI legs build Debug, so
// the contract stays exercised without taxing release probes).
class EpochReadGuard {
 public:
#ifndef NDEBUG
  explicit EpochReadGuard(const std::atomic<std::uint64_t>& epoch)
      : epoch_(&epoch), seen_(epoch.load(std::memory_order_relaxed)) {}
  ~EpochReadGuard() {
    QCONT_CHECK_MSG(epoch_->load(std::memory_order_relaxed) == seen_,
                    "database mutated during a lock-free read "
                    "(freeze-during-parallel-region contract violated)");
  }

 private:
  const std::atomic<std::uint64_t>* epoch_;
  std::uint64_t seen_;
#else
  explicit EpochReadGuard(const std::atomic<std::uint64_t>&) {}
#endif
  EpochReadGuard(const EpochReadGuard&) = delete;
  EpochReadGuard& operator=(const EpochReadGuard&) = delete;
};

}  // namespace

Database::AtomicIndexStats& Database::stats_stripe() const {
  // Worker id -1 (non-pool threads, including the main thread) lands on
  // stripe 0; pool workers spread over the remaining stripes. Totals are
  // stripe-placement independent, so this is purely contention relief.
  const int wid = ThreadPool::CurrentWorkerId();
  return index_stats_[static_cast<std::size_t>(wid + 1) & (kStatStripes - 1)];
}

// ---------------------------------------------------------------------------
// Flat probe tables (open addressing, linear probing, pow2 capacity).
// ---------------------------------------------------------------------------

namespace {

// HashKey without the table at hand: the key width is all the hash depends
// on, so callers that know it (full-row keys have width == arity) can skip
// the FlatIndex dereference on hot insert paths.
inline std::uint64_t HashRowKey(std::uint32_t width,
                                std::span<const ValueId> key,
                                std::uint64_t packed) {
  if (width <= 2) return Mix64(packed);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL * (width + 1);
  for (ValueId v : key) h = Mix64(h ^ (static_cast<std::uint64_t>(v) + 1));
  return h;
}

}  // namespace

std::uint64_t Database::HashKey(const FlatIndex& idx,
                                std::span<const ValueId> key,
                                std::uint64_t packed) const {
  return HashRowKey(idx.key_width, key, packed);
}

// Tag-filtered probe scan for `key`: returns the slot holding it, or the
// empty slot where it would be inserted. Scans probe groups of
// kGroupWidth slots from the home slot: one byte-wise group compare
// against the key's tag selects the candidate slots (counted in
// `tag_hits`, with the occupied non-candidates in `tag_skips`), each
// candidate is full-key compared in scan order (failures counted in
// `collisions`), and the first empty tag terminates the probe sequence —
// exactly the slot-by-slot linear-probing order, so tables are laid out
// identically to the pre-tag kernel. The group compare is SSE2/NEON or the
// scalar SWAR fallback (base/simd.h); the returned slot and every counter
// are bit-identical across kernels by the MatchBytes contract. Requires
// nonempty `slots` and `h == HashKey(idx, key, packed)`.
std::size_t Database::FindSlot(const FlatIndex& idx,
                               std::span<const ValueId> key,
                               std::uint64_t packed, std::uint64_t h,
                               LocalProbeCounters* c) const {
  const std::size_t cap_mask = idx.slots.size() - 1;
  const std::uint8_t tag = TagOf(h);
  std::size_t i = h & cap_mask;
  while (true) {
    const std::uint8_t* group = idx.tags.data() + i;
    std::uint32_t match = MatchBytes16(group, tag);
    const std::uint32_t empty = MatchBytes16(group, 0);
    const std::uint32_t stop =
        empty != 0 ? static_cast<std::uint32_t>(std::countr_zero(empty))
                   : kGroupWidth;
    match &= (1u << stop) - 1u;  // stop <= 16 < 32: no shift UB
    c->tag_skips += stop - static_cast<std::uint32_t>(std::popcount(match));
    while (match != 0) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(match));
      match &= match - 1;
      const std::size_t s = (i + b) & cap_mask;
      ++c->tag_hits;
      const std::uint64_t stored = idx.slots[s].key;
      if (idx.key_width <= 2) {
        if (stored == packed) return s;
      } else {
        const ValueId* wide =
            idx.wide_keys.data() + (stored - 1) * idx.key_width;
        if (std::equal(key.begin(), key.end(), wide)) return s;
      }
      ++c->collisions;
    }
    if (empty != 0) return (i + stop) & cap_mask;
    i = (i + kGroupWidth) & cap_mask;
  }
}

void Database::FlushProbeCounters(const LocalProbeCounters& c) const {
  if ((c.tag_hits | c.tag_skips | c.collisions | c.filter_skips) == 0) return;
  AtomicIndexStats& st = stats_stripe();
  if (c.tag_hits != 0) {
    st.tag_hits.fetch_add(c.tag_hits, std::memory_order_relaxed);
  }
  if (c.tag_skips != 0) {
    st.tag_skips.fetch_add(c.tag_skips, std::memory_order_relaxed);
  }
  if (c.collisions != 0) {
    st.probe_collisions.fetch_add(c.collisions, std::memory_order_relaxed);
  }
  if (c.filter_skips != 0) {
    st.filter_skips.fetch_add(c.filter_skips, std::memory_order_relaxed);
  }
}

// Grows `idx` so that `keys` occupied slots stay at or under the
// kMaxLoadPercent load factor.
// Growing rehashes the slots and rebuilds the tag array and Bloom filter —
// the postings arena and wide-key storage are untouched.
void Database::EnsureFlatCapacity(FlatIndex* idx, std::size_t keys) const {
  const std::size_t cap = idx->slots.size();
  if (cap != 0 && keys * 100 <= cap * kMaxLoadPercent) return;
  // Start at 32 slots: small relations (canonical databases are a few dozen
  // rows) reach steady state with at most one growth rebuild, which now
  // rebuilds tag and filter metadata alongside the slots. ~0.8 KB per
  // index at rest.
  std::size_t new_cap = cap == 0 ? 32 : cap;
  while (keys * 100 > new_cap * kMaxLoadPercent) new_cap <<= 1;
  std::vector<FlatIndex::Slot> old = std::move(idx->slots);
  idx->slots.assign(new_cap, FlatIndex::Slot{});
  idx->tags.assign(new_cap + kTagMirror, 0);
  idx->bloom.assign(std::max<std::size_t>(new_cap / 8, 2), 0);
  const std::size_t cap_mask = new_cap - 1;
  for (const FlatIndex::Slot& s : old) {
    if (s.key == 0) continue;
    std::uint64_t h;
    if (idx->key_width <= 2) {
      h = Mix64(s.key);
    } else {
      const ValueId* stored =
          idx->wide_keys.data() + (s.key - 1) * idx->key_width;
      h = HashKey(*idx, std::span<const ValueId>(stored, idx->key_width), 0);
    }
    std::size_t i = h & cap_mask;
    while (idx->slots[i].key != 0) i = (i + 1) & cap_mask;
    idx->slots[i] = s;
    SetTagAt(idx->tags, new_cap, i, TagOf(h));
    BloomAdd(idx->bloom, h);
  }
  if (cap != 0) {
    stats_stripe().probe_resizes.fetch_add(1, std::memory_order_relaxed);
  }
}

// Finds `key`'s slot, claiming an empty one for it (tag + Bloom metadata
// included) if absent. The caller must have ensured capacity for the
// insert (no growth happens here, so slot indices handed out earlier in a
// batch stay valid).
std::size_t Database::InsertSlot(FlatIndex* idx, std::span<const ValueId> key,
                                 std::uint64_t packed) const {
  const std::uint64_t h = HashKey(*idx, key, packed);
  LocalProbeCounters ignored;  // insert-path scans are not probe signal
  const std::size_t i = FindSlot(*idx, key, packed, h, &ignored);
  if (idx->slots[i].key == 0) ClaimSlot(idx, i, key, packed, h);
  return i;
}

// Writes `key` (hash `h`) into the empty slot `i`: the slot key — packed,
// or an offset into `wide_keys` — its tag and its Bloom bits.
void Database::ClaimSlot(FlatIndex* idx, std::size_t i,
                         std::span<const ValueId> key, std::uint64_t packed,
                         std::uint64_t h) {
  FlatIndex::Slot& s = idx->slots[i];
  if (idx->key_width <= 2) {
    s.key = packed;
  } else {
    const std::uint64_t off = idx->wide_keys.size() / idx->key_width;
    idx->wide_keys.insert(idx->wide_keys.end(), key.begin(), key.end());
    s.key = off + 1;
  }
  SetTagAt(idx->tags, idx->slots.size(), i, TagOf(h));
  BloomAdd(idx->bloom, h);
  ++idx->used;
}

// ClaimSlot for a primary (full-row) table: the slot's bucket is a fresh
// one-entry postings slice holding row `row`.
void Database::ClaimPrimarySlot(FlatIndex* idx, std::size_t i,
                                std::span<const ValueId> key,
                                std::uint64_t packed, std::uint64_t h,
                                std::uint32_t row) {
  ClaimSlot(idx, i, key, packed, h);
  FlatIndex::Slot& s = idx->slots[i];
  s.start = static_cast<std::uint32_t>(idx->postings.size());
  s.len = 1;
  idx->postings.push_back(row);
}

// Counted dedup lookup of a batch candidate in a primary table, Bloom-gated
// like ProbeMany: returns the empty slot to claim for it, or kDuplicateRow
// if the row is present. A filter miss proves the row absent, even against
// earlier claims of the same batch (claims BloomAdd); the scan that then
// finds its slot is insert work, not probe signal.
std::size_t Database::DedupSlot(const FlatIndex& idx,
                                std::span<const ValueId> key,
                                std::uint64_t packed, std::uint64_t h,
                                LocalProbeCounters* c) const {
  if (!BloomMayContain(idx.bloom, h)) {
    ++c->filter_skips;
    LocalProbeCounters ignored;
    return FindSlot(idx, key, packed, h, &ignored);
  }
  const std::size_t i = FindSlot(idx, key, packed, h, c);
  return idx.slots[i].key != 0 ? kDuplicateRow : i;
}

std::span<const std::uint32_t> Database::LookupFlat(
    const FlatIndex& idx, std::span<const ValueId> key) const {
  if (idx.slots.empty()) return {};
  const std::uint64_t packed = PackedKey(idx.key_width, key);
  const std::uint64_t h = HashKey(idx, key, packed);
  if (!BloomMayContain(idx.bloom, h)) {
    stats_stripe().filter_skips.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  LocalProbeCounters c;
  const std::size_t i = FindSlot(idx, key, packed, h, &c);
  FlushProbeCounters(c);
  const FlatIndex::Slot& s = idx.slots[i];
  if (s.key == 0 || s.len == 0) return {};
  return {idx.postings.data() + s.start, s.len};
}

// Folds every row added since the last probe of (relation, mask) into the
// table. Runs under the exclusive memo lock. Batch shape: assign each new
// row its slot first (capacity pre-grown, so slot indices are stable),
// sort the (slot, row) pairs, then rebuild the postings arena in one walk
// that keeps each bucket's rows in row order — amortized O(capacity + new
// rows) regardless of how the batch scatters over buckets.
void Database::CatchUpFlat(const RelationData& data, std::uint32_t mask,
                           FlatIndex* idx) const {
  const std::size_t total = data.num_rows;
  if (idx->rows_indexed >= total) return;
  ObsSpan build_span(obs_, "db/index_build", "db");
  build_span.AddArg("mask", mask);
  build_span.AddArg("rows", total - idx->rows_indexed);
  const std::uint32_t top = HighestBit(mask);
  if (data.arity == 0 || top >= data.arity) {
    // No row is long enough to be constrained by every masked position
    // (flat relations have uniform arity), so the table stays empty.
    idx->rows_indexed = total;
    return;
  }
  const std::uint32_t w = idx->key_width;
  const std::size_t new_rows = total - idx->rows_indexed;
  EnsureFlatCapacity(idx, idx->used + new_rows);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> adds;  // (slot, row)
  adds.reserve(new_rows);
  ValueId key_buf[32];
  for (std::size_t r = idx->rows_indexed; r < total; ++r) {
    const ValueId* row = data.arena.data() + r * data.arity;
    std::uint32_t k = 0;
    for (std::uint32_t p = 0; mask >> p != 0; ++p) {
      if (mask >> p & 1u) key_buf[k++] = row[p];
    }
    const std::span<const ValueId> key(key_buf, w);
    adds.emplace_back(
        static_cast<std::uint32_t>(InsertSlot(idx, key, PackedKey(w, key))),
        static_cast<std::uint32_t>(r));
  }
  std::sort(adds.begin(), adds.end());
  std::vector<std::uint32_t> merged;
  merged.reserve(idx->postings.size() + adds.size());
  std::size_t ai = 0;
  for (std::size_t s = 0; s < idx->slots.size(); ++s) {
    FlatIndex::Slot& slot = idx->slots[s];
    if (slot.key == 0) continue;
    const auto start = static_cast<std::uint32_t>(merged.size());
    merged.insert(merged.end(), idx->postings.begin() + slot.start,
                  idx->postings.begin() + slot.start + slot.len);
    while (ai < adds.size() && adds[ai].first == s) {
      merged.push_back(adds[ai].second);
      ++ai;
    }
    slot.start = start;
    slot.len = static_cast<std::uint32_t>(merged.size()) - start;
  }
  idx->postings = std::move(merged);
  idx->rows_indexed = total;
  stats_stripe().rows_indexed.fetch_add(adds.size(),
                                        std::memory_order_relaxed);
}

const Database::FlatIndex* Database::EnsureFlatIndex(const RelationData& data,
                                                     std::uint32_t mask) const {
  {
    // Fast path: the (relation, mask) table exists and is up to date.
    // Shared lock only, so parallel hom searches probing the same frozen
    // database never serialize on the join hot path.
    std::shared_lock<std::shared_mutex> lock(memo_mu_.mu);
    auto it = data.flat_indexes.find(mask);
    if (it != data.flat_indexes.end() &&
        it->second.rows_indexed == data.num_rows) {
      return &it->second;
    }
  }
  // Slow path: build the table (or fold in rows added since the last
  // probe) under the exclusive lock. Re-check the build state after
  // acquiring it — another thread may have finished the build in between.
  std::unique_lock<std::shared_mutex> lock(memo_mu_.mu);
  memo_exclusive_locks_.v.fetch_add(1, std::memory_order_relaxed);
  auto [it, built] = data.flat_indexes.try_emplace(mask);
  if (built) {
    it->second.key_width =
        static_cast<std::uint32_t>(std::popcount(mask));
    stats_stripe().indexes_built.fetch_add(1, std::memory_order_relaxed);
  }
  CatchUpFlat(data, mask, &it->second);
  return &it->second;
}

// ---------------------------------------------------------------------------
// Storage.
// ---------------------------------------------------------------------------

const Database::RelationData* Database::FindRelation(RelationId rel) const {
  if (rel >= rel_slot_.size()) return nullptr;
  const std::int32_t slot = rel_slot_[rel];
  return slot < 0 ? nullptr : &rels_[slot];
}

Database::RelationData& Database::EnsureRelation(RelationId rel) {
  if (rel >= rel_slot_.size()) rel_slot_.resize(rel + 1, -1);
  std::int32_t slot = rel_slot_[rel];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(rels_.size());
    rel_slot_[rel] = slot;
    rels_.emplace_back();
    rels_.back().name = pool_->NameOf(rel);
    rels_.back().id = rel;
    rel_ids_.push_back(rel);
    relations_dirty_ = true;
  }
  return rels_[slot];
}

template <typename Fresh, typename Refresh>
void Database::Memoize(Fresh fresh, Refresh refresh) const {
  {
    std::shared_lock<std::shared_mutex> lock(memo_mu_.mu);
    if (fresh()) return;
  }
  // Re-check under the exclusive lock: another reader may have caught up.
  std::unique_lock<std::shared_mutex> lock(memo_mu_.mu);
  memo_exclusive_locks_.v.fetch_add(1, std::memory_order_relaxed);
  if (!fresh()) refresh();
}

void Database::NoteDomain(std::span<const ValueId> row) {
  for (const ValueId v : row) {
    if (domain_ids_.insert(v).second) domain_ids_list_.push_back(v);
  }
}

bool Database::AddRow(RelationId rel, std::span<const ValueId> row) {
  RelationData& data = EnsureRelation(rel);
  if (data.num_rows == 0) {
    data.arity = row.size();
    data.primary.key_width = static_cast<std::uint32_t>(row.size());
  } else {
    QCONT_CHECK_MSG(row.size() == data.arity,
                    "relations have uniform arity");
  }
  // Duplicate detection through the eager full-row table; a hit means the
  // fact exists and nothing below runs — in particular the mutation epoch
  // only bumps once the row is actually claimed, so the (hot) duplicate
  // path touches no atomics.
  const std::uint64_t packed =
      PackedKey(static_cast<std::uint32_t>(data.arity), row);
  const std::uint64_t h =
      HashRowKey(static_cast<std::uint32_t>(data.arity), row, packed);
  FlatIndex& idx = data.primary;
  EnsureFlatCapacity(&idx, idx.used + 1);
  LocalProbeCounters ignored;  // insert-path scans are not probe signal
  const std::size_t i = FindSlot(idx, row, packed, h, &ignored);
  if (idx.slots[i].key != 0) return false;
  BumpEpoch();
  ClaimPrimarySlot(&idx, i, row, packed, h,
                   static_cast<std::uint32_t>(data.num_rows));
  NoteDomain(row);
  data.arena.insert(data.arena.end(), row.begin(), row.end());
  idx.rows_indexed = idx.postings.size();
  ++data.num_rows;
  ++num_facts_;
  return true;
}

bool Database::AddFact(const std::string& relation, const Tuple& tuple) {
  const RelationId rel = pool_->Intern(relation);
  std::vector<ValueId> row;
  row.reserve(tuple.size());
  for (const Value& v : tuple) row.push_back(pool_->Intern(v));
  return AddRow(rel, row);
}

std::size_t Database::AddRowBatch(RelationId rel, std::size_t arity,
                                  std::span<const ValueId> rows,
                                  std::vector<std::uint32_t>* added) {
  QCONT_CHECK_MSG(arity >= 1 && rows.size() % arity == 0,
                  "AddRowBatch: rows must be dense with stride arity >= 1");
  const std::size_t n = rows.size() / arity;
  if (n == 0) return 0;
  BumpEpoch();
  // Per-candidate dedup lookups are probe signal (the per-key ProbeMany
  // contract): one `probes` tick per candidate.
  stats_stripe().probes.fetch_add(n, std::memory_order_relaxed);
  RelationData& data = EnsureRelation(rel);
  if (data.num_rows == 0) {
    data.arity = arity;
    data.primary.key_width = static_cast<std::uint32_t>(arity);
  } else {
    QCONT_CHECK_MSG(arity == data.arity, "relations have uniform arity");
  }
  // One claim loop: per candidate, ensure capacity, Bloom-gate a counted
  // dedup lookup, and claim the survivor's slot and arena row. A claimed
  // row is visible to later candidates of the batch, and every step
  // depends only on the candidate sequence, so rows and counters do not
  // depend on where a run of candidates is cut into batches.
  const auto w = static_cast<std::uint32_t>(arity);
  FlatIndex& idx = data.primary;
  LocalProbeCounters c;
  std::size_t added_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const ValueId> key = rows.subspan(i * arity, arity);
    const std::uint64_t packed = PackedKey(w, key);
    const std::uint64_t h = HashRowKey(w, key, packed);
    EnsureFlatCapacity(&idx, idx.used + 1);
    const std::size_t slot_i = DedupSlot(idx, key, packed, h, &c);
    if (slot_i == kDuplicateRow) continue;
    const auto g = static_cast<std::uint32_t>(data.num_rows);
    ClaimPrimarySlot(&idx, slot_i, key, packed, h, g);
    data.arena.insert(data.arena.end(), key.begin(), key.end());
    NoteDomain(key);
    if (added != nullptr) added->push_back(g);
    ++data.num_rows;
    ++num_facts_;
    ++added_count;
  }
  idx.rows_indexed = idx.postings.size();
  FlushProbeCounters(c);
  return added_count;
}

bool Database::HasRow(RelationId rel, std::span<const ValueId> row) const {
  const RelationData* data = FindRelation(rel);
  if (data == nullptr || row.size() != data->arity) return false;
  EpochReadGuard guard(mutation_epoch_.v);
  return !LookupFlat(data->primary, row).empty();
}

bool Database::HasFact(const std::string& relation, const Tuple& tuple) const {
  const RelationId rel = pool_->Find(relation);
  if (rel == kNoRelation) return false;
  std::vector<ValueId> row;
  row.reserve(tuple.size());
  for (const Value& v : tuple) {
    const ValueId id = pool_->Find(v);
    if (id == kNoValue) return false;  // value never interned: no such fact
    row.push_back(id);
  }
  return HasRow(rel, row);
}

const std::vector<Tuple>& Database::Facts(const std::string& relation) const {
  static const std::vector<Tuple>* const kEmpty = new std::vector<Tuple>();
  const RelationData* data = FindRelation(pool_->Find(relation));
  if (data == nullptr) return *kEmpty;
  Memoize([&] { return data->tuples.size() == data->num_rows; }, [&] {
    const RowView rows = Rows(data->id);
    for (auto r = static_cast<std::uint32_t>(data->tuples.size());
         r < data->num_rows; ++r) {
      Tuple& t = data->tuples.emplace_back();
      t.reserve(data->arity);
      for (std::size_t k = 0; k < data->arity; ++k) {
        t.push_back(pool_->NameOf(rows[r][k]));
      }
    }
  });
  return data->tuples;
}

const std::vector<Value>& Database::ActiveDomain() const {
  Memoize([&] { return domain_.size() == domain_ids_list_.size(); }, [&] {
    for (std::size_t i = domain_.size(); i < domain_ids_list_.size(); ++i) {
      domain_.push_back(pool_->NameOf(domain_ids_list_[i]));
    }
  });
  return domain_;
}

std::size_t Database::NumRows(RelationId rel) const {
  const RelationData* data = FindRelation(rel);
  return data == nullptr ? 0 : data->num_rows;
}

std::size_t Database::Arity(RelationId rel) const {
  const RelationData* data = FindRelation(rel);
  return data == nullptr ? 0 : data->arity;
}

std::span<const ValueId> Database::Row(RelationId rel, std::size_t r) const {
  const RelationData* data = FindRelation(rel);
  QCONT_CHECK(data != nullptr && r < data->num_rows);
  return {data->arena.data() + r * data->arity, data->arity};
}

std::span<const ValueId> Database::Arena(RelationId rel) const {
  const RelationData* data = FindRelation(rel);
  if (data == nullptr) return {};
  return data->arena;
}

Database::RowView Database::Rows(RelationId rel) const {
  RowView v;
  const RelationData* data = FindRelation(rel);
  if (data == nullptr) return v;
  v.base_ = data->arena.data();
  v.arity_ = data->arity;
  return v;
}

std::span<const std::uint32_t> Database::Probe(
    RelationId rel, std::uint32_t mask, std::span<const ValueId> key) const {
  stats_stripe().probes.fetch_add(1, std::memory_order_relaxed);
  const RelationData* data = FindRelation(rel);
  if (data == nullptr) return {};
  EpochReadGuard guard(mutation_epoch_.v);
  // Fully-bound probes are served by the eagerly maintained full-row
  // primary table: no lazy build, no lock.
  if (IsFullMask(*data, mask)) return LookupFlat(data->primary, key);
  return LookupFlat(*EnsureFlatIndex(*data, mask), key);
}

std::span<const std::uint32_t> Database::Probe(
    const std::string& relation, std::uint32_t mask,
    std::span<const ValueId> key) const {
  return Probe(pool_->Find(relation), mask, key);
}

void Database::ProbeMany(RelationId rel, std::uint32_t mask,
                         std::span<const ValueId> keys,
                         std::span<std::span<const std::uint32_t>> out) const {
  const std::size_t n = out.size();
  if (n == 0) return;
  stats_stripe().probes.fetch_add(n, std::memory_order_relaxed);
  const auto w = static_cast<std::uint32_t>(std::popcount(mask));
  const RelationData* data = FindRelation(rel);
  if (data == nullptr) {
    std::fill(out.begin(), out.end(), std::span<const std::uint32_t>());
    return;
  }
  EpochReadGuard guard(mutation_epoch_.v);
  const FlatIndex* idx = IsFullMask(*data, mask)
                             ? &data->primary
                             : EnsureFlatIndex(*data, mask);
  if (idx->slots.empty()) {
    std::fill(out.begin(), out.end(), std::span<const std::uint32_t>());
    return;
  }
  // Staged pipeline over the block: (1) hash every key once and answer
  // Bloom-filter misses immediately, (2) software-prefetch the surviving
  // keys' home tag groups and slots a fixed distance ahead of (3) the
  // in-order resolving pass, so the resolve never stalls on a cold line.
  const std::size_t cap_mask = idx->slots.size() - 1;
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::uint64_t> packs(n);
  LocalProbeCounters c;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const ValueId> key = keys.subspan(i * w, w);
    packs[i] = PackedKey(w, key);
    hashes[i] = HashKey(*idx, key, packs[i]);
  }
  const std::size_t dist = std::min(kPrefetchDistance, n);
  stats_stripe().prefetch_batches.fetch_add((n + dist - 1) / dist,
                                            std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + dist < n && BloomMayContain(idx->bloom, hashes[i + dist])) {
      const std::size_t home = hashes[i + dist] & cap_mask;
      PrefetchRead(idx->tags.data() + home);
      PrefetchRead(idx->slots.data() + home);
    }
    if (!BloomMayContain(idx->bloom, hashes[i])) {
      ++c.filter_skips;
      out[i] = {};
      continue;
    }
    const std::span<const ValueId> key = keys.subspan(i * w, w);
    const std::size_t s = FindSlot(*idx, key, packs[i], hashes[i], &c);
    const FlatIndex::Slot& slot = idx->slots[s];
    out[i] = (slot.key == 0 || slot.len == 0)
                 ? std::span<const std::uint32_t>()
                 : std::span<const std::uint32_t>(
                       idx->postings.data() + slot.start, slot.len);
  }
  FlushProbeCounters(c);
}

const std::vector<std::string>& Database::Relations() const {
  Memoize([&] { return !relations_dirty_; }, [&] {
    relations_cache_.clear();
    relations_cache_.reserve(rels_.size());
    for (const RelationData& data : rels_) {
      if (data.num_rows > 0) relations_cache_.push_back(data.name);
    }
    std::sort(relations_cache_.begin(), relations_cache_.end());
    relations_dirty_ = false;
  });
  return relations_cache_;
}

void Database::UnionWith(const Database& other) {
  std::vector<ValueId> row;
  for (const RelationData& data : other.rels_) {
    const RelationId rel = pool_->Intern(data.name);
    const RowView rows = other.Rows(data.id);
    for (std::uint32_t r = 0; r < data.num_rows; ++r) {
      row.clear();
      for (std::size_t k = 0; k < data.arity; ++k) {
        row.push_back(pool_->Intern(other.ValueName(rows[r][k])));
      }
      AddRow(rel, row);
    }
  }
}

std::string Database::ToString() const {
  std::string out;
  for (const std::string& rel : Relations()) {
    for (const Tuple& t : Facts(rel)) {
      out += rel + "(";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ",";
        out += t[i];
      }
      out += ")\n";
    }
  }
  return out;
}

namespace {

// D_cq and its frozen head: each variable freezes to its name followed by
// `suffix`, each constant to its name.
FrozenQuery FreezeWith(const ConjunctiveQuery& cq, const std::string& suffix) {
  auto frozen = [&](const Term& t) {
    return t.is_variable() ? t.name() + suffix : t.name();
  };
  FrozenQuery out;
  for (const Atom& a : cq.atoms()) {
    Tuple fact;
    fact.reserve(a.arity());
    for (const Term& t : a.terms()) fact.push_back(frozen(t));
    out.database.AddFact(a.predicate(), std::move(fact));
  }
  for (const Term& t : cq.head()) out.head.push_back(frozen(t));
  return out;
}

}  // namespace

Database CanonicalDatabase(const ConjunctiveQuery& cq) {
  return FreezeWith(cq, "").database;
}

Tuple CanonicalHead(const ConjunctiveQuery& cq) {
  Tuple t;
  t.reserve(cq.head().size());
  for (const Term& term : cq.head()) t.push_back(term.name());
  return t;
}

FrozenQuery Freeze(const ConjunctiveQuery& cq, const ConjunctiveQuery* other) {
  // One '~' more than any constant ends with: no variable's name followed
  // by that many equals a constant.
  std::size_t tildes = 0;
  for (const ConjunctiveQuery* q : {&cq, other}) {
    if (q == nullptr) continue;
    for (const Atom& a : q->atoms()) {
      for (const Term& t : a.terms()) {
        if (!t.is_constant()) continue;
        // npos + 1 wraps to 0 for a name of '~' only.
        const std::size_t body = t.name().find_last_not_of('~') + 1;
        tildes = std::max(tildes, t.name().size() - body + 1);
      }
    }
  }
  return FreezeWith(cq, std::string(tildes, '~'));
}

}  // namespace qcont
