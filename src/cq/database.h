#ifndef QCONT_CQ_DATABASE_H_
#define QCONT_CQ_DATABASE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "base/interner.h"
#include "cq/query.h"

namespace qcont {

struct ObsContext;

/// A database value. Canonical databases use variable names as values
/// ("frozen" variables), so values are plain strings.
using Value = std::string;
using Tuple = std::vector<Value>;

/// Interned value id, dense per value pool. `kNoValue` means "not interned".
using ValueId = SymbolId;
inline constexpr ValueId kNoValue = Interner::kMissing;

/// Interned relation id. Relation names are interned into the same shared
/// pool as values, so relation ids — like value ids — are comparable across
/// databases that share a pool (the semi-naive deltas rely on this).
/// `kNoRelation` means "name never interned in the pool".
using RelationId = SymbolId;
inline constexpr RelationId kNoRelation = Interner::kMissing;

/// Counters for the per-relation hash indexes (benchmark signal). Obtained
/// as a snapshot via `Database::index_stats()`; the registry mirror
/// (`db.*` gauges) is published from such snapshots by the engines/CLI,
/// never inline per probe.
///
/// Counter contract (pinned by tests/probe_kernel_test.cc): `probes` is
/// bumped exactly once per key looked up — `Probe()` adds 1, a `ProbeMany`
/// of k keys adds exactly k, an `AddRowBatch` of k candidate rows adds
/// exactly k for its dedup pass — regardless of how many slots, tag groups
/// or filter words the lookup touched. Work done *inside* a lookup is
/// accounted separately (`tag_hits`/`tag_skips`/`probe_collisions`), and
/// lookups short-circuited by the Bloom filter still count as probes, with
/// the skip recorded in `filter_skips`. All counters are deterministic for
/// a given (database, probe sequence), identical between the SIMD and
/// scalar kernel builds and for every thread count, and independent of how
/// a run of `AddRowBatch` candidates is cut into batches.
struct DatabaseIndexStats {
  /// Distinct (relation, mask) indexes built so far. Monotonic per database.
  std::uint64_t indexes_built = 0;
  /// Keys looked up (hot: one per `Probe`, k per k-key `ProbeMany`).
  /// Monotonic.
  std::uint64_t probes = 0;
  /// Rows folded into some index (a row indexed under k masks counts k
  /// times). Monotonic per database.
  std::uint64_t rows_indexed = 0;
  /// Full key compares that failed during lookups — tag false positives
  /// plus genuine probe-chain walks. Monotonic.
  std::uint64_t probe_collisions = 0;
  /// Probe-table capacity rehashes. Monotonic.
  std::uint64_t probe_resizes = 0;
  /// Slots whose tag matched the key's tag and were full-key compared
  /// during lookups. Monotonic.
  std::uint64_t tag_hits = 0;
  /// Occupied slots the tag filter rejected without a full key compare
  /// during lookups. Monotonic.
  std::uint64_t tag_skips = 0;
  /// Lookups answered "empty" by the per-(relation, mask) Bloom filter
  /// without touching the slot array. Monotonic.
  std::uint64_t filter_skips = 0;
  /// ProbeMany key blocks resolved through the staged pipeline (hash all →
  /// prefetch → resolve in order). Monotonic.
  std::uint64_t prefetch_batches = 0;
};

/// A finite relational database: a set of facts R(v1,...,vn).
///
/// Values are interned into a shared `Interner` pool, so the join substrate
/// works on dense integer ids instead of strings. Relation names are
/// interned into the same pool (`RelationIdOf`). Databases created with the
/// default constructor own a fresh pool; databases meant to be joined
/// against each other (e.g. a semi-naive delta against the full database)
/// should share one pool via the `Database(pool)` constructor so that value
/// and relation ids are comparable across them.
///
/// ## Storage layout
///
/// A relation's rows live in one contiguous ValueId arena with arity
/// stride, in insertion order, and every row of a relation has the same
/// arity (checked). Row i of a relation is the arena slice
/// [i*arity, (i+1)*arity). An eagerly maintained full-row "primary" probe
/// table serves duplicate detection, `HasRow`, and fully-bound probes.
///
/// Per relation, hash indexes keyed on subsets of bound positions (a
/// position bitmask) are built lazily on first probe, memoized per
/// (relation, mask), and maintained incrementally as facts are added —
/// `AddFact` never invalidates an index. Flat indexes are open-addressing tables
/// (linear probing, power-of-two capacity, packed inline keys for masks
/// covering ≤2 positions) whose buckets are slices of a shared postings
/// arena, with a Swiss-table-style 1-byte tag array filtered by one SIMD
/// group compare per 16 slots and a per-table Bloom filter answering
/// guaranteed misses before the slots are touched — a probe is hash →
/// filter word → tag group → postings slice with no allocation (see
/// DESIGN.md §16 for the fixed kernel constants).
///
/// ## Thread safety
///
/// All const probing entry points (`Probe`, `ProbeMany`, `Facts`, `Row`,
/// `HasFact`, `HasRow`, `Relations`, `ActiveDomain`, `ValueIdOf`, ...) may
/// be called concurrently from multiple threads *as long as no thread
/// mutates the database* (`AddFact`, `AddRow`, `AddRowBatch`, `UnionWith`)
/// at the same time — the memoized lazy index builds behind
/// `Probe` and the lazily materialized strings behind `Facts`,
/// `ActiveDomain` and `Relations` are guarded by an internal shared mutex
/// (shared lock on the read hot path, exclusive lock only while a missing
/// or stale index or string view is built;
/// `memo_exclusive_locks()` counts the exclusive acquisitions so tests
/// can pin "probe-only workloads take none") and the index statistics are
/// striped atomics, so probes of an already-built index never serialize
/// against each other. This is the contract the parallel engines rely on:
/// databases are frozen for the duration of a parallel region and merged
/// at the barrier (`mutation_epoch()` bumps on every mutation, and debug
/// builds verify the freeze with `EpochReadGuard`). See ARCHITECTURE.md
/// for the full concurrency model.
class Database {
 public:
  Database() : pool_(std::make_shared<Interner>()) {}
  explicit Database(std::shared_ptr<Interner> pool) : pool_(std::move(pool)) {}

  /// The value pool; share it across databases that will be joined together.
  const std::shared_ptr<Interner>& pool() const { return pool_; }

  /// Adds a fact; duplicate facts are ignored. Returns true if new. Every
  /// fact of a relation must have the same arity (checked; the parser
  /// rejects mixed-arity input before it gets here). Only the interned row
  /// is stored: `Facts` renders the strings back when it is read.
  bool AddFact(const std::string& relation, const Tuple& tuple);

  /// Adds a fact given as pool ids: `rel` must be the pool id of the
  /// relation name and every value of `row` a valid pool id. Returns true
  /// if new. This is the string-free twin of AddFact used by the
  /// semi-naive merge.
  bool AddRow(RelationId rel, std::span<const ValueId> row);

  /// Batched AddRow: deduplicates `rows` (candidate rows laid out
  /// consecutively with stride `arity`) against this relation *and*
  /// against earlier candidates of the same batch (first occurrence wins),
  /// committing the survivors in first-occurrence order — the exact
  /// database state a serial `AddRow` loop over the batch would produce.
  /// Appends the row index of each newly added row to `*added` (in commit
  /// order) when non-null, and returns the number added.
  ///
  /// This is the semi-naive round barrier's merge primitive. No strings
  /// are built (see `Facts`) and no staging buffer is allocated. Counts
  /// `rows.size()/arity` probes (one Bloom-gated dedup lookup per
  /// candidate, mirroring the per-key ProbeMany contract), so rows and
  /// every index counter are the same however a run of candidates is cut
  /// into batches. Exclusive: the caller must not probe or mutate the
  /// database concurrently with this call.
  std::size_t AddRowBatch(RelationId rel, std::size_t arity,
                          std::span<const ValueId> rows,
                          std::vector<std::uint32_t>* added = nullptr);

  bool HasFact(const std::string& relation, const Tuple& tuple) const;

  /// Row-level membership: true iff `row` is a fact of `rel`. Served by
  /// the eagerly maintained full-row table (no lock, no allocation).
  bool HasRow(RelationId rel, std::span<const ValueId> row) const;

  /// Tuples of `relation` in insertion order (empty if the relation has no
  /// facts). The strings are rendered from the rows on first read, and a
  /// later read renders only the rows added since; rows stay the only
  /// storage mutators keep up to date. The reference stays valid until the
  /// next mutation.
  const std::vector<Tuple>& Facts(const std::string& relation) const;

  /// Pool id of `v`, or `kNoValue` if `v` was never interned in the pool.
  /// (A value interned by another database sharing the pool resolves too;
  /// such an id simply matches no row here.)
  ValueId ValueIdOf(std::string_view v) const { return pool_->Find(v); }

  /// Value string for a pool id.
  const Value& ValueName(ValueId id) const { return pool_->NameOf(id); }

  /// Pool id of `relation`, or `kNoRelation`. Resolve once at query compile
  /// time and probe by id — never per evaluation round.
  RelationId RelationIdOf(std::string_view relation) const {
    return pool_->Find(relation);
  }

  /// Number of rows of `rel` (0 if absent or never given a fact here).
  std::size_t NumRows(RelationId rel) const;

  /// Arity of `rel` (0 if absent).
  std::size_t Arity(RelationId rel) const;

  /// Row `r` of `rel` as a ValueId slice into its arena.
  /// `r < NumRows(rel)`.
  std::span<const ValueId> Row(RelationId rel, std::size_t r) const;

  /// The whole row arena of `rel` (empty if absent), so hot loops can
  /// slice rows without a per-row relation lookup: row i is the slice
  /// [i*Arity(rel), (i+1)*Arity(rel)). Stays valid until the next mutation.
  std::span<const ValueId> Arena(RelationId rel) const;

  /// Resolved row accessor for hot loops: one relation lookup up front,
  /// then row pointers by pointer arithmetic off the arena base. Valid
  /// until the next mutation.
  class RowView {
   public:
    RowView() = default;
    /// Pointer to row r's `Arity(rel)` consecutive values (null for a
    /// view of an absent relation).
    const ValueId* operator[](std::uint32_t r) const {
      return base_ + static_cast<std::size_t>(r) * arity_;
    }

   private:
    friend class Database;
    const ValueId* base_ = nullptr;  // arena base
    std::size_t arity_ = 0;          // row stride
  };
  RowView Rows(RelationId rel) const;

  /// Indices of the rows of `rel` whose values at the positions set in
  /// `mask` equal `key` (key values listed in ascending position order,
  /// `popcount(mask)` of them). Builds and memoizes the (relation, mask)
  /// index on first use; later `AddFact`s are folded in incrementally on
  /// the next probe. Only the first 32 positions of a relation are
  /// indexable. `mask` must be nonzero. Safe for concurrent const callers
  /// (see class comment); the returned span stays valid until the next
  /// AddFact.
  std::span<const std::uint32_t> Probe(RelationId rel, std::uint32_t mask,
                                       std::span<const ValueId> key) const;

  /// Name-level Probe; prefer the RelationId overload on hot paths.
  std::span<const std::uint32_t> Probe(const std::string& relation,
                                       std::uint32_t mask,
                                       std::span<const ValueId> key) const;
  std::span<const std::uint32_t> Probe(const std::string& relation,
                                       std::uint32_t mask,
                                       const std::vector<ValueId>& key) const {
    return Probe(relation, mask, std::span<const ValueId>(key));
  }

  /// Batched probe: `out.size()` keys laid out consecutively in `keys`
  /// (`popcount(mask)` values each); `out[i]` receives the bucket of key i,
  /// exactly as `Probe(rel, mask, key_i)` would return it. The block runs
  /// as a staged pipeline: hash every key (answering Bloom-filter misses
  /// immediately), then resolve in key order with the tag group and slot
  /// of the key a fixed distance (8) ahead software-prefetched, so slot
  /// cache lines are in flight before the resolving pass needs them.
  void ProbeMany(RelationId rel, std::uint32_t mask,
                 std::span<const ValueId> keys,
                 std::span<std::span<const std::uint32_t>> out) const;

  /// Monotonic mutation counter: bumped once per mutating entry point
  /// (`AddFact`, `AddRow`, `AddRowBatch`, `UnionWith`). The lock-free
  /// probe paths are valid only while this is stable — debug builds
  /// enforce that with `EpochReadGuard` (cq/database.cc); release
  /// callers may snapshot it around a parallel region as a cheap sanity
  /// check.
  std::uint64_t mutation_epoch() const {
    return mutation_epoch_.v.load(std::memory_order_relaxed);
  }

  /// Number of exclusive acquisitions of the internal memo lock so far
  /// (lazy index builds and catch-ups, relations-cache rebuilds, string
  /// catch-ups of `Facts` and `ActiveDomain`). Probing
  /// already-built indexes never takes it: tests pin that a probe-only
  /// workload leaves this counter unchanged. Diagnostic, deterministic
  /// only for serial runs (under parallelism, racing builders may both
  /// take the lock).
  std::uint64_t memo_exclusive_locks() const {
    return memo_exclusive_locks_.v.load(std::memory_order_relaxed);
  }

  /// Snapshot of the index counters, summed over the internal stripes.
  /// (Counters are striped per worker thread — `kStatStripes` cache-line-
  /// aligned atomic blocks selected by pool worker id — so concurrent
  /// probes from parallel join tasks never contend on one counter cache
  /// line; hence a by-value snapshot.) See the DatabaseIndexStats comment for
  /// the per-key `probes` contract.
  DatabaseIndexStats index_stats() const {
    DatabaseIndexStats s;
    for (const AtomicIndexStats& st : index_stats_) {
      s.indexes_built += st.indexes_built.load(std::memory_order_relaxed);
      s.probes += st.probes.load(std::memory_order_relaxed);
      s.rows_indexed += st.rows_indexed.load(std::memory_order_relaxed);
      s.probe_collisions +=
          st.probe_collisions.load(std::memory_order_relaxed);
      s.probe_resizes += st.probe_resizes.load(std::memory_order_relaxed);
      s.tag_hits += st.tag_hits.load(std::memory_order_relaxed);
      s.tag_skips += st.tag_skips.load(std::memory_order_relaxed);
      s.filter_skips += st.filter_skips.load(std::memory_order_relaxed);
      s.prefetch_batches +=
          st.prefetch_batches.load(std::memory_order_relaxed);
    }
    return s;
  }

  /// Attaches observability sinks: each lazily built (relation, mask) index
  /// then emits a `db/index_build` span (args: mask, rows). Borrowed
  /// pointer, copied along with the database; set it before a parallel
  /// region probes this database (AddFact-vs-probe rules apply to it too).
  /// Null (the default) disables tracing. Index *counters* are not routed
  /// through here — snapshot `index_stats()` instead.
  void set_obs(const ObsContext* obs) { obs_ = obs; }
  const ObsContext* obs() const { return obs_; }

  /// Relation names that have at least one fact, sorted. Cached: the vector
  /// is only rebuilt when a fact of a new relation arrives, and the
  /// returned reference stays valid until then.
  const std::vector<std::string>& Relations() const;

  /// Relation ids in first-fact order (the deterministic iteration order
  /// the engines use when merging deltas). Stays valid until the next
  /// AddFact of a new relation.
  const std::vector<RelationId>& RelationIds() const { return rel_ids_; }

  /// All values occurring in any fact (the active domain), in first-
  /// occurrence order. Rendered from `ActiveDomainIds()` on read, extended
  /// by the values added since the last read; never rebuilt.
  const std::vector<Value>& ActiveDomain() const;

  /// Pool ids of the active domain, in `ActiveDomain()` order. Maintained
  /// eagerly by every mutator.
  const std::vector<ValueId>& ActiveDomainIds() const { return domain_ids_list_; }

  std::size_t NumFacts() const { return num_facts_; }

  /// Merges all facts of `other` into this database.
  void UnionWith(const Database& other);

  std::string ToString() const;

 private:
  // One open-addressing probe table. Slots hold a nonzero
  // 64-bit key — the +1-packed values for key widths ≤ 2, or 1 + an index
  // into `wide_keys` otherwise — plus a (start, len) slice of the shared
  // `postings` arena listing the matching row indices in row order.
  // key == 0 marks an empty slot; packed keys are nonzero by construction
  // because kNoValue never occurs in a row, so v+1 ≥ 1 for every value.
  //
  // Swiss-table-style metadata rides alongside the slots (DESIGN.md §16):
  // `tags` holds one byte per slot — 0 for empty, else the top 7 hash bits
  // with the high bit set — sized capacity + 16 with the first group
  // mirrored past the end, so a 16-byte group load starting at any slot
  // index stays in bounds. One vector compare filters a probe group before
  // any full key compare. `bloom` is a blocked Bloom filter over the key
  // hashes (8 bits per slot, 2 probe bits per key) consulted before the
  // slot array; both are rebuilt alongside the slots on growth.
  //
  // The same struct serves two roles: each relation's eagerly maintained
  // full-row primary table (every key has exactly one posting), and the
  // lazily built secondary tables keyed on position subsets.
  struct FlatIndex {
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t start = 0;
      std::uint32_t len = 0;
    };
    std::vector<Slot> slots;              // power-of-two capacity, or empty
    std::vector<std::uint8_t> tags;       // capacity + 16, mirrored head
    std::vector<std::uint64_t> bloom;     // capacity/8 words (pow2)
    std::vector<ValueId> wide_keys;       // key_width values per wide key
    std::vector<std::uint32_t> postings;  // shared bucket arena (row ids)
    std::uint32_t key_width = 0;
    std::size_t used = 0;          // occupied slots
    std::size_t rows_indexed = 0;  // rows folded in (catch-up watermark)
  };

  struct RelationData {
    std::string name;
    RelationId id = kNoRelation;
    std::size_t arity = 0;
    std::size_t num_rows = 0;
    // Facts() strings: a prefix of the rows, extended on read.
    mutable std::vector<Tuple> tuples;
    // The rows (stride = arity), their full-row dedup/probe table, and the
    // lazy per-mask probe tables.
    std::vector<ValueId> arena;
    FlatIndex primary;
    mutable std::unordered_map<std::uint32_t, FlatIndex> flat_indexes;
  };

  // Guards the mutable memoized state reachable from const methods (lazy
  // index builds, the relations cache, the Facts/ActiveDomain strings).
  // Reads of up-to-date state take the lock shared; building or extending
  // it takes it exclusive (counted in memo_exclusive_locks_). Copying a
  // Database copies the data but not the mutex.
  struct UncopiedMutex {
    std::shared_mutex mu;
    UncopiedMutex() = default;
    UncopiedMutex(const UncopiedMutex&) {}
    UncopiedMutex& operator=(const UncopiedMutex&) { return *this; }
  };

  // One stripe of index counters, updated by concurrent shared-lock
  // probes. Cache-line aligned so stripes never false-share. Copying a
  // Database snapshots the values.
  struct alignas(64) AtomicIndexStats {
    std::atomic<std::uint64_t> indexes_built{0};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> rows_indexed{0};
    std::atomic<std::uint64_t> probe_collisions{0};
    std::atomic<std::uint64_t> probe_resizes{0};
    std::atomic<std::uint64_t> tag_hits{0};
    std::atomic<std::uint64_t> tag_skips{0};
    std::atomic<std::uint64_t> filter_skips{0};
    std::atomic<std::uint64_t> prefetch_batches{0};
    AtomicIndexStats() = default;
    AtomicIndexStats(const AtomicIndexStats& o) { *this = o; }
    AtomicIndexStats& operator=(const AtomicIndexStats& o) {
      indexes_built.store(o.indexes_built.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      probes.store(o.probes.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      rows_indexed.store(o.rows_indexed.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      probe_collisions.store(
          o.probe_collisions.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      probe_resizes.store(o.probe_resizes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      tag_hits.store(o.tag_hits.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      tag_skips.store(o.tag_skips.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      filter_skips.store(o.filter_skips.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      prefetch_batches.store(
          o.prefetch_batches.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      return *this;
    }
  };

  // Counter stripes: probes select one by pool worker id (stripe 0 serves
  // non-pool threads), so a parallel probe storm bumps disjoint cache
  // lines. index_stats() sums them; totals are schedule-independent
  // because the counted events are.
  static constexpr std::size_t kStatStripes = 16;

  // A relaxed counter that copies by value (a copied database starts from
  // the source's snapshot).
  struct CopyableAtomicU64 {
    std::atomic<std::uint64_t> v{0};
    CopyableAtomicU64() = default;
    CopyableAtomicU64(const CopyableAtomicU64& o) { *this = o; }
    CopyableAtomicU64& operator=(const CopyableAtomicU64& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  // Per-lookup counter deltas, accumulated branch-free on the stack and
  // flushed into the stripe once per Probe/ProbeMany call.
  struct LocalProbeCounters {
    std::uint64_t tag_hits = 0;
    std::uint64_t tag_skips = 0;
    std::uint64_t collisions = 0;  // failed full compares (tag false hits)
    std::uint64_t filter_skips = 0;
  };

  // Relation lookup / creation by pool id. Returns nullptr if `rel` names
  // no relation of this database.
  const RelationData* FindRelation(RelationId rel) const;
  RelationData& EnsureRelation(RelationId rel);

  // Folds the values of a committed row into the active-domain ids.
  void NoteDomain(std::span<const ValueId> row);

  // Runs `refresh` under the exclusive memo lock unless `fresh()` already
  // holds under the shared one: the read path of Relations, Facts and
  // ActiveDomain.
  template <typename Fresh, typename Refresh>
  void Memoize(Fresh fresh, Refresh refresh) const;

  // The calling thread's counter stripe (by pool worker id).
  AtomicIndexStats& stats_stripe() const;

  // Advance the mutation epoch. Mutators run on one logical thread of
  // control (the freeze contract), so a plain load+store suffices — no
  // read-modify-write bus lock on the AddRow hot path. Concurrent readers
  // only ever load the value (EpochReadGuard).
  void BumpEpoch() {
    mutation_epoch_.v.store(
        mutation_epoch_.v.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }

  // Flat probe-table machinery (definitions in database.cc).
  std::uint64_t HashKey(const FlatIndex& idx, std::span<const ValueId> key,
                        std::uint64_t packed) const;
  std::size_t FindSlot(const FlatIndex& idx, std::span<const ValueId> key,
                       std::uint64_t packed, std::uint64_t h,
                       LocalProbeCounters* c) const;
  void FlushProbeCounters(const LocalProbeCounters& c) const;
  void EnsureFlatCapacity(FlatIndex* idx, std::size_t keys) const;
  std::size_t InsertSlot(FlatIndex* idx, std::span<const ValueId> key,
                         std::uint64_t packed) const;
  static void ClaimSlot(FlatIndex* idx, std::size_t i,
                        std::span<const ValueId> key, std::uint64_t packed,
                        std::uint64_t h);
  static void ClaimPrimarySlot(FlatIndex* idx, std::size_t i,
                               std::span<const ValueId> key,
                               std::uint64_t packed, std::uint64_t h,
                               std::uint32_t row);
  // DedupSlot's "row already present" answer.
  static constexpr std::size_t kDuplicateRow = ~std::size_t{0};
  std::size_t DedupSlot(const FlatIndex& idx, std::span<const ValueId> key,
                        std::uint64_t packed, std::uint64_t h,
                        LocalProbeCounters* c) const;
  void CatchUpFlat(const RelationData& data, std::uint32_t mask,
                   FlatIndex* idx) const;
  const FlatIndex* EnsureFlatIndex(const RelationData& data,
                                   std::uint32_t mask) const;
  std::span<const std::uint32_t> LookupFlat(const FlatIndex& idx,
                                            std::span<const ValueId> key) const;
  // True iff `mask` covers every position of the relation — the probes the
  // primary table serves.
  static bool IsFullMask(const RelationData& data, std::uint32_t mask) {
    return data.arity > 0 && data.arity <= 32 &&
           mask == (data.arity == 32 ? ~0u : (1u << data.arity) - 1u);
  }

  std::shared_ptr<Interner> pool_;
  std::deque<RelationData> rels_;          // stable refs; first-fact order
  std::vector<std::int32_t> rel_slot_;     // pool id -> index in rels_, or -1
  std::vector<RelationId> rel_ids_;        // parallel to rels_
  mutable std::vector<Value> domain_;      // prefix of domain_ids_list_
  std::vector<ValueId> domain_ids_list_;   // first-occurrence order
  std::unordered_set<ValueId> domain_ids_; // membership for the list
  mutable std::vector<std::string> relations_cache_;
  mutable bool relations_dirty_ = true;
  mutable std::array<AtomicIndexStats, kStatStripes> index_stats_;
  mutable CopyableAtomicU64 memo_exclusive_locks_;
  CopyableAtomicU64 mutation_epoch_;
  mutable UncopiedMutex memo_mu_;
  const ObsContext* obs_ = nullptr;  // borrowed; see set_obs
  std::size_t num_facts_ = 0;
};

/// The canonical database D_theta of a CQ: one fact per atom, with each
/// variable frozen to a value named after it. Constants keep their name,
/// so a variable and a constant of one name freeze to one value: decide
/// with Freeze below, and keep this for rendering.
Database CanonicalDatabase(const ConjunctiveQuery& cq);

/// The tuple of frozen head variables of `cq`, named as in
/// CanonicalDatabase.
Tuple CanonicalHead(const ConjunctiveQuery& cq);

/// D_theta and the frozen head of `cq`, for a decision that evaluates a
/// query or program over D_theta (Chandra–Merlin and its tractable and
/// Datalog variants). When `cq` or `other` has a constant, every variable
/// freezes to its name followed by one '~' more than any constant ends
/// with (`y` becomes `y~` next to `'y'`), so no variable freezes into a
/// constant's value. Without constants the result is
/// CanonicalDatabase(cq) and CanonicalHead(cq).
struct FrozenQuery {
  Database database;
  Tuple head;
};
FrozenQuery Freeze(const ConjunctiveQuery& cq,
                   const ConjunctiveQuery* other = nullptr);

}  // namespace qcont

#endif  // QCONT_CQ_DATABASE_H_
