#ifndef QCONT_CORE_PROGRAM_ARTIFACT_CACHE_H_
#define QCONT_CORE_PROGRAM_ARTIFACT_CACHE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/lru_cache.h"
#include "core/instantiate.h"
#include "datalog/program.h"
#include "obs/obs.h"

namespace qcont {
namespace internal {

/// Per-(kind, rule) probe tables derived from an InstRule once at artifact
/// build time, so the per-combo inner loops of the type fixpoint compare
/// dense integers instead of predicate strings:
///
///  - `edb_pred_ids[a]` is the dense EDB-predicate id of `edb_atoms[a]`
///    (ids are assigned over the program's EDB predicates in first-seen
///    rule order, so they are deterministic for a fixed program text),
///  - `head_pos[w]` is the first head position whose W representative is
///    `w`, or -1; reps beyond the table (never in the head) are absent.
///
/// Both tables preserve the original iteration order of the uncached
/// implementation — they change how a candidate is compared, never which
/// candidates are visited — so engine counters are bit-identical with and
/// without the precomputation.
struct InstRulePrecomp {
  std::vector<int> edb_pred_ids;
  std::vector<int> head_pos;
};

}  // namespace internal

/// The frozen Π-only half of the type engine (DESIGN.md §18): the fully
/// expanded kind space (every kind reachable from the root kinds, with each
/// kind's specialized rules), the root-kind list, the per-rule probe
/// tables, and the dense EDB predicate ids. None of this depends on the
/// UCQ Θ being tested, so one artifact serves every containment call
/// against the same program — the Θ-dependent least fixpoint layers on top
/// of it without mutating it.
///
/// Freeze contract: `Build` is the only mutation; the returned object is
/// immutable and safe to share across threads without synchronization
/// (same contract as the storage epochs of ARCHITECTURE.md §7 — publish
/// happens-before use via the shared_ptr / cache handoff). The artifact
/// keeps no reference to the program (the frozen kind space carries its
/// own rules and names), so it may outlive the caller's.
class ProgramArtifact {
 public:
  /// Expands the kind space of `program` (assumed valid) to its transitive
  /// closure from the root kinds and derives the probe tables. Emits a
  /// `typeengine/artifact_build` span with kind/rule counts when `obs`
  /// carries a trace sink.
  static std::shared_ptr<const ProgramArtifact> Build(
      const DatalogProgram& program, const ObsContext* obs = nullptr);

  const internal::KindSpace& kinds() const { return *kinds_; }
  const std::vector<int>& root_kinds() const { return root_kinds_; }
  const internal::InstRulePrecomp& precomp(int kind_id, int rule_pos) const {
    return precomp_[kind_id][rule_pos];
  }

  /// Dense id of an EDB predicate, or -1 when no rule body mentions it
  /// extensionally (such a disjunct atom can never be matched).
  int EdbPredId(const std::string& pred) const;

  /// `analysis::CanonicalProgramHash` of the program the artifact was built
  /// from — the cache key, invariant under alpha-renaming.
  std::uint64_t program_hash() const { return program_hash_; }

  /// Rough resident size (vector payloads and predicate names), for the
  /// `typeengine.artifact.bytes` gauge.
  std::size_t ApproxBytes() const { return bytes_; }

 private:
  friend class ProgramArtifactCache;  // builds with the hash it looked up

  ProgramArtifact() = default;
  static std::shared_ptr<const ProgramArtifact> Build(
      const DatalogProgram& program, std::uint64_t program_hash,
      const ObsContext* obs);

  std::unique_ptr<internal::KindSpace> kinds_;
  std::vector<int> root_kinds_;
  std::vector<std::vector<internal::InstRulePrecomp>> precomp_;
  std::unordered_map<std::string, int> edb_pred_ids_;
  std::uint64_t program_hash_ = 0;
  std::size_t bytes_ = 0;
};

/// Monotonic counters plus the current population of a ProgramArtifactCache.
/// `bytes` sums ApproxBytes over the *completed* resident artifacts at
/// snapshot time (an in-flight build contributes once it finishes).
struct ProgramArtifactCacheStats : LruCacheStats {
  std::size_t bytes = 0;
};

struct ProgramArtifactCacheConfig {
  /// Maximum resident artifacts; 0 disables caching (every call builds a
  /// private artifact and counts as a miss).
  std::size_t capacity = 64;
  /// Optional, borrowed. Publishes `typeengine.artifact.{hits,misses}`
  /// counters per lookup and the `typeengine.artifact.bytes` gauge after
  /// every cached build and on Clear; builds emit
  /// `typeengine/artifact_build` spans.
  const ObsContext* obs = nullptr;
};

/// Program-keyed LRU of frozen ProgramArtifacts, keyed by
/// `analysis::CanonicalProgramHash` so alpha-renamed resubmissions of one
/// Π share a single expansion (hash collisions are accepted, the same
/// stance as the server plan cache).
///
/// Concurrency: an LruCache (base/lru_cache.h) of `shared_future`s. The
/// first requester of a key inserts its future through the cache's atomic
/// FindOrInsert and builds *outside* the lock; concurrent requesters of the
/// same key find the in-flight entry, count a hit, and block on the future
/// instead of duplicating the build. Hit/miss totals are therefore a
/// function of the request multiset alone, independent of scheduling, which
/// keeps server metrics reproducible across thread counts.
///
/// Epochs are LruCache's, as in PlanCache: the server calls `BeginEpoch` at
/// batch start, and a lookup's `stable` out-param reports whether the entry
/// predates the current epoch — i.e. whether it would be present no matter
/// how the current batch is scheduled.
class ProgramArtifactCache {
 public:
  explicit ProgramArtifactCache(ProgramArtifactCacheConfig config = {});

  /// Returns the artifact for `program` (assumed valid), building it on
  /// first use. `stable`, when non-null, is set as documented above (always
  /// false when caching is disabled). Never returns null.
  std::shared_ptr<const ProgramArtifact> GetOrBuild(
      const DatalogProgram& program, bool* stable = nullptr);

  /// Starts a new epoch: entries inserted from now on report
  /// `*stable == false` until the next BeginEpoch call.
  void BeginEpoch();

  ProgramArtifactCacheStats stats() const;

  /// Drops every entry (counters keep accumulating; drops do not count as
  /// evictions). In-flight builds complete and are handed to their waiters
  /// but are not re-inserted.
  void Clear();

 private:
  using ArtifactFuture =
      std::shared_future<std::shared_ptr<const ProgramArtifact>>;

  ProgramArtifactCacheConfig config_;
  LruCache<std::uint64_t, ArtifactFuture> lru_;
};

/// The engines' artifact resolution: fetched from `cache` when set, else
/// built privately per call. Both run the same build code, so verdicts and
/// counters never depend on which path was taken.
std::shared_ptr<const ProgramArtifact> GetOrBuildArtifact(
    const DatalogProgram& program, ProgramArtifactCache* cache,
    const ObsContext* obs);

}  // namespace qcont

#endif  // QCONT_CORE_PROGRAM_ARTIFACT_CACHE_H_
