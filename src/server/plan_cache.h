#ifndef QCONT_SERVER_PLAN_CACHE_H_
#define QCONT_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "base/hash.h"
#include "base/lru_cache.h"
#include "core/program_artifact_cache.h"
#include "core/router.h"
#include "cq/database.h"
#include "cq/query.h"
#include "datalog/eval.h"
#include "obs/obs.h"

namespace qcont {
namespace server {

/// Cache key: the PR-6 canonical (alpha-renamed) FNV-1a hashes. For
/// verdict/analysis entries the pair is (program_hash, query_hash); for
/// evaluation entries it is (program_hash, database_hash); single-hash
/// entries (core UCQs) use {hash, 0}.
using PlanKey = std::pair<std::uint64_t, std::uint64_t>;

/// A memoized containment verdict: everything a repeated Π/Θ pair needs to
/// answer without re-expanding the type-automaton state space — the verdict
/// itself, the route and ACk level the router chose, and for "not
/// contained" the witness expansion plus its canonical database (a concrete
/// counterexample D with goal(D) ∈ Π(D) \ Θ(D)).
struct CachedVerdict {
  bool contained = false;
  ContainmentRoute route = ContainmentRoute::kGeneralEngine;
  int ack_level = 0;
  std::optional<std::string> witness;            // θ_τ in CQ text form
  std::optional<std::string> counterexample_db;  // canonical DB of θ_τ
};

/// A memoized evaluation result: the goal tuples of Π(D), rendered once
/// as the response's `tuples` JSON array, keyed by (program_hash,
/// canonical database hash). Every hit reuses the bytes. Both constructors
/// render the same bytes for the same answer; the server renders from the
/// ranked answer, escaping each distinct name once.
struct CachedEval {
  explicit CachedEval(const std::vector<Tuple>& tuples);
  explicit CachedEval(const GoalAnswer& answer);
  std::string tuples_json;
};

/// Aggregate counters across all four entry kinds. `entries` is the
/// current total population, the rest are monotonic.
using PlanCacheStats = LruCacheStats;

/// Per-kind LRU capacities plus the observability sink. A capacity of 0
/// disables that kind (every lookup misses, inserts are dropped).
struct PlanCacheConfig {
  std::size_t verdict_capacity = 4096;
  std::size_t analysis_capacity = 4096;
  std::size_t core_capacity = 4096;
  std::size_t eval_capacity = 512;
  /// Capacity of the program-keyed kind-space artifact cache (a fifth,
  /// structurally different layer: it memoizes the type engine's Π-only
  /// expansion below the verdict layer, so a verdict *miss* on a repeated
  /// program still skips re-expansion). 0 disables it.
  std::size_t artifact_capacity = 64;
  /// Optional, borrowed. Publishes `server.cache.<kind>.{hits,misses,
  /// insertions,evictions}` counters per lookup/insert and a
  /// `server.cache.entries` gauge after every insert.
  const ObsContext* obs = nullptr;
};

/// The server's plan cache: four independent LruCache instances keyed by
/// canonical hashes, so alpha-renamed resubmissions of the same
/// query/program hit.
///
///  - **verdict**: containment verdicts with witnesses (CachedVerdict),
///  - **analysis**: AnalysisReports, the product of `analyze` requests
///    (containment routes without one),
///  - **core**: minimized (subsumption-pruned, per-disjunct-cored) UCQs,
///    stored structurally (the CQ text form is display-only, not
///    re-parseable). The server no longer reads or fills it (it minimizes
///    per request on the small-CQ kernel); serverbench's traced replay
///    still does,
///  - **eval**: goal tuples of Π(D) per (program, database) pair.
///
/// Thread safety, eviction and epochs are LruCache's (base/lru_cache.h):
/// all methods may be called concurrently, entries are returned by value,
/// and each kind is a strict LRU. The server calls `BeginEpoch` at batch
/// start and derives its "hit"/"miss" response markers from a lookup's
/// `stable` out-param, not from mere presence, which keeps the response
/// stream identical across thread counts even when concurrent work items
/// share a cache key (e.g. two containments whose queries minimize to the
/// same core).
class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig config = {});

  /// Starts a new epoch: entries inserted from now on are reported as
  /// unstable (`*stable == false`) until the next BeginEpoch call.
  void BeginEpoch();

  /// Lookups: `stable` (optional) is set to true iff the returned entry
  /// was inserted before the current epoch; false on a miss or on an
  /// entry inserted within the current epoch.
  std::optional<CachedVerdict> LookupVerdict(const PlanKey& key,
                                             bool* stable = nullptr);
  void InsertVerdict(const PlanKey& key, CachedVerdict verdict);

  std::optional<analysis::AnalysisReport> LookupAnalysis(
      const PlanKey& key, bool* stable = nullptr);
  void InsertAnalysis(const PlanKey& key, analysis::AnalysisReport report);

  /// Core entries are keyed by the original query's canonical hash alone.
  std::optional<UnionQuery> LookupCoreUcq(std::uint64_t query_hash,
                                          bool* stable = nullptr);
  void InsertCoreUcq(std::uint64_t query_hash, UnionQuery core);

  std::optional<CachedEval> LookupEval(const PlanKey& key,
                                       bool* stable = nullptr);
  void InsertEval(const PlanKey& key, CachedEval eval);

  /// The owned program-artifact layer. Handed to the router as
  /// `RouterOptions::artifact_cache`; epochs advance in lockstep with the
  /// verdict layers (BeginEpoch/Clear fan out to it).
  ProgramArtifactCache& artifacts() { return artifacts_; }

  /// Counters summed over the four entry kinds (the artifact layer reports
  /// separately via `artifacts().stats()` — its entries are shared frozen
  /// structures, not per-pair values, so mixing the totals would skew
  /// hit-rate readings).
  PlanCacheStats stats() const;

  /// Drops every entry (counters keep accumulating; drops do not count as
  /// evictions).
  void Clear();

 private:
  using PairKeyHash = PairHash<std::uint64_t, std::uint64_t>;

  void Publish(const char* kind, bool hit) const;
  void PublishInsert(const char* kind, std::uint64_t evicted) const;

  const ObsContext* obs_;
  LruCache<PlanKey, CachedVerdict, PairKeyHash> verdicts_;
  LruCache<PlanKey, analysis::AnalysisReport, PairKeyHash> reports_;
  LruCache<std::uint64_t, UnionQuery> cores_;
  LruCache<PlanKey, CachedEval, PairKeyHash> evals_;
  ProgramArtifactCache artifacts_;
};

}  // namespace server
}  // namespace qcont

#endif  // QCONT_SERVER_PLAN_CACHE_H_
