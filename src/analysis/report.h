#ifndef QCONT_ANALYSIS_REPORT_H_
#define QCONT_ANALYSIS_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/program_analysis.h"
#include "base/lru_cache.h"
#include "cq/database.h"
#include "cq/query.h"
#include "datalog/program.h"
#include "obs/obs.h"

namespace qcont {
namespace analysis {

/// Hash of the UCQ up to consistent variable renaming: variables are
/// renamed to v0, v1, ... in first-occurrence order per disjunct before
/// hashing, so alpha-equivalent queries share a cache entry.
std::uint64_t CanonicalQueryHash(const UnionQuery& ucq);

/// Same canonicalization per rule, plus the goal predicate.
std::uint64_t CanonicalProgramHash(const DatalogProgram& program);

/// Order-independent canonical hash of a database: each fact is hashed on
/// its own (relation name + values, FNV-1a) and the per-fact digests are
/// combined commutatively, so two databases with the same fact set hash
/// identically regardless of insertion order. This is the evaluation-cache
/// key of the server's plan cache (DESIGN.md §15), extracted here so it
/// lives next to the query/program canonical hashes it composes with.
std::uint64_t CanonicalDatabaseHash(const Database& db);

/// The engine a routed call should use. One enum spans evaluation and
/// containment so reports, spans, and the CLI name engines uniformly.
enum class EngineKind {
  // CQ/UCQ evaluation & satisfiability:
  kYannakakis,       // acyclic: semijoin reduction (polytime)
  kDecompDp,         // bounded width: DP over a tree decomposition
  kGenericHomSearch, // general: backtracking homomorphism search (NP)
  // CONT(Datalog, UCQ):
  kAckEngine,        // acyclic UCQ: single-exponential engine (Theorem 6)
  kTypeEngine,       // general UCQ: 2EXPTIME type engine (Theorem 2)
};

const char* EngineKindName(EngineKind kind);

/// What a ChooseEngine() call is routing for.
enum class RoutingGoal {
  kEvaluate,     // satisfiability / evaluation of the UCQ over a database
  kContainment,  // CONT(Datalog, UCQ)
};

/// The cached product of the static analysis pass: everything the engine
/// router consults, keyed by canonical hashes (the future server's plan
/// cache key). All width fields come from *verified* decomposition
/// certificates (src/structure/decomposition.h), never raw heuristics.
struct AnalysisReport {
  static constexpr int kSchemaVersion = 1;

  std::uint64_t query_hash = 0;
  std::uint64_t program_hash = 0;  // 0 when no program was analyzed

  // --- UCQ structure ---
  int num_disjuncts = 0;
  bool acyclic = false;
  int ack_level = 0;        // k with Θ ∈ ACk (0 when cyclic)
  int treewidth = 0;        // verified width of the produced decomposition
  bool treewidth_exact = false;
  int ghw = 0;              // verified generalized-hypertree width bound
  int max_shared_vars = 0;

  // --- Program structure (valid iff has_program) ---
  bool has_program = false;
  bool recursive = false;
  ProgramAnalysis program;

  // --- Routing decision ---
  EngineKind eval_engine = EngineKind::kGenericHomSearch;
  EngineKind containment_engine = EngineKind::kTypeEngine;

  /// Schema-stable JSON (all keys always present; see DESIGN.md §14).
  std::string ToJson() const;
};

/// Routing knobs, consulted by the Routed* entry points.
struct RoutingOptions {
  /// Consult/populate the global analysis cache.
  bool use_cache = true;
  /// Observability sink (optional, borrowed): `analysis/report` spans,
  /// `analysis.cache_{hits,misses}` and `analysis.route.<engine>` counters.
  const ObsContext* obs = nullptr;
};

/// Pure routing policy over a report: acyclic → Yannakakis/ACk, verified
/// treewidth ≤ 3 → decomposition DP (evaluation only), otherwise the
/// general engine. Never inspects anything but the report.
EngineKind ChooseEngine(const AnalysisReport& report, RoutingGoal goal);

/// Builds (or fetches from the process-wide cache) the report for a UCQ,
/// optionally paired with a program. Thread-safe; cache entries are keyed
/// by (program_hash, query_hash), and the cache is an LRU bounded by
/// kGlobalAnalysisCacheCapacity.
AnalysisReport AnalyzeForRouting(const UnionQuery& ucq,
                                 const RoutingOptions& options = {});
AnalysisReport AnalyzeForRouting(const DatalogProgram& program,
                                 const UnionQuery& ucq,
                                 const RoutingOptions& options = {});

/// Entries the process-wide analysis cache holds before it evicts (the
/// same bound as the plan cache's default analysis capacity).
inline constexpr std::size_t kGlobalAnalysisCacheCapacity = 4096;

/// Cache introspection (tests, metrics). Clearing drops the entries; the
/// counters keep accumulating.
using AnalysisCacheStats = LruCacheStats;
AnalysisCacheStats GlobalAnalysisCacheStats();
void ClearGlobalAnalysisCache();

}  // namespace analysis
}  // namespace qcont

#endif  // QCONT_ANALYSIS_REPORT_H_
