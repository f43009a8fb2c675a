#ifndef QCONT_CQ_HOMOMORPHISM_H_
#define QCONT_CQ_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/thread_pool.h"
#include "cq/database.h"
#include "cq/query.h"
#include "obs/obs.h"

namespace qcont {

/// A (partial) mapping from query variables to database values.
using Assignment = std::unordered_map<std::string, Value>;

/// Counters reported by the backtracking search; used by benchmarks as a
/// machine-independent cost signal. Stats are value-type accumulators:
/// every task of a parallel region fills its own instance, and the totals
/// are combined with `Merge` at the join, so no counter is ever shared
/// between threads and totals are identical for every thread count.
///
/// The containment API (cq/containment.h) runs on the small-CQ kernel,
/// which counts as this searcher does on the canonical database D_θ:
/// every field equals what FindHomomorphism(θ′, D_θ) reports with θ's
/// frozen head pinned, except in two cases. The kernel drops duplicate
/// atoms of θ′, so on such θ′ it counts less; and a θ′ constant absent
/// from θ ends the indexed search before it starts (all counters 0),
/// while the kernel searches until the constant's atom has no candidate.
struct HomSearchStats {
  /// Candidate tuples tried against an atom (one per extension attempt of
  /// the partial assignment, successful or not). Accumulates across runs.
  std::uint64_t atom_attempts = 0;
  /// Times the search retracted an atom binding after exhausting its
  /// candidates. Accumulates across runs.
  std::uint64_t backtracks = 0;
  /// Hash-index lookups issued by the search (one per atom expansion that
  /// went through an index). Accumulates across runs.
  std::uint64_t index_probes = 0;
  /// Candidates enumerated via an index (sum of probe result sizes).
  /// Accumulates across runs.
  std::uint64_t index_candidates = 0;
  /// Candidates enumerated via a full relation scan: the rows of an atom
  /// expanded with no bound position. Accumulates across runs.
  std::uint64_t scan_candidates = 0;

  void Merge(const HomSearchStats& other) {
    atom_attempts += other.atom_attempts;
    backtracks += other.backtracks;
    index_probes += other.index_probes;
    index_candidates += other.index_candidates;
    scan_candidates += other.scan_candidates;
  }

  /// Publishes every field as a counter `<prefix>.<field>` (for example
  /// `cq.contain.hom.atom_attempts`). Call exactly once per run with the
  /// run-local deltas — never with an accumulating sink — so registry
  /// totals stay equal to the legacy stats totals.
  void PublishTo(MetricRegistry* metrics, const std::string& prefix) const {
    metrics->Add(prefix + ".atom_attempts", atom_attempts);
    metrics->Add(prefix + ".backtracks", backtracks);
    metrics->Add(prefix + ".index_probes", index_probes);
    metrics->Add(prefix + ".index_candidates", index_candidates);
    metrics->Add(prefix + ".scan_candidates", scan_candidates);
  }
};

/// Configuration of the containment entry points (cq/containment.h), which
/// run on the small-CQ kernel (cq/small_cq.h). `exec` controls the fan-out
/// of *independent* pair checks in the UCQ containment loops
/// (UcqContained / CqContainedInUcq); a single homomorphism search is
/// always serial. The evaluation entry points below use the indexed
/// searcher; its scan reference lives in tests/hom_oracle.h.
struct HomSearchOptions {
  ExecContext exec;
  /// Optional observability sinks (spans + metrics), carried next to `exec`
  /// and borrowed from the caller. The UCQ containment entry points publish
  /// their run's stats under `cq.contain.hom.*` and emit `ucq/*` spans.
  /// The plain evaluation entry points below take no options and do not
  /// publish (their callers own the run boundary). See DESIGN.md §12.
  const ObsContext* obs = nullptr;
};

/// Searches for a homomorphism from the body of `cq` into `db` that extends
/// the partial assignment `fixed`. This is the generic (NP) evaluation
/// procedure: backtracking over atoms. The search picks the next atom
/// dynamically by estimated candidate count and enumerates candidates
/// through per-relation hash indexes on the bound positions.
///
/// Returns the full assignment if one exists.
std::optional<Assignment> FindHomomorphism(const ConjunctiveQuery& cq,
                                           const Database& db,
                                           const Assignment& fixed = {},
                                           HomSearchStats* stats = nullptr);

/// Enumerates homomorphisms, invoking `visit` for each; enumeration stops
/// early when `visit` returns false.
void EnumerateHomomorphisms(const ConjunctiveQuery& cq, const Database& db,
                            const Assignment& fixed,
                            const std::function<bool(const Assignment&)>& visit,
                            HomSearchStats* stats = nullptr);

/// Interned-row face of the search, for callers that consume ValueIds
/// directly (the Datalog rule firings): enumerates the homomorphisms of
/// `atoms` into `db` and hands each to `visit` as a var-slot → ValueId
/// vector aligned with `var_names()`, never materializing strings.
/// `atoms`, `db` and `stats` are borrowed and must outlive the enumerator.
class RowEnumerator {
 public:
  /// `rel_ids` parallel to `atoms` (empty: resolve through the pool).
  RowEnumerator(const std::vector<Atom>& atoms, const Database& db,
                std::span<const RelationId> rel_ids, HomSearchStats* stats);
  ~RowEnumerator();
  RowEnumerator(const RowEnumerator&) = delete;
  RowEnumerator& operator=(const RowEnumerator&) = delete;

  /// Variable names in slot order (deterministic first-occurrence order
  /// over the atoms as given). Available before Enumerate, so callers can
  /// map output positions (e.g. Datalog head terms) to slots up front.
  const std::vector<std::string>& var_names() const;

  /// Slot of `name` in the visit span, or -1 if the variable occurs in no
  /// atom.
  int VarSlot(std::string_view name) const;

  /// Runs the search; `visit` returns false to stop early. The span is
  /// only valid during the call. May be called at most once.
  void Enumerate(const std::function<bool(std::span<const ValueId>)>& visit);

 private:
  std::unique_ptr<class RowEnumeratorImpl> impl_;
};

/// Evaluates cq(db): the set of distinct head tuples h(x̄) over all
/// homomorphisms h. For a Boolean query the result is {()} or {}.
std::vector<Tuple> EvaluateCq(const ConjunctiveQuery& cq, const Database& db,
                              HomSearchStats* stats = nullptr);

/// Union of the disjunct evaluations, deduplicated and sorted.
std::vector<Tuple> EvaluateUcq(const UnionQuery& ucq, const Database& db,
                               HomSearchStats* stats = nullptr);

}  // namespace qcont

#endif  // QCONT_CQ_HOMOMORPHISM_H_
