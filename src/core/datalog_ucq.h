#ifndef QCONT_CORE_DATALOG_UCQ_H_
#define QCONT_CORE_DATALOG_UCQ_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "base/status.h"
#include "base/thread_pool.h"
#include "cq/query.h"
#include "datalog/program.h"
#include "obs/obs.h"

namespace qcont {

class ProgramArtifact;
class ProgramArtifactCache;

/// Outcome of a Datalog-in-UCQ containment check. When the answer is "not
/// contained", `witness` is an expansion θ_τ of Π with θ_τ ⊄ Θ; its
/// canonical database D is a concrete counterexample: the frozen head of
/// θ_τ is in Π(D) but not in Θ(D).
struct ContainmentAnswer {
  bool contained = false;
  std::optional<ConjunctiveQuery> witness;
};

/// Cost counters of the type-automaton fixpoint; the machine-independent
/// complexity signal reported by experiments E3/E4. Value-type
/// accumulator: each fixpoint task fills its own instance and the totals
/// are combined with `Merge` at the round barrier, so the counters are
/// identical for every thread count (the combination space of a least
/// fixpoint is schedule-independent: every (rule, child-types) combination
/// over the final type sets is processed exactly once).
///
/// Reuse across calls: when one instance is passed to several
/// `DatalogContainedInUcq` calls, `combos` and `enumeration_steps`
/// accumulate (matching `DatalogEvalStats`), while the snapshot fields
/// `kinds`/`types`/`elements` are overwritten with the last run's values.
struct TypeEngineStats {
  /// (predicate, equality-pattern) pairs instantiated. Per-run *snapshot*:
  /// overwritten (not accumulated) by each call. Registry mirror: gauge
  /// `typeengine.kinds`.
  std::uint64_t kinds = 0;
  /// Distinct reachable subtree types over all kinds. Per-run snapshot;
  /// gauge `typeengine.types`.
  std::uint64_t types = 0;
  /// Partial-match elements summed over all types. Per-run snapshot; gauge
  /// `typeengine.elements`.
  std::uint64_t elements = 0;
  /// (rule, child-type...) combinations enumerated. *Accumulates* across
  /// calls (matching `DatalogEvalStats`); counter `typeengine.combos`.
  std::uint64_t combos = 0;
  /// DFS steps in element enumeration. Accumulates across calls; counter
  /// `typeengine.enumeration_steps`.
  std::uint64_t enumeration_steps = 0;

  /// Folds one run's counters into this accumulator with the per-field
  /// semantics documented above: the snapshot fields (`kinds`, `types`,
  /// `elements`) take `other`'s values, the accumulating fields
  /// (`combos`, `enumeration_steps`) sum.
  void Merge(const TypeEngineStats& other) {
    kinds = other.kinds;
    types = other.types;
    elements = other.elements;
    combos += other.combos;
    enumeration_steps += other.enumeration_steps;
  }
};

/// Engine configuration: resource limits (the fixpoint aborts with
/// kResourceExhausted when a budget is hit) and the execution context.
/// With `exec.threads > 1` the per-round (rule, new-combination-range)
/// tasks fan out over the work-stealing pool against the frozen type
/// tables of the previous round; per-task type buffers and counters are
/// merged in task order at the round barrier, so answers, budgets, and
/// all counters are identical for every thread count.
struct TypeEngineOptions {
  std::uint64_t max_types = 2'000'000;
  std::uint64_t max_combos = 50'000'000;
  ExecContext exec;
  /// Optional observability sinks, borrowed from the caller. Each run emits
  /// `typeengine/run`, `typeengine/round` and `typeengine/combo_batch`
  /// spans and publishes `typeengine.{combos,enumeration_steps}` counters
  /// plus `typeengine.{kinds,types,elements}` gauges — on every exit path,
  /// including budget errors, mirroring the legacy stats flush.
  const ObsContext* obs = nullptr;
  /// Π-only expansion reuse (program_artifact_cache.h, DESIGN.md §18).
  /// Resolution order: when `artifact` is set it is used directly — it must
  /// have been built from a program canonically equal to the one passed
  /// (same `analysis::CanonicalProgramHash`), and the engine then skips
  /// kind-space expansion entirely. Otherwise, when `artifact_cache` is set
  /// (borrowed, caller-owned), the engine fetches-or-builds the artifact
  /// there, so a repeated Π with a new Θ goes straight to the query-side
  /// product construction. With neither, a private artifact is built per
  /// call — the cold path runs through the same build code, so verdicts,
  /// witnesses, and every engine counter are identical with and without
  /// reuse; only the expansion work is saved.
  std::shared_ptr<const ProgramArtifact> artifact;
  ProgramArtifactCache* artifact_cache = nullptr;
};

/// Decides CONT(Datalog, UCQ): is Π ⊆ Θ? This is the general
/// Chaudhuri-Vardi procedure [12] in its explicit deterministic form: the
/// reachable *types* of expansion subtrees are computed by a least
/// fixpoint, where the type of a subtree is the exact set of partial
/// containment-mapping elements (A ⊆ atoms(θ), interface map f) realizable
/// in it. Π ⊆ Θ iff every reachable root type contains a complete element.
///
/// Worst case doubly exponential in ‖Θ‖ + ‖Π‖ (Theorem 2 of the paper);
/// the specialized ACk engine (ack_containment.h) should be preferred when
/// Θ is acyclic with bounded variable sharing.
///
/// Requirements: Π and Θ are constant-free, Θ's arity equals the goal
/// arity, disjuncts have at most 64 atoms and 120 variables.
Result<ContainmentAnswer> DatalogContainedInUcq(
    const DatalogProgram& program, const UnionQuery& ucq,
    TypeEngineStats* stats = nullptr,
    const TypeEngineOptions& options = TypeEngineOptions());

}  // namespace qcont

#endif  // QCONT_CORE_DATALOG_UCQ_H_
