#ifndef QCONT_CORE_ACK_CONTAINMENT_H_
#define QCONT_CORE_ACK_CONTAINMENT_H_

#include <cstdint>
#include <optional>

#include "base/status.h"
#include "core/datalog_ucq.h"
#include "cq/query.h"
#include "datalog/program.h"

namespace qcont {

/// Cost counters of the ACk engine (experiments E4/E5). Mixed reuse
/// semantics across calls, kept for compatibility (and mirrored exactly by
/// the registry metrics):
struct AckEngineStats {
  /// (predicate, equality-pattern) pairs instantiated. Assigned (snapshot)
  /// by each successful run; untouched when the run errors out. Registry
  /// mirror: gauge `ack.kinds`.
  std::uint64_t kinds = 0;
  /// Distinct reachable subtree summaries. Accumulates across successful
  /// runs; counter `ack.summaries`.
  std::uint64_t summaries = 0;
  /// (rule, child-summary...) combinations processed. Accumulates across
  /// calls, including runs that trip a budget; counter `ack.combos`.
  std::uint64_t combos = 0;
  /// Local acceptance-game states expanded. Accumulates across calls;
  /// counter `ack.game_states`.
  std::uint64_t game_states = 0;
  /// Exit sets stored across all summary antichains. Accumulates across
  /// successful runs; counter `ack.antichain_sets`.
  std::uint64_t antichain_sets = 0;
  /// The k of the input (max variables a join-tree edge shares; at least 1
  /// by convention). Max-assigned across calls; gauge `ack.level`.
  int ack_level = 0;
};

struct AckEngineLimits {
  std::uint64_t max_summaries = 500'000;
  std::uint64_t max_combos = 5'000'000;
  /// Optional observability sinks, borrowed from the caller. Each run emits
  /// `ack/run` and `ack/round` spans and publishes the `ack.*` metrics
  /// listed on AckEngineStats.
  const ObsContext* obs = nullptr;
  /// Π-only kind-space reuse (borrowed, optional; program_artifact_cache.h).
  /// The engine fetches-or-builds its ProgramArtifact here; without a cache
  /// it builds a private one per call. Same answers and counters either way.
  ProgramArtifactCache* artifact_cache = nullptr;
};

/// Decides CONT(Datalog, ACk): is Π ⊆ Θ for an *acyclic* UCQ Θ?
///
/// This is the algorithm of Theorem 6 of the paper. Conceptually:
///   1. proof trees of Π are the runs of the (implicit, exponential) 1NTA
///      AΠ — realized here by the kind/instantiated-rule machinery shared
///      with the general engine;
///   2. per CQ θ ∈ Θ, the polynomial-size 2ATA B^θ_Π walks the join tree of
///      θ over the proof tree, with atom states (A, M) — A a join-tree node,
///      M a partial map of the ≤ k variables shared with A's join parent —
///      and variable states (j, x) checking distinguished occurrences;
///   3. the containment AΠ ⊆ B^Θ_Π is decided by complementing the 2ATA.
///      The acceptance game of B on a finite proof tree is a reachability
///      game for Eve, so per-subtree behaviour is summarized exactly by the
///      map (entry state) -> antichain of minimal exit-state sets Eve can
///      enforce (an exit is an upward move out of the subtree; the
///      complement automaton's states are these summaries, singly
///      exponential in the polynomial state space of B). A least fixpoint
///      over (kind, summary) pairs finds all realizable summaries; Π ⊆ Θ
///      iff every realizable root summary lets Eve win outright.
///
/// Singly exponential overall — EXPTIME, as in Theorem 6 — against the
/// doubly exponential general engine. Fails with kFailedPrecondition when Θ
/// is not acyclic (use DatalogContainedInUcq then).
///
/// Corollary 1 routing is provided by ContainmentRouter (router.h): a UCQ
/// over an arity-c schema that is acyclic lies in ACc; a TW(1) UCQ lies in
/// AC2 — both are handled by this engine.
Result<ContainmentAnswer> DatalogContainedInAcyclicUcq(
    const DatalogProgram& program, const UnionQuery& ucq,
    AckEngineStats* stats = nullptr,
    const AckEngineLimits& limits = AckEngineLimits());

/// Corollary 1's routing step on the engine's own GYO pass: when every
/// disjunct of Θ has a join tree, decides Π ⊆ Θ exactly as
/// DatalogContainedInAcyclicUcq does, on those join forests; when some
/// disjunct is cyclic, returns std::nullopt having decided (and published)
/// nothing, so the caller falls back to DatalogContainedInUcq.
std::optional<Result<ContainmentAnswer>> DatalogContainedInUcqIfAcyclic(
    const DatalogProgram& program, const UnionQuery& ucq,
    AckEngineStats* stats = nullptr,
    const AckEngineLimits& limits = AckEngineLimits());

}  // namespace qcont

#endif  // QCONT_CORE_ACK_CONTAINMENT_H_
