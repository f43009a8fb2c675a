#ifndef QCONT_DATALOG_EVAL_H_
#define QCONT_DATALOG_EVAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/interner.h"
#include "base/status.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/program.h"

namespace qcont {

/// Evaluation counters (benchmark signal for experiment E9). `hom`
/// aggregates the join-substrate counters over every rule firing, so index
/// effectiveness (index_candidates vs scan_candidates) is visible per run.
///
/// Value-type accumulator: every rule firing fills its own instance and
/// the totals are combined with `Merge` at the join point (the round
/// barrier under parallel evaluation), never through a pointer shared
/// across firings — totals are identical for every thread count.
struct DatalogEvalStats {
  /// Fixpoint rounds executed (naive sweeps, or semi-naive round 0 plus one
  /// per non-empty delta). Accumulates across runs.
  std::uint64_t iterations = 0;
  /// Rule body matches found (head tuples produced, before dedup against
  /// the database). Accumulates across runs.
  std::uint64_t rule_firings = 0;
  /// Facts actually added to the database over the run (after dedup).
  /// Accumulates across runs.
  std::uint64_t derived_facts = 0;
  /// Join-substrate counters aggregated over every rule firing, so index
  /// effectiveness (index_candidates vs scan_candidates) is visible per
  /// run. Accumulates across runs.
  HomSearchStats hom;

  void Merge(const DatalogEvalStats& other) {
    iterations += other.iterations;
    rule_firings += other.rule_firings;
    derived_facts += other.derived_facts;
    hom.Merge(other.hom);
  }

  /// Publishes every field as a counter `<prefix>.<field>` (hom counters
  /// under `<prefix>.hom.*`). Call once per run with run-local deltas so
  /// registry totals stay equal to the legacy stats totals.
  void PublishTo(MetricRegistry* metrics, const std::string& prefix) const {
    metrics->Add(prefix + ".iterations", iterations);
    metrics->Add(prefix + ".rule_firings", rule_firings);
    metrics->Add(prefix + ".derived_facts", derived_facts);
    hom.PublishTo(metrics, prefix + ".hom");
  }
};

enum class EvalStrategy {
  kNaive,      // re-derive everything each round
  kSemiNaive,  // delta-driven derivation
};

/// Full evaluation configuration. Semi-naive rounds after round 0 join
/// block-at-a-time (datalog/block_join.h): each (rule, intensional body
/// position) join compiles one static-order plan, and a round splits every
/// join with a non-empty delta into pool tasks of a fixed number of delta
/// rows, run against the frozen database. Task outputs are merged in task
/// order at the round barrier, so the derived database (including fact
/// insertion order) and all counters are bit-identical for every
/// `exec.threads`. The naive strategy is the reference and always serial;
/// the scan-join reference lives in tests/hom_oracle.h.
struct EvalOptions {
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
  /// Pool for the block-join tasks of each semi-naive round; the
  /// round-barrier merge (`Database::AddRowBatch`) is serial.
  ExecContext exec;
  /// Optional observability sinks, borrowed from the caller. Each
  /// EvaluateProgram run emits `datalog/eval`, `datalog/round`,
  /// `datalog/delta_join` and `datalog/merge` spans plus
  /// `db/index_build` spans from the working database, publishes its stats
  /// under `datalog.eval.*`, and snapshots the working database's index
  /// counters into `db.*` gauges.
  const ObsContext* obs = nullptr;
};

/// Computes F^∞(D): the database `edb` extended with all derived
/// intensional facts, by bottom-up fixpoint. The semi-naive strategy joins
/// each rule's delta atom against the delta relation and the remaining
/// atoms against the full database through the shared per-relation hash
/// indexes, which are maintained incrementally across rounds.
Result<Database> EvaluateProgram(const DatalogProgram& program,
                                 const Database& edb,
                                 const EvalOptions& options = {},
                                 DatalogEvalStats* stats = nullptr);

/// Π(D) in id space: the goal relation's rows as ranks of their values'
/// names, already in answer order, with no string built.
///
/// Answer order (the one contract every goal answer follows): rows sorted
/// lexicographically, element by element, where two values compare by the
/// byte order of their names (`std::string`'s `<`, unsigned bytes, a
/// prefix before its extensions). That is exactly `std::sort` over the
/// rows as string tuples. `rank` numbers the distinct values of the answer
/// in that name order, so comparing ranks compares names.
struct GoalAnswer {
  /// Owns the names `names` points into.
  std::shared_ptr<Interner> pool;
  /// `*names[rank]` is the name of the value with that rank, ascending.
  std::vector<const std::string*> names;
  /// `num_rows * arity` ranks, row-major, rows in answer order.
  std::vector<std::uint32_t> rows;
  std::size_t arity = 0;
  /// Counted apart from `rows`: an arity-0 goal has one row or none.
  std::size_t num_rows = 0;
};

/// Evaluates `program` over `edb` and returns its goal relation as a
/// GoalAnswer (see there for the order).
Result<GoalAnswer> EvaluateGoalAnswer(const DatalogProgram& program,
                                      const Database& edb,
                                      const EvalOptions& options = {},
                                      DatalogEvalStats* stats = nullptr);

/// Π(D): the goal-predicate tuples derived over `edb`, in answer order
/// (GoalAnswer), as strings.
Result<std::vector<Tuple>> EvaluateGoal(const DatalogProgram& program,
                                        const Database& edb,
                                        const EvalOptions& options = {},
                                        DatalogEvalStats* stats = nullptr);

/// Containment of a UCQ in a Datalog program (Cosmadakis-Kanellakis [16],
/// used by the paper for Corollary 2): Θ ⊆ Π iff for every disjunct θ the
/// frozen head of θ belongs to Π(D_θ). Single-exponential worst case in
/// the program arity; polynomial data complexity. The per-disjunct
/// evaluations run with `options` (so `options.exec` parallelizes each
/// fixpoint's delta rounds).
Result<bool> UcqContainedInDatalog(const UnionQuery& theta,
                                   const DatalogProgram& program,
                                   const EvalOptions& options = {},
                                   DatalogEvalStats* stats = nullptr);

}  // namespace qcont

#endif  // QCONT_DATALOG_EVAL_H_
