#ifndef QCONT_DATALOG_BLOCK_JOIN_H_
#define QCONT_DATALOG_BLOCK_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/program.h"

namespace qcont {

/// Compiled block-at-a-time delta join for one (rule, delta position) pair
/// (DESIGN.md §16). Where the recursive homomorphism engine extends one
/// partial binding at a time — re-selecting the most-constrained atom and
/// issuing one index probe per candidate — the block plan fixes the atom
/// order once at compile time (delta atom first, then greedily by bound
/// positions) and joins a whole block of delta rows per step: the frontier
/// of partial bindings is a flat ValueId array, each step gathers every
/// frontier row's probe key and resolves them with ONE ProbeMany call per
/// atom per block, so the staged probe pipeline (hash → Bloom filter →
/// prefetch → tag-filtered resolve) amortizes over the block instead of
/// running one cold probe per binding.
///
/// The plan enumerates exactly the homomorphisms the recursive engine
/// finds (same set, same multiplicity — emission order may differ, which
/// semi-naive rounds absorb because derived facts are deduplicated sets).
/// Execution is deterministic: output order depends only on delta row
/// order and postings order, never on thread count.
class BlockJoinPlan {
 public:
  /// Compiles a plan for `rule` with the atom at `delta_position` matched
  /// against the delta rows. `body_rels` are the pre-interned relation ids
  /// of the body atoms. The rule must be constant-free and range-restricted
  /// — what `DatalogProgram::Validate()` guarantees — and may have atoms of
  /// any arity, the head and the delta atom included: probe keys cover a
  /// step atom's first 32 positions (the width of a probe mask), later
  /// positions are bound or checked per candidate row.
  static BlockJoinPlan Compile(const Rule& rule,
                               std::span<const RelationId> body_rels,
                               int delta_position);

  BlockJoinPlan() = default;

  /// Joins `num_delta_rows` delta rows (flattened in `delta_rows` with the
  /// delta atom's arity as stride; the count is explicit because arity-0
  /// rows take no space) through the plan, in blocks of `block_rows`,
  /// appending each match's head row to `out_rows` (stride = head arity)
  /// and bumping `*num_rows` per match. Probe traffic lands in `stats`
  /// (index_probes/index_candidates for the ProbeMany steps,
  /// scan_candidates for the delta scan, atom_attempts per candidate).
  void Execute(const Database& all, std::span<const ValueId> delta_rows,
               std::size_t num_delta_rows, std::size_t block_rows,
               std::vector<ValueId>* out_rows, std::size_t* num_rows,
               HomSearchStats* stats) const;

 private:
  // Unbound position handled outside the probe key: first occurrence of a
  // variable binds its frontier slot, a repeat — or a variable bound
  // earlier at a position past the probe mask — checks against the slot.
  struct PositionAction {
    std::uint32_t pos = 0;
    int var_slot = -1;
    bool bind = false;  // false: equality check against var_slot
  };
  struct AtomStep {
    RelationId rel = kNoRelation;
    std::uint32_t arity = 0;
    std::uint32_t mask = 0;  // bound positions among the first 32
    // Frontier slot of each masked position's key value, ascending by
    // position (popcount(mask) entries).
    std::vector<int> key_slots;
    std::vector<PositionAction> actions;
  };

  std::size_t num_vars_ = 0;
  std::uint32_t delta_arity_ = 0;
  std::vector<PositionAction> delta_actions_;
  std::vector<AtomStep> steps_;    // non-delta atoms in join order
  std::vector<int> head_slots_;    // frontier slot per head position
};

}  // namespace qcont

#endif  // QCONT_DATALOG_BLOCK_JOIN_H_
