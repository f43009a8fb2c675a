#ifndef QCONT_CQ_SMALL_CQ_H_
#define QCONT_CQ_SMALL_CQ_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "base/name_table.h"
#include "base/status.h"
#include "cq/query.h"

namespace qcont {

struct HomSearchStats;

/// The small-CQ kernel: a run of conjunctive queries compiled to dense
/// integers against one name table, for cores, subsumption and the
/// Chandra–Merlin / Sagiv–Yannakakis containment API (cq/containment.h,
/// DESIGN.md §19).
///
///  - Variables get dense per-query ids in first-occurrence order;
///    predicates and constants are keyed by name across the whole run (a
///    predicate name used at two arities in two queries matches nothing
///    between them). Term codes are typed: a constant's code carries
///    `kConstantBit`, so variable `y` and constant `'y'` never share one.
///    Names are looked up by scanning while a table is small and through a
///    hashed index past that, so compiling is linear in the input.
///  - A homomorphism search keeps, per source atom, the candidate target
///    atoms as a bitmask (`uint64_t` words; a word array past 64 atoms)
///    and narrows it by the precomputed (position, value) masks of the
///    target, so candidate counts are popcounts.
///  - Every table is a StackBuffer: a query inside the inline capacities
///    is compiled, cored and tested for subsumption without allocating.
///
/// Duplicate atoms are dropped at compile time; a disjunct's current form
/// is the ordered list of its surviving source atoms, so `Build` copies
/// atoms of the input query (original variable names) and nothing else.
class SmallUcq {
 public:
  using Code = std::uint32_t;
  static constexpr Code kConstantBit = 0x80000000u;

  SmallUcq() = default;
  SmallUcq(const SmallUcq&) = delete;
  SmallUcq& operator=(const SmallUcq&) = delete;

  /// Compiles the queries `*cqs[0, n)`; the array and the queries must
  /// outlive this object. A query that ConjunctiveQuery::Validate rejects
  /// fails with Validate's status.
  Status Compile(const ConjunctiveQuery* const* cqs, std::size_t n);

  /// True iff disjunct `d` had duplicate atoms (dropped by Compile).
  bool HadDuplicates(std::size_t d) const { return had_duplicates_[d] != 0; }

  /// Replaces disjunct `d` by its core: repeatedly folds away the first
  /// existential variable (first-occurrence order) that a retraction
  /// eliminates, restarting after each fold — a retraction being a
  /// homomorphism into the atoms that avoid the variable, identity on the
  /// head. The search takes the most constrained atom first (most bound
  /// positions, then fewest candidates) and tries candidates in atom
  /// order, and the image keeps source order, which makes the result the
  /// one the indexed homomorphism search picks on the canonical database.
  /// Returns true iff a variable was folded away.
  bool FoldToCore(std::size_t d);

  /// Chandra–Merlin: disjunct `d` ⊆ disjunct `e` (equal arities). A
  /// homomorphism from `e` into the frozen atoms of `d` that maps `e`'s
  /// head onto `d`'s head position by position. Adds the search's
  /// counters to `*stats` when given (see HomSearchStats). Read-only, so
  /// concurrent calls on one compiled kernel are safe.
  bool Contained(std::size_t d, std::size_t e,
                 HomSearchStats* stats = nullptr) const;

  /// Disjunct `d` in its current form: the head and the surviving atoms of
  /// the source query, in order.
  ConjunctiveQuery Build(std::size_t d) const;

 private:
  class Search;
  struct View {
    std::uint32_t num_atoms;
    std::uint32_t num_vars;
    std::uint32_t head_size;
    const std::uint32_t* kept;  // source atom index within the disjunct
    std::uint32_t atom_base;    // global index of the disjunct's atom 0
    const Code* head;
  };
  View ViewOf(std::size_t d) const;

  const ConjunctiveQuery* const* cqs_ = nullptr;
  std::uint32_t num_preds_ = 0;
  std::uint32_t num_constants_ = 0;
  // Per disjunct.
  StackBuffer<std::uint32_t, 17> atom_begin_;  // global atom index
  StackBuffer<std::uint32_t, 17> head_begin_;
  StackBuffer<std::uint32_t, 16> num_vars_;
  StackBuffer<std::uint32_t, 16> kept_count_;
  StackBuffer<std::uint8_t, 16> had_duplicates_;
  // Per global atom: predicate id and term range; `kept_` holds, from each
  // disjunct's atom_begin_, the surviving source atoms in order.
  StackBuffer<std::uint32_t, 64> pred_;
  StackBuffer<std::uint32_t, 65> term_begin_;
  StackBuffer<std::uint32_t, 64> kept_;
  StackBuffer<Code, 192> terms_;
  StackBuffer<Code, 32> head_;
};

}  // namespace qcont

#endif  // QCONT_CQ_SMALL_CQ_H_
