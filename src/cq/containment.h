#ifndef QCONT_CQ_CONTAINMENT_H_
#define QCONT_CQ_CONTAINMENT_H_

#include "base/status.h"
#include "cq/homomorphism.h"
#include "cq/query.h"

namespace qcont {

/// Decides theta ⊆ theta' (containment of CQs of the same arity) by the
/// Chandra-Merlin test: theta ⊆ theta' iff the frozen head of theta is in
/// theta'(D_theta). NP in general; `stats` reports search effort. Every
/// entry point here runs on the small-CQ kernel (cq/small_cq.h): its term
/// codes are typed, so a variable and a constant of one name never match
/// each other.
Result<bool> CqContained(const ConjunctiveQuery& theta,
                         const ConjunctiveQuery& theta_prime,
                         HomSearchStats* stats = nullptr,
                         const HomSearchOptions& options = {});

/// Decides Theta ⊆ Theta' for UCQs by the Sagiv-Yannakakis criterion:
/// every disjunct of Theta is contained in some disjunct of Theta'.
///
/// With `options.exec.threads > 1` the disjunct×disjunct Chandra-Merlin
/// checks fan out over the work-stealing pool. The result, any error, and
/// the `stats` totals are guaranteed identical to the serial walk for
/// every thread count: speculative pairs the serial left-to-right walk
/// would never reach are cancelled best-effort via an atomic frontier and
/// their counters are discarded at the join (DESIGN.md §11).
Result<bool> UcqContained(const UnionQuery& theta, const UnionQuery& theta_prime,
                          HomSearchStats* stats = nullptr,
                          const HomSearchOptions& options = {});

/// Decides whether theta is contained in the UCQ Theta'. Note that for a
/// single CQ on the left this is equivalent to the per-disjunct test.
/// Parallelizes across the disjuncts of Theta' like UcqContained.
Result<bool> CqContainedInUcq(const ConjunctiveQuery& theta,
                              const UnionQuery& theta_prime,
                              HomSearchStats* stats = nullptr,
                              const HomSearchOptions& options = {});

/// Equivalence of UCQs: containment both ways.
Result<bool> UcqEquivalent(const UnionQuery& a, const UnionQuery& b,
                           HomSearchStats* stats = nullptr,
                           const HomSearchOptions& options = {});

}  // namespace qcont

#endif  // QCONT_CQ_CONTAINMENT_H_
