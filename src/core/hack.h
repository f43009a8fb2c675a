#ifndef QCONT_CORE_HACK_H_
#define QCONT_CORE_HACK_H_

#include <optional>

#include "base/status.h"
#include "core/datalog_ucq.h"
#include "cq/query.h"
#include "datalog/program.h"

namespace qcont {

/// Outcome of normalizing a UCQ modulo equivalence into the ACk hierarchy
/// (Propositions 3 and 4 of the paper).
struct HAckNormalization {
  bool in_hack = false;        // Θ ∈ H(ACk) for some k
  int level = 0;               // the least such k when in_hack
  std::optional<UnionQuery> normalized;  // equivalent UCQ in ACk, ≤ original size
};

/// Tests membership of Θ in H(ACk) — the UCQs equivalent to one in ACk —
/// and produces the equivalent ACk query: replace every disjunct by its
/// core, then drop disjuncts subsumed by others (MinimizeUnionQuery,
/// cq/core.h). By the paper's
/// Proposition 3, Θ ∈ H(ACk) iff the resulting UCQ is in ACk (cores of
/// ACk queries are strong induced subqueries, and ACk is closed under
/// them). NP-hard (Proposition 4); exponential worst case here.
Result<HAckNormalization> NormalizeIntoAck(const UnionQuery& ucq);

/// CONT(Datalog, H(ACk)) (Proposition 3): normalize Θ into ACk and run the
/// single-exponential ACk engine on the result. kFailedPrecondition if
/// Θ ∉ H(ACk) for every k.
Result<ContainmentAnswer> DatalogContainedInHAck(const DatalogProgram& program,
                                                 const UnionQuery& ucq);

}  // namespace qcont

#endif  // QCONT_CORE_HACK_H_
