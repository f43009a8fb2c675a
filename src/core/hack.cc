#include "core/hack.h"

#include <optional>

#include "core/ack_containment.h"
#include "cq/core.h"
#include "structure/classify.h"

namespace qcont {

Result<HAckNormalization> NormalizeIntoAck(const UnionQuery& ucq) {
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  // Θ_min: every disjunct replaced by its core, subsumed disjuncts dropped.
  QCONT_ASSIGN_OR_RETURN(std::optional<UnionQuery> minimized,
                         MinimizeUnionQuery(ucq));
  const UnionQuery& normalized = minimized.has_value() ? *minimized : ucq;
  HAckNormalization out;
  Result<int> level = AckLevel(normalized);
  if (level.ok()) {
    out.in_hack = true;
    out.level = *level;
    out.normalized = normalized;
  } else if (level.status().code() != StatusCode::kFailedPrecondition) {
    return level.status();
  }
  return out;
}

Result<ContainmentAnswer> DatalogContainedInHAck(const DatalogProgram& program,
                                                 const UnionQuery& ucq) {
  QCONT_ASSIGN_OR_RETURN(HAckNormalization norm, NormalizeIntoAck(ucq));
  if (!norm.in_hack) {
    return FailedPreconditionError(
        "the UCQ is not equivalent to an acyclic UCQ (not in H(ACk))");
  }
  return DatalogContainedInAcyclicUcq(program, *norm.normalized);
}

}  // namespace qcont
