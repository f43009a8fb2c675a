#ifndef QCONT_CQ_CORE_H_
#define QCONT_CQ_CORE_H_

#include <optional>

#include "base/status.h"
#include "cq/query.h"

namespace qcont {

/// Computes the core of a CQ: a minimal equivalent subquery, unique up to
/// isomorphism [Hell-Nešetřil]. The core is obtained by repeatedly folding
/// away an existential variable via a retraction (an endomorphism of the
/// canonical database that is the identity on the free variables and whose
/// image avoids the variable). Duplicate atoms are dropped first. Runs on
/// the small-CQ kernel (cq/small_cq.h).
///
/// Worst-case exponential (the problem is NP-hard), which matches the
/// NP-completeness of H(ACk) membership (Proposition 4 of the paper).
Result<ConjunctiveQuery> CoreOf(const ConjunctiveQuery& cq);

/// True iff no existential variable of `cq` folds away (duplicate atoms
/// aside, `cq` is its own core).
Result<bool> IsCore(const ConjunctiveQuery& cq);

/// The minimal equivalent of a UCQ (Propositions 3–4): every disjunct is
/// replaced by its core, then disjuncts contained in another surviving
/// disjunct are dropped (ties between equivalent disjuncts keep the
/// earliest). The result is equivalent to `ucq`, so verdicts and witnesses
/// transfer verbatim. Returns std::nullopt when `ucq` is already minimal —
/// every disjunct a core without duplicate atoms, none subsumed — without
/// building a query. Subsumption is the kernel's Chandra–Merlin test.
Result<std::optional<UnionQuery>> MinimizeUnionQuery(const UnionQuery& ucq);

}  // namespace qcont

#endif  // QCONT_CQ_CORE_H_
