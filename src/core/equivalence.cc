#include "core/equivalence.h"

#include "cq/database.h"
#include "datalog/eval.h"

namespace qcont {

Result<EquivalenceAnswer> DatalogEquivalentToUcq(const DatalogProgram& program,
                                                 const UnionQuery& ucq) {
  return DatalogEquivalentToUcq(program, ucq, RouterOptions(), EvalOptions());
}

Result<EquivalenceAnswer> DatalogEquivalentToUcq(const DatalogProgram& program,
                                                 const UnionQuery& ucq,
                                                 const RouterOptions& router,
                                                 const EvalOptions& eval) {
  EquivalenceAnswer out;
  QCONT_ASSIGN_OR_RETURN(RoutedAnswer routed,
                         DecideContainment(program, ucq, router));
  out.route = routed.route;
  out.program_in_ucq = routed.answer.contained;
  if (!out.program_in_ucq) {
    out.witness = routed.answer.witness;
    // Still report the other direction; it is cheap by comparison.
  }
  out.ucq_in_program = true;
  EvalOptions eval_options = eval;
  if (eval_options.obs == nullptr) eval_options.obs = router.obs;
  for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
    FrozenQuery frozen = Freeze(disjunct);  // programs have no constants
    QCONT_ASSIGN_OR_RETURN(
        Database derived,
        EvaluateProgram(program, frozen.database, eval_options));
    if (!derived.HasFact(program.goal_predicate(), frozen.head)) {
      out.ucq_in_program = false;
      if (!out.witness.has_value()) out.witness = disjunct;
      break;
    }
  }
  out.equivalent = out.program_in_ucq && out.ucq_in_program;
  return out;
}

}  // namespace qcont
