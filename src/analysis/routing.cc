#include "analysis/routing.h"

#include <string>
#include <utility>

#include "structure/acyclic_eval.h"
#include "structure/decomp_eval.h"

namespace qcont {
namespace analysis {

namespace {

EngineKind ResolveEvalEngine(const ConjunctiveQuery& cq,
                             const RoutedEvalOptions& options) {
  switch (options.force) {
    case ForcedEvalEngine::kYannakakis:
      return EngineKind::kYannakakis;
    case ForcedEvalEngine::kDecompDp:
      return EngineKind::kDecompDp;
    case ForcedEvalEngine::kGenericHomSearch:
      return EngineKind::kGenericHomSearch;
    case ForcedEvalEngine::kAuto:
      break;
  }
  AnalysisReport report =
      AnalyzeForRouting(UnionQuery({cq}), options.routing);
  return ChooseEngine(report, RoutingGoal::kEvaluate);
}

void CountRoute(const RoutingOptions& routing, EngineKind engine) {
  ObsCount(routing.obs,
           std::string("analysis.route.") + EngineKindName(engine), 1);
}

}  // namespace

Result<bool> RoutedSatisfiable(const ConjunctiveQuery& cq, const Database& db,
                               const Assignment& fixed,
                               const RoutedEvalOptions& options,
                               EngineKind* chosen) {
  const EngineKind engine = ResolveEvalEngine(cq, options);
  if (chosen != nullptr) *chosen = engine;
  CountRoute(options.routing, engine);
  ObsSpan span(options.routing.obs, "analysis/route", "analysis");
  span.AddArg("engine", static_cast<std::uint64_t>(engine));
  switch (engine) {
    case EngineKind::kYannakakis:
      return AcyclicSatisfiable(cq, db, fixed, nullptr, options.routing.obs);
    case EngineKind::kDecompDp:
      return BoundedWidthSatisfiable(cq, db, fixed, nullptr,
                                     options.routing.obs);
    default:
      return FindHomomorphism(cq, db, fixed).has_value();
  }
}

Result<std::vector<Tuple>> RoutedEvaluateCq(const ConjunctiveQuery& cq,
                                            const Database& db,
                                            const RoutedEvalOptions& options,
                                            EngineKind* chosen) {
  EngineKind engine = ResolveEvalEngine(cq, options);
  // The DP answers satisfiability only; enumeration goes generic.
  if (engine == EngineKind::kDecompDp &&
      options.force == ForcedEvalEngine::kAuto) {
    engine = EngineKind::kGenericHomSearch;
  }
  if (chosen != nullptr) *chosen = engine;
  CountRoute(options.routing, engine);
  ObsSpan span(options.routing.obs, "analysis/route", "analysis");
  span.AddArg("engine", static_cast<std::uint64_t>(engine));
  switch (engine) {
    case EngineKind::kYannakakis:
      return EvaluateAcyclicCq(cq, db, nullptr, options.routing.obs);
    case EngineKind::kDecompDp:
      return InvalidArgumentError(
          "the decomposition DP cannot enumerate answers; force "
          "yannakakis or generic-hom-search");
    default:
      return EvaluateCq(cq, db);
  }
}

}  // namespace analysis
}  // namespace qcont
