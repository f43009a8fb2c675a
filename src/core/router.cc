#include "core/router.h"

#include <string>

#include "analysis/report.h"

namespace qcont {

const char* RouteName(ContainmentRoute route) {
  switch (route) {
    case ContainmentRoute::kAckEngine:
      return "ACk engine (EXPTIME)";
    case ContainmentRoute::kGeneralEngine:
      return "general type engine (2EXPTIME)";
  }
  return "unknown";
}

Result<RoutedAnswer> DecideContainment(const DatalogProgram& program,
                                       const UnionQuery& ucq,
                                       const RouterOptions& options) {
  ObsSpan decide_span(options.obs, "router/decide", "core");
  // The default path goes through the verified analysis report: acyclicity,
  // width bounds, and the engine choice come from one cached static pass.
  ContainmentRoute route;
  int report_ack_level = 0;
  if (options.force == ForcedRoute::kAckEngine) {
    route = ContainmentRoute::kAckEngine;
  } else if (options.force == ForcedRoute::kGeneralEngine) {
    route = ContainmentRoute::kGeneralEngine;
  } else {
    analysis::RoutingOptions routing;
    routing.obs = options.obs;
    routing.use_cache = options.use_analysis_cache;
    // A caller-held report is read in place; only a fresh one is stored.
    analysis::AnalysisReport fresh;
    if (options.report == nullptr) {
      fresh = analysis::AnalyzeForRouting(program, ucq, routing);
    }
    const analysis::AnalysisReport& report =
        options.report != nullptr ? *options.report : fresh;
    const analysis::EngineKind engine =
        analysis::ChooseEngine(report, analysis::RoutingGoal::kContainment);
    route = engine == analysis::EngineKind::kAckEngine
                ? ContainmentRoute::kAckEngine
                : ContainmentRoute::kGeneralEngine;
    report_ack_level = report.ack_level;
    ObsCount(options.obs,
             std::string("analysis.route.") + analysis::EngineKindName(engine),
             1);
  }

  RoutedAnswer out;
  if (route == ContainmentRoute::kAckEngine) {
    AckEngineLimits limits = options.ack;
    if (limits.obs == nullptr) limits.obs = options.obs;
    if (limits.artifact_cache == nullptr) {
      limits.artifact_cache = options.artifact_cache;
    }
    AckEngineStats stats;
    QCONT_ASSIGN_OR_RETURN(
        out.answer, DatalogContainedInAcyclicUcq(program, ucq, &stats, limits));
    out.route = ContainmentRoute::kAckEngine;
    out.ack_level = stats.ack_level > 0 ? stats.ack_level : report_ack_level;
  } else {
    TypeEngineOptions general = options.general;
    if (general.obs == nullptr) general.obs = options.obs;
    if (general.artifact_cache == nullptr) {
      general.artifact_cache = options.artifact_cache;
    }
    QCONT_ASSIGN_OR_RETURN(
        out.answer, DatalogContainedInUcq(program, ucq, nullptr, general));
    out.route = ContainmentRoute::kGeneralEngine;
  }
  decide_span.AddArg("acyclic",
                     out.route == ContainmentRoute::kAckEngine ? 1 : 0);
  decide_span.AddArg("forced", options.force != ForcedRoute::kAuto ? 1 : 0);
  return out;
}

Result<RoutedAnswer> DecideContainment(const DatalogProgram& program,
                                       const UnionQuery& ucq) {
  return DecideContainment(program, ucq, RouterOptions());
}

}  // namespace qcont
