#include "core/router.h"

#include <optional>
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
  AckEngineLimits limits = options.ack;
  if (limits.obs == nullptr) limits.obs = options.obs;
  if (limits.artifact_cache == nullptr) {
    limits.artifact_cache = options.artifact_cache;
  }
  AckEngineStats stats;
  // Corollary 1 routes on acyclicity alone. A caller-held report decides it;
  // otherwise the ACk engine's own GYO pass does, and its join forests are
  // the ones the engine runs on. `ack` stays empty on the general route.
  const analysis::AnalysisReport* report = options.report;
  std::optional<Result<ContainmentAnswer>> ack;
  if (options.force == ForcedRoute::kAckEngine ||
      (options.force == ForcedRoute::kAuto && report != nullptr &&
       analysis::ChooseEngine(*report, analysis::RoutingGoal::kContainment) ==
           analysis::EngineKind::kAckEngine)) {
    ack = DatalogContainedInAcyclicUcq(program, ucq, &stats, limits);
  } else if (options.force == ForcedRoute::kAuto && report == nullptr) {
    ack = DatalogContainedInUcqIfAcyclic(program, ucq, &stats, limits);
  }
  if (options.force == ForcedRoute::kAuto) {
    if (MetricRegistry* metrics = ObsMetrics(options.obs)) {
      metrics->Add(std::string("analysis.route.") +
                       analysis::EngineKindName(
                           ack.has_value() ? analysis::EngineKind::kAckEngine
                                           : analysis::EngineKind::kTypeEngine),
                   1);
    }
  }

  RoutedAnswer out;
  if (ack.has_value()) {
    QCONT_ASSIGN_OR_RETURN(out.answer, std::move(*ack));
    out.route = ContainmentRoute::kAckEngine;
    // AC1 is the lowest level by convention.
    const int fallback = report != nullptr ? report->ack_level : 1;
    out.ack_level = stats.ack_level > 0 ? stats.ack_level : fallback;
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
