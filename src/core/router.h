#ifndef QCONT_CORE_ROUTER_H_
#define QCONT_CORE_ROUTER_H_

#include <string>

#include "analysis/report.h"
#include "base/status.h"
#include "core/ack_containment.h"
#include "core/datalog_ucq.h"
#include "datalog/program.h"
#include "obs/obs.h"

namespace qcont {

/// Which engine decided a routed containment call.
enum class ContainmentRoute {
  kAckEngine,      // acyclic UCQ: EXPTIME engine (Theorem 6 / Corollary 1)
  kGeneralEngine,  // arbitrary UCQ: 2EXPTIME type engine (Theorem 2)
};

struct RoutedAnswer {
  ContainmentAnswer answer;
  ContainmentRoute route = ContainmentRoute::kGeneralEngine;
  int ack_level = 0;  // k such that Θ ∈ ACk, when routed to the ACk engine
};

const char* RouteName(ContainmentRoute route);

/// Route override for DecideContainment; kAuto routes on whether every
/// disjunct of Θ is acyclic (the ACk engine's GYO pass, or a caller-held
/// AnalysisReport). Forcing the ACk engine on a cyclic UCQ surfaces that
/// engine's kFailedPrecondition.
enum class ForcedRoute {
  kAuto,
  kAckEngine,
  kGeneralEngine,
};

/// Options for a routed containment call. Engine sub-options ride along so
/// callers can tune either engine without knowing which one will run.
struct RouterOptions {
  /// Observability sink (optional, borrowed). Copied into `general.obs` /
  /// `ack.obs` when those are unset, so one pointer instruments whichever
  /// engine the router picks, plus the router's own `router/decide` span.
  const ObsContext* obs = nullptr;
  /// Options for the general 2EXPTIME type engine route.
  TypeEngineOptions general;
  /// Limits for the single-exponential ACk engine route.
  AckEngineLimits ack;
  /// Engine override (differential tests, debugging).
  ForcedRoute force = ForcedRoute::kAuto;
  /// Not read: routing builds no AnalysisReport, so it never touches the
  /// global analysis cache. Kept for source compatibility.
  bool use_analysis_cache = true;
  /// Request-scoped routing: a report for this exact (program, ucq) pair
  /// that the caller already holds. When set, kAuto routes on its
  /// `acyclic` bit instead of running the GYO pass. Borrowed; must outlive
  /// the call.
  const analysis::AnalysisReport* report = nullptr;
  /// Program-keyed kind-space memoization (optional, borrowed;
  /// program_artifact_cache.h). Copied into `general.artifact_cache` and
  /// `ack.artifact_cache` when those are unset, mirroring `obs` — so one
  /// pointer serves whichever engine the router picks.
  ProgramArtifactCache* artifact_cache = nullptr;
};

/// Decides Π ⊆ Θ picking the best engine per the paper's classification
/// (Corollary 1): if Θ is acyclic — which covers every acyclic UCQ over an
/// arity-c schema (then Θ ∈ ACc) and every TW(1) UCQ (then Θ ∈ AC2) — use
/// the single-exponential ACk engine; otherwise fall back to the general
/// doubly-exponential engine. Acyclicity is decided by the ACk engine's own
/// GYO pass per disjunct, and on the ACk route those join forests are the
/// ones the engine runs on; no AnalysisReport is built.
Result<RoutedAnswer> DecideContainment(const DatalogProgram& program,
                                       const UnionQuery& ucq,
                                       const RouterOptions& options);
Result<RoutedAnswer> DecideContainment(const DatalogProgram& program,
                                       const UnionQuery& ucq);

}  // namespace qcont

#endif  // QCONT_CORE_ROUTER_H_
