#ifndef QCONT_SERVERBENCH_LAYERS_H_
#define QCONT_SERVERBENCH_LAYERS_H_

// The traced replay: runs a request through the same public layer functions
// qcont_server calls, in the same order and against a plan cache of its own,
// with a timer around each call. Nothing inside the program is instrumented;
// the split comes from outside.

#include <cstdint>
#include <memory>
#include <string>

#include "base/interner.h"
#include "server/plan_cache.h"
#include "server/server.h"

namespace serverbench {

/// Nanoseconds spent per layer, summed over `requests` replayed requests.
struct LayerTotals {
  double json_ns = 0;       // server::ParseJson and field access
  double parse_ns = 0;      // ParseProgram / ParseUcq / ParseDatabase
  double canon_ns = 0;      // analysis::Canonical*Hash
  double cache_ns = 0;      // PlanCache lookups and inserts
  double minimize_ns = 0;   // CoreOf / CqContained pre-pass
  double route_ns = 0;      // analysis::AnalyzeForRouting
  double ack_ns = 0;        // DecideContainment routed to the ACk engine
  double type_engine_ns = 0;  // DecideContainment routed to the type engine
  double db_build_ns = 0;   // rebuilding the request database on the pool
  double eval_ns = 0;       // EvaluateGoal
  std::uint64_t requests = 0;
  std::uint64_t ack_runs = 0;
  std::uint64_t type_engine_runs = 0;

  double SumNs() const {
    return json_ns + parse_ns + canon_ns + cache_ns + minimize_ns + route_ns +
           ack_ns + type_engine_ns + db_build_ns + eval_ns;
  }
};

class LayerReplay {
 public:
  /// Mirrors the server's cache capacities and minimization setting.
  explicit LayerReplay(const qcont::server::ServerOptions& options);

  /// Replays one request line. `totals` may be null (set-up, untimed).
  void Run(const std::string& line, LayerTotals* totals);

 private:
  qcont::server::ServerOptions options_;
  std::shared_ptr<qcont::Interner> pool_;
  qcont::server::PlanCache cache_;
};

}  // namespace serverbench

#endif  // QCONT_SERVERBENCH_LAYERS_H_
