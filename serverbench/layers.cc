#include "layers.h"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "core/router.h"
#include "cq/containment.h"
#include "cq/core.h"
#include "datalog/eval.h"
#include "parser/parser.h"
#include "server/json.h"

namespace serverbench {

namespace {

using Clock = std::chrono::steady_clock;
using qcont::server::PlanKey;

/// Runs `fn`, adds its wall time to `*ns`, returns its result.
template <typename Fn>
auto Timed(double* ns, Fn&& fn) {
  const auto start = Clock::now();
  auto result = fn();
  *ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count();
  return result;
}

// The server's minimization pre-pass (server.cc), rebuilt from the public
// cq/ functions so its cost can be timed on its own.
bool SmallEnoughToMinimize(const qcont::UnionQuery& ucq) {
  if (ucq.disjuncts().size() > 16) return false;
  for (const qcont::ConjunctiveQuery& cq : ucq.disjuncts()) {
    if (cq.atoms().size() > 24) return false;
  }
  return true;
}

qcont::Result<qcont::UnionQuery> MinimizeUcq(const qcont::UnionQuery& ucq) {
  std::vector<qcont::ConjunctiveQuery> cores;
  for (const qcont::ConjunctiveQuery& cq : ucq.disjuncts()) {
    QCONT_ASSIGN_OR_RETURN(qcont::ConjunctiveQuery core, qcont::CoreOf(cq));
    cores.push_back(std::move(core));
  }
  const std::size_t n = cores.size();
  std::vector<bool> dead(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n && !dead[i]; ++j) {
      if (j == i || dead[j]) continue;
      QCONT_ASSIGN_OR_RETURN(bool fwd, qcont::CqContained(cores[i], cores[j]));
      if (!fwd) continue;
      if (j < i) {
        dead[i] = true;
      } else {
        QCONT_ASSIGN_OR_RETURN(bool back,
                               qcont::CqContained(cores[j], cores[i]));
        if (!back) dead[i] = true;
      }
    }
  }
  std::vector<qcont::ConjunctiveQuery> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead[i]) kept.push_back(std::move(cores[i]));
  }
  return qcont::UnionQuery(std::move(kept));
}

}  // namespace

LayerReplay::LayerReplay(const qcont::server::ServerOptions& options)
    : options_(options),
      pool_(std::make_shared<qcont::Interner>()),
      cache_([&] {
        qcont::server::PlanCacheConfig config = options.cache;
        config.obs = nullptr;
        return config;
      }()) {
  options_.obs = nullptr;
}

void LayerReplay::Run(const std::string& line, LayerTotals* totals) {
  LayerTotals discarded;
  LayerTotals& t = totals != nullptr ? *totals : discarded;
  ++t.requests;

  auto request =
      Timed(&t.json_ns, [&] { return qcont::server::ParseJson(line); });
  if (!request.ok() || !request->is_object()) return;
  auto text = [&](const char* name) -> const std::string* {
    const qcont::server::JsonValue* v = request->Get(name);
    return v != nullptr && v->is_string() ? &v->string_value() : nullptr;
  };
  std::string op;
  const std::string* program_text = nullptr;
  const std::string* query_text = nullptr;
  const std::string* db_text = nullptr;
  Timed(&t.json_ns, [&] {
    if (const std::string* o = text("op")) op = *o;
    program_text = text("program");
    query_text = text("query");
    db_text = text("database");
    return 0;
  });

  std::optional<qcont::DatalogProgram> program;
  std::uint64_t key1 = 0;
  if (program_text != nullptr) {
    auto parsed =
        Timed(&t.parse_ns, [&] { return qcont::ParseProgram(*program_text); });
    if (!parsed.ok()) return;
    program = std::move(*parsed);
    key1 = Timed(&t.canon_ns,
                 [&] { return qcont::analysis::CanonicalProgramHash(*program); });
  }

  if (op == "eval") {
    if (!program.has_value() || db_text == nullptr) return;
    auto database =
        Timed(&t.parse_ns, [&] { return qcont::ParseDatabase(*db_text); });
    if (!database.ok()) return;
    const PlanKey key{key1, Timed(&t.canon_ns, [&] {
                        return qcont::analysis::CanonicalDatabaseHash(*database);
                      })};
    if (Timed(&t.cache_ns, [&] { return cache_.LookupEval(key); })) return;
    qcont::Database db = Timed(&t.db_build_ns, [&] {
      qcont::Database built(pool_);
      for (const std::string& relation : database->Relations()) {
        for (const qcont::Tuple& tuple : database->Facts(relation)) {
          built.AddFact(relation, tuple);
        }
      }
      return built;
    });
    qcont::EvalOptions eval;
    eval.exec.threads = options_.engine_threads;
    auto tuples =
        Timed(&t.eval_ns, [&] { return qcont::EvaluateGoal(*program, db, eval); });
    if (!tuples.ok()) return;
    Timed(&t.cache_ns, [&] {
      cache_.InsertEval(key, qcont::server::CachedEval{std::move(*tuples)});
      return 0;
    });
    return;
  }

  if (query_text == nullptr) return;
  auto query = Timed(&t.parse_ns, [&] { return qcont::ParseUcq(*query_text); });
  if (!query.ok()) return;
  const std::uint64_t key2 = Timed(
      &t.canon_ns, [&] { return qcont::analysis::CanonicalQueryHash(*query); });
  qcont::analysis::RoutingOptions routing;
  routing.use_cache = false;

  if (op == "analyze") {
    const PlanKey key{key1, key2};
    if (Timed(&t.cache_ns, [&] { return cache_.LookupAnalysis(key); })) return;
    auto report = Timed(&t.route_ns, [&] {
      return program.has_value()
                 ? qcont::analysis::AnalyzeForRouting(*program, *query, routing)
                 : qcont::analysis::AnalyzeForRouting(*query, routing);
    });
    Timed(&t.cache_ns, [&] {
      cache_.InsertAnalysis(key, std::move(report));
      return 0;
    });
    return;
  }
  if (op != "containment" || !program.has_value()) return;

  // Containment, as server.cc's RunContainment: minimize Θ (memoized), then
  // verdict cache, analysis cache, routed engine.
  const qcont::UnionQuery* theta = &*query;
  std::uint64_t query_hash = key2;
  std::optional<qcont::UnionQuery> minimized;
  if (options_.minimize_queries && SmallEnoughToMinimize(*query)) {
    minimized = Timed(&t.cache_ns, [&] { return cache_.LookupCoreUcq(key2); });
    if (!minimized.has_value()) {
      auto result = Timed(&t.minimize_ns, [&] { return MinimizeUcq(*query); });
      if (result.ok()) {
        minimized = std::move(*result);
        Timed(&t.cache_ns, [&] {
          cache_.InsertCoreUcq(key2, *minimized);
          return 0;
        });
      }
    }
    if (minimized.has_value()) {
      theta = &*minimized;
      query_hash = Timed(&t.canon_ns, [&] {
        return qcont::analysis::CanonicalQueryHash(*minimized);
      });
    }
  }
  const PlanKey key{key1, query_hash};
  if (Timed(&t.cache_ns, [&] { return cache_.LookupVerdict(key); })) return;
  auto report = Timed(&t.cache_ns, [&] { return cache_.LookupAnalysis(key); });
  if (!report.has_value()) {
    report = Timed(&t.route_ns, [&] {
      return qcont::analysis::AnalyzeForRouting(*program, *theta, routing);
    });
    Timed(&t.cache_ns, [&] {
      cache_.InsertAnalysis(key, *report);
      return 0;
    });
  }
  qcont::RouterOptions router;
  router.use_analysis_cache = false;
  router.report = &*report;
  router.artifact_cache = &cache_.artifacts();
  router.general.exec.threads = options_.engine_threads;
  double engine_ns = 0;
  auto routed = Timed(&engine_ns, [&] {
    return qcont::DecideContainment(*program, *theta, router);
  });
  const bool ack =
      routed.ok() && routed->route == qcont::ContainmentRoute::kAckEngine;
  (ack ? t.ack_ns : t.type_engine_ns) += engine_ns;
  ++(ack ? t.ack_runs : t.type_engine_runs);
  if (!routed.ok()) return;
  // Materializing the cached verdict is server bookkeeping, left untimed
  // (it lands in server.residual_us like the response rendering).
  qcont::server::CachedVerdict built;
  built.contained = routed->answer.contained;
  built.route = routed->route;
  built.ack_level = routed->ack_level;
  if (routed->answer.witness.has_value()) {
    built.witness = routed->answer.witness->ToString();
    built.counterexample_db =
        qcont::CanonicalDatabase(*routed->answer.witness).ToString();
  }
  Timed(&t.cache_ns, [&] {
    cache_.InsertVerdict(key, std::move(built));
    return 0;
  });
}

}  // namespace serverbench
