#include "server/server.h"

#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "analysis/report.h"
#include "core/router.h"
#include "cq/core.h"
#include "datalog/eval.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "server/json.h"

namespace qcont {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

/// Machine-readable route names for the wire format (RouteName() is the
/// human-facing CLI string).
const char* WireRouteName(ContainmentRoute route) {
  switch (route) {
    case ContainmentRoute::kAckEngine: return "ack";
    case ContainmentRoute::kGeneralEngine: return "type-engine";
  }
  return "unknown";
}

/// The fully rendered pieces of a response except id/cache/elapsed, which
/// differ between a coalescing leader and its followers.
struct Outcome {
  std::string status = "ok";  // ok|error|deadline_exceeded|overloaded
  std::string cache = "none"; // hit|miss|coalesced|none
  std::string error_code;     // StatusCodeName(...) when status == "error"
  std::string error_message;
  std::string result_json;    // rendered object, empty unless status == ok

  static Outcome Error(const Status& status) {
    Outcome out;
    out.status = "error";
    out.error_code = StatusCodeName(status.code());
    out.error_message = status.message();
    return out;
  }
  static Outcome Deadline() {
    Outcome out;
    out.status = "deadline_exceeded";
    return out;
  }
  static Outcome Overloaded(const std::string& message) {
    Outcome out;
    out.status = "overloaded";
    out.error_message = message;
    return out;
  }
};

/// Size guard for the minimization pre-pass: CoreOf is worst-case
/// exponential, so only queries comfortably inside the guard are minimized
/// (larger ones still get verdict-cached under their plain canonical hash).
bool SmallEnoughToMinimize(const UnionQuery& ucq) {
  if (ucq.disjuncts().size() > 16) return false;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    if (cq.atoms().size() > 24) return false;
  }
  return true;
}

/// A request after JSON decoding and input parsing, carrying everything
/// the execution phase needs plus the canonical work key that batch-level
/// coalescing groups by.
struct Prepared {
  std::string id_json = "null";  // rendered echo of the "id" field
  std::string op;
  Clock::time_point admitted{};
  std::uint64_t deadline_ms = 0;
  bool has_deadline = false;

  std::optional<DatalogProgram> program;
  std::optional<UnionQuery> query;
  std::optional<Database> database;

  // Coalescing key: (op, program-or-0, query-or-database hash).
  bool coalescable = false;
  std::uint64_t key1 = 0;
  std::uint64_t key2 = 0;

  bool done = false;  // `outcome` already decided during prepare
  Outcome outcome;

  bool Expired() const {
    if (!has_deadline) return false;
    if (deadline_ms == 0) return true;  // deterministic "already expired" hook
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - admitted);
    return static_cast<std::uint64_t>(elapsed.count()) >= deadline_ms;
  }
};

/// Renders one response line (schema v1). `cache` is the marker to report
/// (a follower reports "coalesced" over its leader's outcome), and
/// `elapsed_us` is measured by the caller so followers report their own
/// latency.
std::string RenderResponse(const std::string& id_json, const std::string& op,
                           const Outcome& outcome, const std::string& cache,
                           std::uint64_t elapsed_us) {
  std::string out = "{\"schema_version\":1,\"id\":";
  out.append(id_json).append(",\"op\":\"");
  JsonEscape(op, &out);
  out.append("\",\"status\":\"").append(outcome.status);
  out.append("\",\"cache\":\"").append(cache);
  out.append("\",\"elapsed_us\":").append(std::to_string(elapsed_us));
  if (outcome.status == "ok") {
    out.append(",\"result\":")
        .append(outcome.result_json.empty() ? "{}" : outcome.result_json);
  } else {
    out.append(",\"error\":{\"code\":\"");
    JsonEscape(outcome.error_code.empty() ? outcome.status : outcome.error_code,
               &out);
    out.append("\",\"message\":\"");
    JsonEscape(outcome.error_message, &out);
    out.append("\"}");
  }
  out += '}';
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), pool_(std::make_shared<Interner>()), cache_([&] {
        PlanCacheConfig config = options.cache;
        config.obs = options.obs;
        return config;
      }()) {}

Server::~Server() = default;

ServerStats Server::stats() const {
  ServerStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.ok = ok_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  out.overloaded = overloaded_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  return out;
}

namespace {

/// Decodes and input-parses one request line into a Prepared; an eval
/// request's database is parsed straight into the server's value `pool`.
/// Never runs an engine; every early exit fills `outcome` and sets `done`.
void PrepareRequest(const std::string& line, const ServerOptions& options,
                    const std::shared_ptr<Interner>& pool, Prepared* p) {
  p->admitted = Clock::now();
  if (options.default_deadline_ms > 0) {
    p->has_deadline = true;
    p->deadline_ms = options.default_deadline_ms;
  }
  if (line.size() > options.max_request_bytes) {
    p->done = true;
    p->outcome = Outcome::Overloaded(
        "request exceeds max_request_bytes (" +
        std::to_string(options.max_request_bytes) + ")");
    return;
  }
  ObsSpan span(options.obs, "server/parse", "server");
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    p->done = true;
    p->outcome = Outcome::Error(parsed.status());
    return;
  }
  if (!parsed->is_object()) {
    p->done = true;
    p->outcome =
        Outcome::Error(InvalidArgumentError("request must be a JSON object"));
    return;
  }
  if (const JsonValue* id = parsed->Get("id");
      id != nullptr && (id->is_string() || id->is_number())) {
    p->id_json = id->Dump();
  }
  const JsonValue* op = parsed->Get("op");
  if (op == nullptr || !op->is_string()) {
    p->done = true;
    p->outcome = Outcome::Error(
        InvalidArgumentError("request needs a string \"op\" field"));
    return;
  }
  p->op = op->string_value();
  if (const JsonValue* deadline = parsed->Get("deadline_ms");
      deadline != nullptr) {
    if (!deadline->is_number() || deadline->number_value() < 0) {
      p->done = true;
      p->outcome = Outcome::Error(
          InvalidArgumentError("\"deadline_ms\" must be a number >= 0"));
      return;
    }
    p->has_deadline = true;
    // Saturate: casting a double >= 2^64 to uint64 is undefined (and in
    // practice wrapped to the "already expired" 0), while a deadline that
    // large means no practical deadline at all.
    const double ms = deadline->number_value();
    p->deadline_ms = ms >= 0x1p64 ? std::numeric_limits<std::uint64_t>::max()
                                  : static_cast<std::uint64_t>(ms);
  }

  auto text_field = [&](const char* name) -> const std::string* {
    const JsonValue* v = parsed->Get(name);
    return (v != nullptr && v->is_string()) ? &v->string_value() : nullptr;
  };
  auto fail = [&](Status status) {
    p->done = true;
    p->outcome = Outcome::Error(std::move(status));
  };

  if (p->op == "containment" || p->op == "analyze") {
    const std::string* query_text = text_field("query");
    if (query_text == nullptr) {
      return fail(InvalidArgumentError("\"" + p->op +
                                       "\" needs a string \"query\" field"));
    }
    auto query = ParseUcq(*query_text);
    if (!query.ok()) return fail(query.status());
    p->query = std::move(*query);
    const std::string* program_text = text_field("program");
    if (program_text == nullptr && p->op == "containment") {
      return fail(InvalidArgumentError(
          "\"containment\" needs a string \"program\" field"));
    }
    if (program_text != nullptr) {
      auto program = ParseProgram(*program_text);
      if (!program.ok()) return fail(program.status());
      p->program = std::move(*program);
      p->key1 = analysis::CanonicalProgramHash(*p->program);
    }
    p->key2 = analysis::CanonicalQueryHash(*p->query);
    p->coalescable = true;
  } else if (p->op == "eval") {
    const std::string* program_text = text_field("program");
    const std::string* db_text = text_field("database");
    if (program_text == nullptr || db_text == nullptr) {
      return fail(InvalidArgumentError(
          "\"eval\" needs string \"program\" and \"database\" fields"));
    }
    auto program = ParseProgram(*program_text);
    if (!program.ok()) return fail(program.status());
    auto database = ParseDatabase(*db_text, pool);
    if (!database.ok()) return fail(database.status());
    p->program = std::move(*program);
    p->database = std::move(*database);
    p->key1 = analysis::CanonicalProgramHash(*p->program);
    p->key2 = analysis::CanonicalDatabaseHash(*p->database);
    p->coalescable = true;
  } else {
    return fail(InvalidArgumentError("unknown op \"" + p->op + "\""));
  }
  if (p->Expired()) {
    p->done = true;
    p->outcome = Outcome::Deadline();
  }
}

/// Containment: minimize Θ, consult the verdict cache under the minimized
/// canonical hash, run the routed engines on a miss. An already minimal Θ
/// (the common case) keeps the request's query and key: no copy, no second
/// hash.
Outcome RunContainment(const ServerOptions& options, PlanCache& cache,
                       Prepared& p) {
  const DatalogProgram& program = *p.program;
  const UnionQuery* theta = &*p.query;
  std::uint64_t query_hash = p.key2;

  std::optional<UnionQuery> minimized;
  if (options.minimize_queries && SmallEnoughToMinimize(*p.query)) {
    ObsSpan span(options.obs, "server/minimize", "server");
    auto result = MinimizeUnionQuery(*p.query);
    // Minimization is an optimization: on any error keep the original.
    if (result.ok() && result->has_value()) {
      minimized = std::move(**result);
      theta = &*minimized;
      query_hash = analysis::CanonicalQueryHash(*minimized);
    }
  }

  // The response marker reports "hit" only for entries that predate the
  // batch: an entry inserted by a concurrently running work item (another
  // containment whose query minimized to the same core) is still reused,
  // but marked "miss" so the marker never depends on how the batch was
  // scheduled.
  const PlanKey verdict_key{p.key1, query_hash};
  bool stable = false;
  std::optional<CachedVerdict> verdict =
      cache.LookupVerdict(verdict_key, &stable);
  const std::string cache_marker = stable ? "hit" : "miss";
  if (!verdict.has_value()) {
    if (p.Expired()) return Outcome::Deadline();

    // The router decides the route by the ACk engine's GYO pass; no
    // AnalysisReport is built on this path.
    ObsSpan span(options.obs, "server/engine", "server");
    RouterOptions router;
    router.obs = options.obs;
    // A verdict miss on a repeated Π still reuses the frozen kind-space
    // artifact: the general engine skips straight to the Θ-dependent
    // fixpoint over the memoized expansion.
    router.artifact_cache = &cache.artifacts();
    router.general.exec.threads = options.engine_threads;
    auto routed = DecideContainment(program, *theta, router);
    if (!routed.ok()) return Outcome::Error(routed.status());

    CachedVerdict built;
    built.contained = routed->answer.contained;
    built.route = routed->route;
    built.ack_level = routed->ack_level;
    if (routed->answer.witness.has_value()) {
      built.witness = routed->answer.witness->ToString();
      built.counterexample_db =
          CanonicalDatabase(*routed->answer.witness).ToString();
    }
    cache.InsertVerdict(verdict_key, built);
    verdict = std::move(built);
  }

  Outcome out;
  out.cache = cache_marker;
  out.result_json = "{\"contained\":";
  out.result_json += verdict->contained ? "true" : "false";
  out.result_json +=
      ",\"route\":\"" + std::string(WireRouteName(verdict->route)) + "\"";
  out.result_json += ",\"ack_level\":" + std::to_string(verdict->ack_level);
  if (verdict->witness.has_value()) {
    out.result_json += ",\"witness\":\"" + JsonEscape(*verdict->witness) + "\"";
  }
  if (verdict->counterexample_db.has_value()) {
    out.result_json += ",\"counterexample_db\":\"" +
                       JsonEscape(*verdict->counterexample_db) + "\"";
  }
  out.result_json += "}";
  return out;
}

/// The eval response body around a rendered `tuples` array.
Outcome EvalOutcome(const Prepared& p, const std::string& cache_marker,
                    const CachedEval& eval) {
  Outcome out;
  out.cache = cache_marker;
  out.result_json = "{\"goal\":\"";
  JsonEscape(p.program->goal_predicate(), &out.result_json);
  out.result_json.append("\",\"tuples\":").append(eval.tuples_json);
  out.result_json += '}';
  return out;
}

/// Evaluation: Π(D) keyed by (program, canonical database) hashes. The
/// request's database was parsed into the server's shared value pool, so
/// it is evaluated as it stands and repeated databases re-use interned
/// values across requests. A miss renders the ranked answer (no Tuple is
/// built), answers from the fresh entry and then moves it into the cache.
Outcome RunEval(const ServerOptions& options, PlanCache& cache, Prepared& p) {
  const PlanKey key{p.key1, p.key2};
  bool stable = false;
  std::optional<CachedEval> cached = cache.LookupEval(key, &stable);
  const std::string cache_marker = stable ? "hit" : "miss";
  if (cached.has_value()) return EvalOutcome(p, cache_marker, *cached);
  if (p.Expired()) return Outcome::Deadline();
  ObsSpan span(options.obs, "server/engine", "server");
  EvalOptions eval;
  eval.exec.threads = options.engine_threads;
  eval.obs = options.obs;
  auto answer = EvaluateGoalAnswer(*p.program, *p.database, eval);
  if (!answer.ok()) return Outcome::Error(answer.status());
  CachedEval fresh(*answer);
  Outcome out = EvalOutcome(p, cache_marker, fresh);
  cache.InsertEval(key, std::move(fresh));
  return out;
}

/// Analysis: the AnalysisReport itself is the product; cached like the
/// verdicts, rendered as its schema-v1 JSON.
Outcome RunAnalyze(const ServerOptions& options, PlanCache& cache,
                   Prepared& p) {
  // Only analyze requests fill the analysis shard. Hit/miss uses the
  // epoch-stable flag like every other shard, so the marker never depends
  // on how a batch was scheduled.
  const PlanKey key{p.key1, p.key2};
  bool stable = false;
  std::optional<analysis::AnalysisReport> report =
      cache.LookupAnalysis(key, &stable);
  const std::string cache_marker = stable ? "hit" : "miss";
  if (!report.has_value()) {
    if (p.Expired()) return Outcome::Deadline();
    ObsSpan span(options.obs, "server/engine", "server");
    analysis::RoutingOptions routing;
    routing.use_cache = false;
    routing.obs = options.obs;
    report = p.program.has_value()
                 ? analysis::AnalyzeForRouting(*p.program, *p.query, routing)
                 : analysis::AnalyzeForRouting(*p.query, routing);
    cache.InsertAnalysis(key, *report);
  }
  Outcome out;
  out.cache = cache_marker;
  out.result_json = "{\"report\":" + report->ToJson() + "}";
  return out;
}

}  // namespace

std::vector<std::string> Server::HandleChunk(
    const std::vector<std::string>& lines) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (MetricRegistry* metrics = ObsMetrics(options_.obs)) {
    metrics->Add("server.batches", 1);
  }
  ObsSpan batch_span(options_.obs, "server/batch", "server");
  batch_span.AddArg("requests", lines.size());
  // New cache epoch: only entries that predate this batch count as "hit"
  // in response markers, so markers cannot depend on the schedule of the
  // batch's own insertions.
  cache_.BeginEpoch();

  const std::size_t n = lines.size();
  std::vector<Prepared> prepared(n);
  ExecContext exec;
  exec.threads = options_.threads;
  // Phase 1: decode + input-parse every request (embarrassingly parallel).
  ParallelFor(exec, n,
              [&](std::size_t i) {
                PrepareRequest(lines[i], options_, pool_, &prepared[i]);
              });

  // Phase 2: group by canonical work key; the first occurrence leads.
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, std::size_t>
      leader_of;
  std::vector<std::size_t> leader(n);
  std::vector<std::size_t> leaders;
  for (std::size_t i = 0; i < n; ++i) {
    if (prepared[i].done) continue;
    if (!prepared[i].coalescable) {
      leader[i] = i;
      leaders.push_back(i);
      continue;
    }
    auto [it, inserted] = leader_of.try_emplace(
        std::make_tuple(prepared[i].op, prepared[i].key1, prepared[i].key2), i);
    leader[i] = it->second;
    if (inserted) leaders.push_back(i);
  }
  batch_span.AddArg("unique", leaders.size());

  // Phase 3: run the unique work items over the pool.
  ParallelFor(exec, leaders.size(), [&](std::size_t k) {
    Prepared& p = prepared[leaders[k]];
    ObsSpan span(options_.obs, "server/request", "server");
    if (p.op == "containment") {
      p.outcome = RunContainment(options_, cache_, p);
    } else if (p.op == "eval") {
      p.outcome = RunEval(options_, cache_, p);
    } else {
      p.outcome = RunAnalyze(options_, cache_, p);
    }
    p.done = true;
  });

  // Phase 4: render in request order; followers render their leader's
  // outcome with the "coalesced" cache marker. Counter names are built
  // only when a registry is attached.
  static const std::string kCoalesced = "coalesced";
  MetricRegistry* const metrics = ObsMetrics(options_.obs);
  std::vector<std::string> responses;
  responses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Prepared& p = prepared[i];
    const Outcome& outcome = p.done ? p.outcome : prepared[leader[i]].outcome;
    const std::string* cache = &outcome.cache;
    if (!p.done && outcome.status == "ok") {
      cache = &kCoalesced;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      if (metrics != nullptr) metrics->Add("server.coalesced", 1);
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (metrics != nullptr) metrics->Add("server.requests", 1);
    if (outcome.status == "ok") {
      ok_.fetch_add(1, std::memory_order_relaxed);
    } else if (outcome.status == "deadline_exceeded") {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    } else if (outcome.status == "overloaded") {
      overloaded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
    if (metrics != nullptr) {
      metrics->Add("server.responses." + outcome.status, 1);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - p.admitted);
    static const std::string kUnknownOp = "unknown";
    responses.push_back(RenderResponse(
        p.id_json, p.op.empty() ? kUnknownOp : p.op, outcome, *cache,
        static_cast<std::uint64_t>(elapsed.count())));
  }
  return responses;
}

std::vector<std::string> Server::HandleBatch(
    const std::vector<std::string>& lines) {
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  for (std::size_t start = 0; start < lines.size();
       start += options_.max_batch) {
    const std::size_t end =
        std::min(lines.size(), start + options_.max_batch);
    std::vector<std::string> chunk(lines.begin() + start, lines.begin() + end);
    std::vector<std::string> out = HandleChunk(chunk);
    responses.insert(responses.end(), std::make_move_iterator(out.begin()),
                     std::make_move_iterator(out.end()));
  }
  return responses;
}

std::string Server::HandleLine(const std::string& line) {
  return HandleChunk({line}).front();
}

void Server::ServeStream(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> batch;
    if (!line.empty()) batch.push_back(line);
    // Greedily take already-buffered lines so replay files form full
    // batches while an interactive session stays at batch size 1.
    while (batch.size() < options_.max_batch && in.rdbuf()->in_avail() > 0 &&
           std::getline(in, line)) {
      if (!line.empty()) batch.push_back(line);
    }
    if (batch.empty()) continue;
    for (const std::string& response : HandleChunk(batch)) {
      out << response << "\n";
    }
    out.flush();
  }
}

}  // namespace server
}  // namespace qcont
