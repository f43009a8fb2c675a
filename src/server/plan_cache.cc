#include "server/plan_cache.h"

#include "obs/metrics.h"
#include "server/json.h"

namespace qcont {
namespace server {

CachedEval::CachedEval(const std::vector<Tuple>& tuples) : tuples_json("[") {
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples_json += i > 0 ? ",[" : "[";
    for (std::size_t j = 0; j < tuples[i].size(); ++j) {
      if (j > 0) tuples_json += ",";
      tuples_json += '"';
      JsonEscape(tuples[i][j], &tuples_json);
      tuples_json += '"';
    }
    tuples_json += "]";
  }
  tuples_json += "]";
}

// Each distinct name is escaped and quoted once into `quoted`; every cell
// then appends its name's piece, into an output reserved to its final size.
CachedEval::CachedEval(const GoalAnswer& answer) {
  const std::size_t k = answer.names.size();
  std::string quoted;
  std::vector<std::size_t> start(k + 1);
  for (std::size_t r = 0; r < k; ++r) {
    start[r] = quoted.size();
    quoted += '"';
    JsonEscape(*answer.names[r], &quoted);
    quoted += '"';
  }
  start[k] = quoted.size();
  const std::size_t n = answer.num_rows;
  std::size_t size = 2 + 2 * n;  // brackets
  if (n > 0) size += n - 1;      // row separators
  if (answer.arity > 0) size += n * (answer.arity - 1);  // cell separators
  for (const std::uint32_t rank : answer.rows) {
    size += start[rank + 1] - start[rank];
  }
  tuples_json.reserve(size);
  tuples_json += '[';
  const std::uint32_t* cell = answer.rows.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) tuples_json += ',';
    tuples_json += '[';
    for (std::size_t j = 0; j < answer.arity; ++j, ++cell) {
      if (j > 0) tuples_json += ',';
      tuples_json.append(quoted, start[*cell], start[*cell + 1] - start[*cell]);
    }
    tuples_json += ']';
  }
  tuples_json += ']';
}

PlanCache::PlanCache(PlanCacheConfig config)
    : obs_(config.obs),
      verdicts_(config.verdict_capacity),
      reports_(config.analysis_capacity),
      cores_(config.core_capacity),
      evals_(config.eval_capacity),
      artifacts_(ProgramArtifactCacheConfig{config.artifact_capacity,
                                            config.obs}) {}

// Counter names are built only when a registry is attached.
void PlanCache::Publish(const char* kind, bool hit) const {
  MetricRegistry* const metrics = ObsMetrics(obs_);
  if (metrics == nullptr) return;
  metrics->Add(std::string("server.cache.") + kind + (hit ? ".hits" : ".misses"),
               1);
}

void PlanCache::PublishInsert(const char* kind, std::uint64_t evicted) const {
  MetricRegistry* const metrics = ObsMetrics(obs_);
  if (metrics == nullptr) return;
  metrics->Add(std::string("server.cache.") + kind + ".insertions", 1);
  if (evicted > 0) {
    metrics->Add(std::string("server.cache.") + kind + ".evictions", evicted);
  }
  metrics->SetGauge("server.cache.entries",
                    static_cast<std::uint64_t>(stats().entries));
}

void PlanCache::BeginEpoch() {
  verdicts_.BeginEpoch();
  reports_.BeginEpoch();
  cores_.BeginEpoch();
  evals_.BeginEpoch();
  artifacts_.BeginEpoch();
}

std::optional<CachedVerdict> PlanCache::LookupVerdict(const PlanKey& key,
                                                      bool* stable) {
  auto out = verdicts_.Lookup(key, stable);
  Publish("verdict", out.has_value());
  return out;
}

void PlanCache::InsertVerdict(const PlanKey& key, CachedVerdict verdict) {
  PublishInsert("verdict", verdicts_.Insert(key, std::move(verdict)));
}

std::optional<analysis::AnalysisReport> PlanCache::LookupAnalysis(
    const PlanKey& key, bool* stable) {
  auto out = reports_.Lookup(key, stable);
  Publish("analysis", out.has_value());
  return out;
}

void PlanCache::InsertAnalysis(const PlanKey& key,
                               analysis::AnalysisReport report) {
  PublishInsert("analysis", reports_.Insert(key, std::move(report)));
}

std::optional<UnionQuery> PlanCache::LookupCoreUcq(std::uint64_t query_hash,
                                                   bool* stable) {
  auto out = cores_.Lookup(query_hash, stable);
  Publish("core", out.has_value());
  return out;
}

void PlanCache::InsertCoreUcq(std::uint64_t query_hash, UnionQuery core) {
  PublishInsert("core", cores_.Insert(query_hash, std::move(core)));
}

std::optional<CachedEval> PlanCache::LookupEval(const PlanKey& key,
                                                bool* stable) {
  auto out = evals_.Lookup(key, stable);
  Publish("eval", out.has_value());
  return out;
}

void PlanCache::InsertEval(const PlanKey& key, CachedEval eval) {
  PublishInsert("eval", evals_.Insert(key, std::move(eval)));
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out = verdicts_.stats();
  out += reports_.stats();
  out += cores_.stats();
  out += evals_.stats();
  return out;
}

void PlanCache::Clear() {
  verdicts_.Clear();
  reports_.Clear();
  cores_.Clear();
  evals_.Clear();
  artifacts_.Clear();
}

}  // namespace server
}  // namespace qcont
