#include "core/program_artifact_cache.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "analysis/report.h"

namespace qcont {

namespace {

std::size_t VecBytes(const std::vector<int>& v) {
  return v.capacity() * sizeof(int);
}

std::size_t RuleBytes(const internal::InstRule& rule) {
  std::size_t n = sizeof(rule) + VecBytes(rule.head);
  for (const auto& [pred, terms] : rule.edb_atoms) {
    n += pred.size() + VecBytes(terms) + sizeof(terms);
  }
  for (const internal::InstIdbAtom& atom : rule.idb_atoms) {
    n += sizeof(atom) + VecBytes(atom.terms);
  }
  return n;
}

}  // namespace

std::shared_ptr<const ProgramArtifact> ProgramArtifact::Build(
    const DatalogProgram& program, const ObsContext* obs) {
  return Build(program, analysis::CanonicalProgramHash(program), obs);
}

std::shared_ptr<const ProgramArtifact> ProgramArtifact::Build(
    const DatalogProgram& program, std::uint64_t program_hash,
    const ObsContext* obs) {
  ObsSpan span(obs, "typeengine/artifact_build", "core");
  // Cannot use std::make_shared: the constructor is private and the object
  // is published as a shared_ptr-to-const.
  std::shared_ptr<ProgramArtifact> artifact(new ProgramArtifact());
  artifact->program_hash_ = program_hash;
  artifact->kinds_ = std::make_unique<internal::KindSpace>(program);
  // RootKinds discovers, transitively, every kind reachable from the goal
  // rules — after this call the space is fully expanded and never mutated
  // again (the engine only reads it), so it lets go of the caller's
  // program.
  artifact->root_kinds_ = artifact->kinds_->RootKinds();
  artifact->kinds_->Freeze();

  // Dense EDB predicate ids in first-seen rule order (deterministic for a
  // fixed program text; the ids are artifact-local, never compared across
  // artifacts).
  for (const Rule& rule : program.rules()) {
    for (const Atom& atom : rule.body) {
      if (!program.IsIntensional(atom.predicate())) {
        artifact->edb_pred_ids_.emplace(
            atom.predicate(),
            static_cast<int>(artifact->edb_pred_ids_.size()));
      }
    }
  }

  const internal::KindSpace& kinds = *artifact->kinds_;
  std::size_t bytes = sizeof(ProgramArtifact);
  std::size_t inst_rules = 0;
  artifact->precomp_.resize(kinds.NumKinds());
  for (std::size_t k = 0; k < kinds.NumKinds(); ++k) {
    const std::vector<internal::InstRule>& rules =
        kinds.RulesOf(static_cast<int>(k));
    inst_rules += rules.size();
    bytes += VecBytes(kinds.KeyOf(static_cast<int>(k)).pattern);
    std::vector<internal::InstRulePrecomp>& pre = artifact->precomp_[k];
    pre.resize(rules.size());
    for (std::size_t rp = 0; rp < rules.size(); ++rp) {
      const internal::InstRule& rule = rules[rp];
      pre[rp].edb_pred_ids.reserve(rule.edb_atoms.size());
      for (const auto& [pred, terms] : rule.edb_atoms) {
        pre[rp].edb_pred_ids.push_back(artifact->EdbPredId(pred));
      }
      int max_rep = -1;
      for (int w : rule.head) max_rep = std::max(max_rep, w);
      pre[rp].head_pos.assign(static_cast<std::size_t>(max_rep + 1), -1);
      for (std::size_t p = 0; p < rule.head.size(); ++p) {
        int& pos = pre[rp].head_pos[rule.head[p]];
        if (pos < 0) pos = static_cast<int>(p);
      }
      bytes += RuleBytes(rule) + VecBytes(pre[rp].edb_pred_ids) +
               VecBytes(pre[rp].head_pos);
    }
  }
  artifact->bytes_ = bytes;
  span.AddArg("kinds", kinds.NumKinds());
  span.AddArg("inst_rules", inst_rules);
  span.AddArg("bytes", bytes);
  return artifact;
}

int ProgramArtifact::EdbPredId(const std::string& pred) const {
  auto it = edb_pred_ids_.find(pred);
  return it != edb_pred_ids_.end() ? it->second : -1;
}

ProgramArtifactCache::ProgramArtifactCache(ProgramArtifactCacheConfig config)
    : config_(config), lru_(config.capacity) {}

std::shared_ptr<const ProgramArtifact> ProgramArtifactCache::GetOrBuild(
    const DatalogProgram& program, bool* stable) {
  std::promise<std::shared_ptr<const ProgramArtifact>> promise;
  const std::uint64_t hash = analysis::CanonicalProgramHash(program);
  auto [future, found] =
      lru_.FindOrInsert(hash, promise.get_future().share(), stable);
  ObsCount(config_.obs,
           found ? "typeengine.artifact.hits" : "typeengine.artifact.misses",
           1);
  // A found entry may still be under construction by the thread that
  // inserted it; get() blocks until that build completes.
  if (found) return future.get();
  // Waiters on this entry keep their shared_future even if it is evicted
  // or cleared before the build completes.
  std::shared_ptr<const ProgramArtifact> artifact =
      ProgramArtifact::Build(program, hash, config_.obs);
  promise.set_value(artifact);
  if (config_.capacity > 0) {
    ObsGauge(config_.obs, "typeengine.artifact.bytes", stats().bytes);
  }
  return artifact;
}

void ProgramArtifactCache::BeginEpoch() { lru_.BeginEpoch(); }

ProgramArtifactCacheStats ProgramArtifactCache::stats() const {
  std::size_t bytes = 0;
  LruCacheStats counts = lru_.stats([&](const ArtifactFuture& artifact) {
    if (artifact.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      bytes += artifact.get()->ApproxBytes();
    }
  });
  return {counts, bytes};
}

void ProgramArtifactCache::Clear() {
  lru_.Clear();
  ObsGauge(config_.obs, "typeengine.artifact.bytes", 0);
}

std::shared_ptr<const ProgramArtifact> GetOrBuildArtifact(
    const DatalogProgram& program, ProgramArtifactCache* cache,
    const ObsContext* obs) {
  if (cache != nullptr) return cache->GetOrBuild(program);
  return ProgramArtifact::Build(program, obs);
}

}  // namespace qcont
