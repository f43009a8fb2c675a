#include "core/datalog_ucq.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "base/interner.h"
#include "base/thread_pool.h"
#include "core/instantiate.h"
#include "core/program_artifact_cache.h"

namespace qcont {

namespace {

using internal::InstIdbAtom;
using internal::InstRule;
using internal::InstRulePrecomp;
using internal::KindSpace;

// ---------------------------------------------------------------------------
// UCQ preprocessing: integer-encoded view of each disjunct.
// ---------------------------------------------------------------------------

struct DisjunctInfo {
  std::vector<std::string> preds;           // per atom
  std::vector<int> atom_pred_ids;           // per atom: artifact EDB pred id
  std::vector<std::vector<int>> atom_vars;  // per atom: variable ids per term
  std::vector<std::uint64_t> var_atoms;     // per var: atoms using it
  std::vector<bool> is_free;                // per var
  std::vector<int> head;                    // var id per head position
  int num_vars = 0;
  int num_atoms = 0;
  std::uint64_t full_mask = 0;
};

Result<DisjunctInfo> BuildDisjunctInfo(const ConjunctiveQuery& cq) {
  DisjunctInfo info;
  std::unordered_map<std::string, int> var_index;
  auto var_id = [&](const std::string& name) {
    auto [it, inserted] = var_index.emplace(name, info.num_vars);
    if (inserted) ++info.num_vars;
    return it->second;
  };
  info.num_atoms = static_cast<int>(cq.atoms().size());
  if (info.num_atoms > 64) {
    return InvalidArgumentError("UCQ disjuncts are limited to 64 atoms");
  }
  for (int a = 0; a < info.num_atoms; ++a) {
    const Atom& atom = cq.atoms()[a];
    info.preds.push_back(atom.predicate());
    std::vector<int> vars;
    for (const Term& t : atom.terms()) {
      if (!t.is_variable()) {
        return InvalidArgumentError(
            "the containment engines require constant-free queries");
      }
      vars.push_back(var_id(t.name()));
    }
    info.atom_vars.push_back(std::move(vars));
  }
  if (info.num_vars > 120) {
    return InvalidArgumentError("UCQ disjuncts are limited to 120 variables");
  }
  info.var_atoms.assign(info.num_vars, 0);
  for (int a = 0; a < info.num_atoms; ++a) {
    for (int v : info.atom_vars[a]) info.var_atoms[v] |= 1ULL << a;
  }
  info.is_free.assign(info.num_vars, false);
  for (const Term& t : cq.head()) {
    int v = var_id(t.name());
    info.head.push_back(v);
    info.is_free[v] = true;
  }
  info.full_mask =
      info.num_atoms == 64 ? ~0ULL : ((1ULL << info.num_atoms) - 1);
  return info;
}

// ---------------------------------------------------------------------------
// Partial-match elements and subtree types.
// ---------------------------------------------------------------------------

// An element (A, f): A = bitmask of matched atoms, f = per-variable interface
// position (index into the subtree root's head tuple) or -1. Positions are
// plain ints, so heads of any arity are addressable.
struct Element {
  std::uint64_t atoms = 0;
  std::vector<int> f;

  friend bool operator<(const Element& a, const Element& b) {
    if (a.atoms != b.atoms) return a.atoms < b.atoms;
    return a.f < b.f;
  }
};

using ElementSet = std::set<Element>;

// Appends interface position `x` (-1: unmapped) to a canonical form, one
// byte when small and an escape byte plus four bytes otherwise, so the
// encoding is injective for every head arity.
void AppendPosition(std::string* out, int x) {
  const auto v = static_cast<std::uint32_t>(x + 1);
  if (v < 255) {
    out->push_back(static_cast<char>(v));
    return;
  }
  out->push_back(static_cast<char>(255));
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

// The exact set of realizable elements of a subtree, per disjunct.
struct SubtreeType {
  std::vector<ElementSet> per_disjunct;

  std::string Canonical() const {
    std::string out;
    for (std::size_t d = 0; d < per_disjunct.size(); ++d) {
      out += '#';
      out += std::to_string(d);
      out += ';';
      for (const Element& e : per_disjunct[d]) {
        out += std::to_string(e.atoms);
        out += ':';
        for (int x : e.f) AppendPosition(&out, x);
        out += ',';
      }
    }
    return out;
  }

  std::uint64_t NumElements() const {
    std::uint64_t n = 0;
    for (const ElementSet& s : per_disjunct) n += s.size();
    return n;
  }
};

struct Provenance {
  int rule_pos = -1;
  std::vector<int> child_types;  // type index per idb atom
};

// Per-kind engine state (parallel to KindSpace ids). Canonical forms are
// interned: membership plus id assignment in one hash probe, with the
// strings stored once in the interner's arena instead of node-per-string
// in a std::set.
struct KindState {
  std::vector<SubtreeType> types;
  std::vector<Provenance> provenance;
  Interner canon;
};

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

class TypeEngine {
 public:
  // The artifact carries the frozen Π-only state (fully expanded kind
  // space, root kinds, probe tables); the engine holds only the
  // Θ-dependent fixpoint state and never mutates the artifact, so one
  // artifact serves concurrent engines.
  TypeEngine(std::shared_ptr<const ProgramArtifact> artifact,
             const UnionQuery& ucq, TypeEngineStats* stats,
             const TypeEngineOptions& options)
      : artifact_(std::move(artifact)),
        ucq_(ucq),
        stats_(stats),
        options_(options),
        kinds_(artifact_->kinds()) {}

  Result<ContainmentAnswer> Run() {
    ObsSpan run_span(options_.obs, "typeengine/run", "core");
    for (const ConjunctiveQuery& cq : ucq_.disjuncts()) {
      QCONT_ASSIGN_OR_RETURN(DisjunctInfo info, BuildDisjunctInfo(cq));
      info.atom_pred_ids.reserve(info.preds.size());
      for (const std::string& pred : info.preds) {
        info.atom_pred_ids.push_back(artifact_->EdbPredId(pred));
      }
      disjuncts_.push_back(std::move(info));
    }
    const std::vector<int>& root_kinds = artifact_->root_kinds();
    state_.resize(kinds_.NumKinds());
    cursors_.resize(kinds_.NumKinds());
    for (std::size_t k = 0; k < kinds_.NumKinds(); ++k) {
      cursors_[k].resize(kinds_.RulesOf(static_cast<int>(k)).size());
    }
    Status fixpoint = Fixpoint();
    run_.kinds = kinds_.NumKinds();
    for (const KindState& k : state_) {
      run_.types += k.types.size();
      for (const SubtreeType& t : k.types) run_.elements += t.NumElements();
    }
    FlushStats();
    if (!fixpoint.ok()) return fixpoint;
    // Decision: every reachable root type must contain a complete element.
    for (int kind_id : root_kinds) {
      const KindState& kind = state_[kind_id];
      for (std::size_t t = 0; t < kind.types.size(); ++t) {
        if (!HasCompleteElement(kind.types[t],
                                kinds_.KeyOf(kind_id).pattern)) {
          ContainmentAnswer answer;
          answer.contained = false;
          answer.witness = internal::BuildWitnessCq(
              kinds_, kind_id, static_cast<long>(t),
              [this](int k, long token) {
                const Provenance& prov = state_[k].provenance[token];
                internal::WitnessNode node;
                node.rule = &kinds_.RulesOf(k)[prov.rule_pos];
                node.child_tokens.assign(prov.child_types.begin(),
                                         prov.child_types.end());
                return node;
              });
          return answer;
        }
      }
    }
    ContainmentAnswer answer;
    answer.contained = true;
    return answer;
  }

 private:
  // Publishes this run's counters to the caller's sink. kinds/types/
  // elements are per-run snapshots, so they overwrite whatever a reused
  // TypeEngineStats held from a previous call (the pre-pool assignment
  // semantics); combos/enumeration_steps keep accumulating across calls,
  // matching DatalogEvalStats.
  void FlushStats() {
    // Registry mirror of the same run-local deltas/snapshots: counters for
    // the accumulating fields, gauges for the per-run snapshot fields. Runs
    // on every exit path (Run flushes before returning fixpoint errors), so
    // legacy-vs-registry parity holds even when a budget trips.
    if (MetricRegistry* metrics = ObsMetrics(options_.obs)) {
      metrics->Add("typeengine.combos", run_.combos);
      metrics->Add("typeengine.enumeration_steps", run_.enumeration_steps);
      metrics->SetGauge("typeengine.kinds", run_.kinds);
      metrics->SetGauge("typeengine.types", run_.types);
      metrics->SetGauge("typeengine.elements", run_.elements);
    }
    if (stats_ == nullptr) return;
    stats_->Merge(run_);
  }

  // Per-(kind, rule) frontier of the combination space already enumerated:
  // every combo with all child indices below `prev` has been processed.
  struct RuleCursor {
    bool ran = false;        // base rules (no IDB child) run exactly once
    std::vector<int> prev;   // per-child type count at the last enumeration
  };

  // One fixpoint task: enumerate the combos of (kind, rule_pos) that are
  // new this round, i.e. product([0,cur)) \ product([0,prev)).
  struct ComboTask {
    int kind = -1;
    int rule_pos = -1;
    std::vector<int> prev;
    std::vector<int> cur;
  };

  struct ComboResult {
    std::vector<int> combo;
    SubtreeType type;
    std::string canon;
  };

  struct TaskOutput {
    std::vector<ComboResult> results;
    TypeEngineStats stats;
  };

  // Least fixpoint over reachable types, processed in rounds. Each round
  // snapshots the per-kind type counts, fans the per-rule enumerations of
  // *new* combinations out over the pool (they read only the frozen type
  // tables of the snapshot), and merges the per-task buffers serially in
  // task order at the barrier — so type order, provenance, budget errors,
  // and counters are identical for every thread count. Every combination
  // over the final type sets is enumerated exactly once (the new-combo
  // ranges of a rule partition its combination space across rounds), which
  // replaces the seen-combination string set of the previous implementation
  // and its per-combo key allocations.
  Status Fixpoint() {
    std::uint64_t total_types = 0;
    std::uint64_t round = 0;
    while (true) {
      ObsSpan round_span(options_.obs, "typeengine/round", "core");
      round_span.AddArg("round", round++);
      std::vector<ComboTask> tasks;
      for (std::size_t k = 0; k < kinds_.NumKinds(); ++k) {
        const std::vector<InstRule>& rules =
            kinds_.RulesOf(static_cast<int>(k));
        for (std::size_t rp = 0; rp < rules.size(); ++rp) {
          const InstRule& rule = rules[rp];
          RuleCursor& cursor = cursors_[k][rp];
          if (rule.idb_atoms.empty() && cursor.ran) continue;
          ComboTask task;
          task.kind = static_cast<int>(k);
          task.rule_pos = static_cast<int>(rp);
          bool viable = true;
          for (const InstIdbAtom& child : rule.idb_atoms) {
            int count = static_cast<int>(state_[child.kind_id].types.size());
            if (count == 0) {
              viable = false;
              break;
            }
            task.cur.push_back(count);
          }
          if (!viable) continue;
          task.prev = cursor.ran ? cursor.prev
                                 : std::vector<int>(rule.idb_atoms.size(), 0);
          if (!rule.idb_atoms.empty() && task.prev == task.cur) continue;
          tasks.push_back(std::move(task));
        }
      }
      if (tasks.empty()) break;

      // Budget handed to each task: a task that exceeds it stops early; the
      // barrier merge below then necessarily trips the combo budget before
      // committing that task's (truncated) buffer, so early termination is
      // invisible in results and deterministic for every thread count.
      const std::uint64_t combo_budget =
          options_.max_combos > run_.combos ? options_.max_combos - run_.combos
                                            : 0;
      round_span.AddArg("tasks", tasks.size());
      std::vector<TaskOutput> outputs = ParallelMap<TaskOutput>(
          options_.exec, tasks.size(), [&](std::size_t t) {
            ObsSpan batch_span(options_.obs, "typeengine/combo_batch", "core");
            batch_span.AddArg("task", t);
            return RunComboTask(tasks[t], combo_budget);
          });

      // Barrier merge, serial and in task order.
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        const ComboTask& task = tasks[t];
        run_.combos += outputs[t].stats.combos;
        run_.enumeration_steps += outputs[t].stats.enumeration_steps;
        if (run_.combos > options_.max_combos) {
          return ResourceExhaustedError(
              "type-engine combination budget exceeded");
        }
        KindState& kind = state_[task.kind];
        for (ComboResult& r : outputs[t].results) {
          const std::size_t before = kind.canon.size();
          if (kind.canon.Intern(r.canon) != before) continue;  // seen before
          kind.types.push_back(std::move(r.type));
          Provenance prov;
          prov.rule_pos = task.rule_pos;
          prov.child_types = std::move(r.combo);
          kind.provenance.push_back(std::move(prov));
          ++total_types;
          if (total_types > options_.max_types) {
            return ResourceExhaustedError("type-engine type budget exceeded");
          }
        }
      }
      for (const ComboTask& task : tasks) {
        RuleCursor& cursor = cursors_[task.kind][task.rule_pos];
        cursor.ran = true;
        cursor.prev = task.cur;
      }
    }
    return Status::Ok();
  }

  // Enumerates the new combos of one task. The new region
  // product([0,cur)) \ product([0,prev)) is decomposed by pivot: the pivot
  // p is the first child whose index escapes the old box, so
  // c_j ∈ [0, prev_j) for j < p, c_p ∈ [prev_p, cur_p), c_j ∈ [0, cur_j)
  // for j > p — each new combo has exactly one pivot, hence is visited
  // exactly once, in a deterministic order.
  TaskOutput RunComboTask(const ComboTask& task, std::uint64_t budget) const {
    const InstRule& rule = kinds_.RulesOf(task.kind)[task.rule_pos];
    const InstRulePrecomp& pre = artifact_->precomp(task.kind, task.rule_pos);
    const std::size_t n = rule.idb_atoms.size();
    TaskOutput out;
    auto process = [&](const std::vector<int>& combo) {
      ++out.stats.combos;
      if (out.stats.combos > budget) return false;
      ComboResult r;
      r.combo = combo;
      r.type = ComputeType(rule, pre, combo, &out.stats);
      r.canon = r.type.Canonical();
      out.results.push_back(std::move(r));
      return true;
    };
    if (n == 0) {
      process({});
      return out;
    }
    std::vector<int> combo(n);
    for (std::size_t p = 0; p < n; ++p) {
      if (task.prev[p] == task.cur[p]) continue;
      bool empty = false;
      for (std::size_t j = 0; j < p; ++j) {
        if (task.prev[j] == 0) {
          empty = true;
          break;
        }
      }
      if (empty) continue;
      for (std::size_t j = 0; j < p; ++j) combo[j] = 0;
      combo[p] = task.prev[p];
      for (std::size_t j = p + 1; j < n; ++j) combo[j] = 0;
      while (true) {
        if (!process(combo)) return out;
        std::size_t pos = 0;
        while (pos < n) {
          int lo = pos == p ? task.prev[p] : 0;
          int hi = pos < p ? task.prev[pos] : task.cur[pos];
          if (++combo[pos] < hi) break;
          combo[pos] = lo;
          ++pos;
        }
        if (pos == n) break;
      }
    }
    return out;
  }

  SubtreeType ComputeType(const InstRule& rule, const InstRulePrecomp& pre,
                          const std::vector<int>& combo,
                          TypeEngineStats* stats) const {
    SubtreeType out;
    out.per_disjunct.resize(disjuncts_.size());
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      ComputeElements(rule, pre, combo, static_cast<int>(d), stats,
                      &out.per_disjunct[d]);
    }
    return out;
  }

  void ComputeElements(const InstRule& rule, const InstRulePrecomp& pre,
                       const std::vector<int>& combo, int d,
                       TypeEngineStats* stats, ElementSet* out) const {
    const DisjunctInfo& info = disjuncts_[d];
    std::vector<int> sigma(info.num_vars, -1);
    std::uint64_t base_atoms = 0;

    // Choose one element per child (sets always contain the empty element),
    // then extend with matches against this node's extensional atoms.
    std::function<void(std::size_t)> choose_child = [&](std::size_t j) {
      ++stats->enumeration_steps;
      if (j == rule.idb_atoms.size()) {
        MatchLevel(rule, pre, info, &sigma, base_atoms, 0, stats, out);
        return;
      }
      const InstIdbAtom& child = rule.idb_atoms[j];
      const ElementSet& options =
          state_[child.kind_id].types[combo[j]].per_disjunct[d];
      for (const Element& e : options) {
        std::vector<int> touched;
        bool ok = true;
        for (int v = 0; v < info.num_vars && ok; ++v) {
          if (e.f[v] < 0) continue;
          int w = child.terms[e.f[v]];
          if (sigma[v] == -1) {
            sigma[v] = w;
            touched.push_back(v);
          } else if (sigma[v] != w) {
            ok = false;
          }
        }
        if (ok) {
          std::uint64_t saved = base_atoms;
          base_atoms |= e.atoms;
          choose_child(j + 1);
          base_atoms = saved;
        }
        for (int v : touched) sigma[v] = -1;
      }
    };
    choose_child(0);
  }

  // DFS over the disjunct's atoms not yet covered: leave uncovered, or match
  // against one of this rule instance's extensional atoms. Candidate atoms
  // are screened by the artifact's dense predicate ids (same candidates,
  // same order as the string comparison they replace).
  void MatchLevel(const InstRule& rule, const InstRulePrecomp& pre,
                  const DisjunctInfo& info, std::vector<int>* sigma,
                  std::uint64_t atoms, int t, TypeEngineStats* stats,
                  ElementSet* out) const {
    ++stats->enumeration_steps;
    if (t == info.num_atoms) {
      EmitElement(pre, info, *sigma, atoms, out);
      return;
    }
    MatchLevel(rule, pre, info, sigma, atoms, t + 1, stats, out);
    if (atoms & (1ULL << t)) return;
    const int pred_id = info.atom_pred_ids[t];
    for (std::size_t a = 0; a < rule.edb_atoms.size(); ++a) {
      const std::vector<int>& terms = rule.edb_atoms[a].second;
      if (pre.edb_pred_ids[a] != pred_id ||
          terms.size() != info.atom_vars[t].size()) {
        continue;
      }
      std::vector<int> touched;
      bool ok = true;
      for (std::size_t i = 0; i < terms.size() && ok; ++i) {
        int v = info.atom_vars[t][i];
        if ((*sigma)[v] == -1) {
          (*sigma)[v] = terms[i];
          touched.push_back(v);
        } else if ((*sigma)[v] != terms[i]) {
          ok = false;
        }
      }
      if (ok) {
        MatchLevel(rule, pre, info, sigma, atoms | (1ULL << t), t + 1, stats,
                   out);
      }
      for (int v : touched) (*sigma)[v] = -1;
    }
  }

  void EmitElement(const InstRulePrecomp& pre, const DisjunctInfo& info,
                   const std::vector<int>& sigma, std::uint64_t atoms,
                   ElementSet* out) const {
    Element e;
    e.atoms = atoms;
    e.f.assign(info.num_vars, -1);
    for (int v = 0; v < info.num_vars; ++v) {
      std::uint64_t in_a = info.var_atoms[v] & atoms;
      if (!in_a) continue;
      bool live = info.is_free[v] || (info.var_atoms[v] & ~atoms) != 0;
      if (!live) continue;
      QCONT_CHECK_MSG(sigma[v] != -1, "live variable without binding");
      // head_pos is the precomputed first-occurrence scan of rule.head.
      const std::size_t w = static_cast<std::size_t>(sigma[v]);
      const int pos = w < pre.head_pos.size() ? pre.head_pos[w] : -1;
      if (pos < 0) return;  // live variable buried below the interface
      e.f[v] = pos;
    }
    out->insert(std::move(e));
  }

  // A complete element: all atoms matched, free variables mapped to the
  // correct distinguished positions (up to the root head's equalities).
  bool HasCompleteElement(const SubtreeType& type,
                          const std::vector<int>& pattern) const {
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      const DisjunctInfo& info = disjuncts_[d];
      if (info.head.size() != pattern.size()) continue;
      for (const Element& e : type.per_disjunct[d]) {
        if (e.atoms != info.full_mask) continue;
        bool ok = true;
        for (std::size_t i = 0; i < info.head.size() && ok; ++i) {
          int v = info.head[i];
          const int p = e.f[v];
          if (p < 0 || pattern[p] != pattern[i]) ok = false;
        }
        if (ok) return true;
      }
    }
    return false;
  }

  std::shared_ptr<const ProgramArtifact> artifact_;
  const UnionQuery& ucq_;
  TypeEngineStats* stats_;
  TypeEngineOptions options_;
  TypeEngineStats run_;

  std::vector<DisjunctInfo> disjuncts_;
  const KindSpace& kinds_;  // the artifact's frozen, fully-expanded space
  std::vector<KindState> state_;
  std::vector<std::vector<RuleCursor>> cursors_;
};

}  // namespace

Result<ContainmentAnswer> DatalogContainedInUcq(
    const DatalogProgram& program, const UnionQuery& ucq,
    TypeEngineStats* stats, const TypeEngineOptions& options) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  QCONT_RETURN_IF_ERROR(
      analysis::FirstError(analysis::CheckContainmentPair(program, ucq)));
  // Resolve the Π-only artifact: caller-provided, cache-fetched, or built
  // privately (the cold path). All three run the engine through the same
  // frozen-artifact code, so results and counters never depend on which
  // path was taken.
  std::shared_ptr<const ProgramArtifact> artifact = options.artifact;
  if (artifact == nullptr) {
    artifact = GetOrBuildArtifact(program, options.artifact_cache, options.obs);
  }
  TypeEngine engine(std::move(artifact), ucq, stats, options);
  return engine.Run();
}

}  // namespace qcont
