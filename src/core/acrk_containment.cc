#include "core/acrk_containment.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.h"
#include "core/summary_fixpoint.h"

namespace qcont {

namespace {

using internal::InstRule;
using internal::SummaryFixpoint;

// ---------------------------------------------------------------------------
// Disjunct preprocessing: the variable forest Gγ with oriented multiedges.
// ---------------------------------------------------------------------------

struct GEdge {
  int x = -1;  // parent-side variable
  int y = -1;  // child-side variable (== x for loops)
  bool is_loop = false;
  std::vector<Nfa> nfas;  // normalized to walk from x to y
};

struct GammaInfo {
  int num_vars = 0;
  std::vector<GEdge> edges;
  std::vector<std::vector<int>> out_edges;  // per var: edges with x == var
  std::vector<int> roots;                   // one variable per component
  std::vector<std::pair<int, int>> free_occurrences;  // (head position, var)
};

Result<GammaInfo> BuildGammaInfo(const C2rpq& gamma) {
  GammaInfo info;
  std::unordered_map<std::string, int> var_index;
  auto var_id = [&](const std::string& name) {
    auto [it, inserted] = var_index.emplace(name, info.num_vars);
    if (inserted) ++info.num_vars;
    return it->second;
  };
  struct PairAtoms {
    std::vector<int> atom_ids;
  };
  std::map<std::pair<int, int>, PairAtoms> pairs;  // (min,max) var -> atoms
  std::vector<std::vector<int>> loops_of;          // var -> loop atom ids
  for (std::size_t i = 0; i < gamma.atoms().size(); ++i) {
    int x = var_id(gamma.atoms()[i].x.name());
    int y = var_id(gamma.atoms()[i].y.name());
    if (x == y) {
      if (loops_of.size() <= static_cast<std::size_t>(x)) {
        loops_of.resize(info.num_vars);
      }
      loops_of[x].push_back(static_cast<int>(i));
    } else {
      pairs[{std::min(x, y), std::max(x, y)}].atom_ids.push_back(
          static_cast<int>(i));
    }
  }
  loops_of.resize(info.num_vars);
  // Orient the variable forest by BFS from the smallest variable of each
  // component.
  std::vector<std::vector<std::pair<int, const PairAtoms*>>> adj(info.num_vars);
  for (const auto& [key, atoms] : pairs) {
    adj[key.first].emplace_back(key.second, &atoms);
    adj[key.second].emplace_back(key.first, &atoms);
  }
  info.out_edges.resize(info.num_vars);
  std::vector<int> seen(info.num_vars, 0);
  for (int r = 0; r < info.num_vars; ++r) {
    if (seen[r]) continue;
    info.roots.push_back(r);
    std::vector<int> stack = {r};
    seen[r] = 1;
    while (!stack.empty()) {
      int x = stack.back();
      stack.pop_back();
      // Loop atoms of x become loop edges attached to x.
      for (int atom_id : loops_of[x]) {
        GEdge e;
        e.x = x;
        e.y = x;
        e.is_loop = true;
        e.nfas.push_back(gamma.atoms()[atom_id].nfa);
        info.out_edges[x].push_back(static_cast<int>(info.edges.size()));
        info.edges.push_back(std::move(e));
      }
      for (const auto& [y, pair_atoms] : adj[x]) {
        if (seen[y]) continue;  // tree edge already oriented from elsewhere
        seen[y] = 1;
        GEdge e;
        e.x = x;
        e.y = y;
        for (int atom_id : pair_atoms->atom_ids) {
          const RpqAtom& atom = gamma.atoms()[atom_id];
          if (var_index.at(atom.x.name()) == x) {
            e.nfas.push_back(atom.nfa);
          } else {
            e.nfas.push_back(atom.nfa.ReversedInverse());
          }
        }
        info.out_edges[x].push_back(static_cast<int>(info.edges.size()));
        info.edges.push_back(std::move(e));
        stack.push_back(y);
      }
    }
  }
  for (std::size_t j = 0; j < gamma.head().size(); ++j) {
    info.free_occurrences.emplace_back(static_cast<int>(j),
                                       var_id(gamma.head()[j].name()));
  }
  return info;
}

// ---------------------------------------------------------------------------
// Game states as tuples [tag, g, id, walk states..., bindings...] over the
// variable forest of disjunct g.
// ---------------------------------------------------------------------------

enum StateTag : int {
  kMultiedge = 0,  // id = edge; one NFA state per walk; bindings: per walk
                   // (+ the fixed convergence target for loop edges)
  kSeek = 1,       // id = component root variable; no bindings
  kVarCheck = 2,   // id = head position j; one binding
  kVarNode = 3,    // id = query variable; one binding; internal only
};

// One walk of a multiedge: its NFA with the closed steps of every state
// resolved to extensional predicate ids once per run.
struct Walk {
  struct Step {
    int pred_id;   // artifact EDB id of the label (-1: never matches)
    bool inverse;  // the label is `p-`: walk the edge backwards
    int next;
  };
  int initial = 0;
  std::vector<char> accepting;           // per state: effectively accepting
  std::vector<std::vector<Step>> steps;  // per state
};

class AcrkGame final : public internal::SummaryGame {
 public:
  AcrkGame(std::vector<GammaInfo> gammas, const ProgramArtifact& artifact)
      : gammas_(std::move(gammas)) {
    walks_.resize(gammas_.size());
    for (std::size_t g = 0; g < gammas_.size(); ++g) {
      for (const GEdge& edge : gammas_[g].edges) {
        std::vector<Walk>& walks = walks_[g].emplace_back();
        for (const Nfa& nfa : edge.nfas) {
          Walk& walk = walks.emplace_back();
          walk.initial = nfa.initial();
          walk.accepting.resize(nfa.num_states());
          walk.steps.resize(nfa.num_states());
          for (int st = 0; st < nfa.num_states(); ++st) {
            walk.accepting[st] = nfa.IsEffectivelyAccepting(st);
            for (const auto& [symbol, next] : nfa.ClosedSteps(st)) {
              const bool inverse = !symbol.empty() && symbol.back() == '-';
              const int pred = artifact.EdbPredId(
                  inverse ? symbol.substr(0, symbol.size() - 1) : symbol);
              walk.steps[st].push_back(Walk::Step{pred, inverse, next});
            }
          }
        }
      }
    }
  }

  // Per disjunct: a seek per component root, and multiedge states over
  // every per-walk NFA state and every binding of the walks to canonical
  // head positions (the first walk and binding slowest).
  void EntryStates(const std::vector<int>& canonical,
                   SummaryFixpoint& fx) const override {
    std::vector<int> key;
    std::vector<int> digit;
    for (std::size_t g = 0; g < gammas_.size(); ++g) {
      const GammaInfo& info = gammas_[g];
      for (int root : info.roots) {
        key.assign({kSeek, static_cast<int>(g), root});
        fx.AddEntry(key);
      }
      for (std::size_t ei = 0; ei < info.edges.size(); ++ei) {
        const GEdge& edge = info.edges[ei];
        const std::size_t walks = edge.nfas.size();
        const std::size_t bindings = walks + (edge.is_loop ? 1 : 0);
        if (bindings > 0 && canonical.empty()) continue;
        // Digits: walk states, then canonical-position indices.
        digit.assign(walks + bindings, 0);
        while (true) {
          key.assign({kMultiedge, static_cast<int>(g), static_cast<int>(ei)});
          for (std::size_t i = 0; i < walks; ++i) key.push_back(digit[i]);
          for (std::size_t i = walks; i < digit.size(); ++i) {
            key.push_back(canonical[digit[i]]);
          }
          fx.AddEntry(key);
          std::size_t i = digit.size();
          while (i > 0) {
            const int radix = i - 1 < walks
                                  ? edge.nfas[i - 1].num_states()
                                  : static_cast<int>(canonical.size());
            if (++digit[i - 1] < radix) break;
            digit[--i] = 0;
          }
          if (i == 0) break;
        }
      }
    }
  }

  int BindingsOffset(const int* state) const override {
    if (state[0] != kMultiedge) return 3;
    return 3 + static_cast<int>(gammas_[state[1]].edges[state[2]].nfas.size());
  }

  void Expand(const int* state, std::size_t n,
              SummaryFixpoint& fx) const override {
    const int g = state[1];
    const int id = state[2];
    const GammaInfo& info = gammas_[g];
    switch (state[0]) {
      case kVarCheck:
        fx.AddExit(state, n);
        return;
      case kVarNode: {
        // Conjunction of all outgoing edge bundles plus free-variable
        // checks; this state does not move.
        const int w = state[3];
        fx.BeginClause();
        for (int ei : info.out_edges[id]) {
          const GEdge& edge = info.edges[ei];
          key_.assign({kMultiedge, g, ei});
          for (const Walk& walk : walks_[g][ei]) key_.push_back(walk.initial);
          key_.insert(key_.end(), edge.nfas.size() + (edge.is_loop ? 1 : 0), w);
          fx.AddSuccessor(key_);
        }
        for (const auto& [j, v] : info.free_occurrences) {
          if (v != id) continue;
          key_.assign({kVarCheck, g, j, w});
          fx.AddSuccessor(key_);
        }
        fx.EndClause();
        return;
      }
      case kSeek:
        // Guess the image of the component root among this instance's
        // variables, or keep looking elsewhere in the proof tree.
        for (int w : RuleVars(fx.rule())) {
          key_.assign({kVarNode, g, id, w});
          fx.BeginClause();
          fx.AddSuccessor(key_);
          fx.EndClause();
        }
        break;
      case kMultiedge: {
        const GEdge& edge = info.edges[id];
        const std::vector<Walk>& walks = walks_[g][id];
        const std::size_t num_walks = walks.size();
        const int* s = state + 3;
        const int* m = s + num_walks;
        // Convergence: every walk effectively accepting on a common,
        // connected variable (for loops: the fixed target).
        bool converged = true;
        for (std::size_t i = 0; i < num_walks && converged; ++i) {
          converged = walks[i].accepting[s[i]] && m[i] == m[0];
        }
        if (converged && edge.is_loop && m[0] != m[num_walks]) {
          converged = false;
        }
        if (converged) {
          // A loop's target was already processed: the bundle is done.
          fx.BeginClause();
          if (!edge.is_loop) {
            key_.assign({kVarNode, g, edge.y, m[0]});
            fx.AddSuccessor(key_);
          }
          fx.EndClause();
        }
        // Advance one walk over an extensional edge atom of this instance.
        const InstRule& rule = fx.rule();
        const internal::InstRulePrecomp& pre = fx.precomp();
        for (std::size_t i = 0; i < num_walks; ++i) {
          for (const Walk::Step& step : walks[i].steps[s[i]]) {
            for (std::size_t e = 0; e < rule.edb_atoms.size(); ++e) {
              const std::vector<int>& terms = rule.edb_atoms[e].second;
              if (pre.edb_pred_ids[e] != step.pred_id || terms.size() != 2) {
                continue;
              }
              const int from = step.inverse ? terms[1] : terms[0];
              const int to = step.inverse ? terms[0] : terms[1];
              if (m[i] != from) continue;
              key_.assign(state, state + n);
              key_[3 + i] = step.next;
              key_[3 + num_walks + i] = to;
              fx.BeginClause();
              fx.AddSuccessor(key_);
              fx.EndClause();
            }
          }
        }
        break;
      }
    }
    // Seek and multiedge states may also exit upward or descend.
    fx.AddExit(state, n);
    fx.AddDescend(state, n);
  }

  bool RootAccepts(const SummaryFixpoint& fx, int kind, int summary,
                   const std::vector<int>& pattern) const override {
    for (std::size_t g = 0; g < gammas_.size(); ++g) {
      bool all_roots = true;
      for (int root : gammas_[g].roots) {
        key_.assign({kSeek, static_cast<int>(g), root});
        all_roots = fx.AnyExitSet(
            kind, summary, key_.data(), key_.size(), [&](const int* exits, int count) {
              for (int i = 0; i < count; ++i) {
                const int* x = fx.PState(exits[i]);
                if (x[0] != kVarCheck || pattern[x[3]] != pattern[x[2]]) {
                  return false;
                }
              }
              return true;
            });
        if (!all_roots) break;
      }
      if (all_roots) return true;
    }
    return false;
  }

 private:
  // All rule-variable representatives occurring in the instance, sorted
  // (the candidate images of a seek), cached for the rule last asked for.
  const std::vector<int>& RuleVars(const InstRule& rule) const {
    if (&rule == vars_rule_) return rule_vars_;
    vars_rule_ = &rule;
    rule_vars_ = rule.head;
    for (const auto& [pred, terms] : rule.edb_atoms) {
      rule_vars_.insert(rule_vars_.end(), terms.begin(), terms.end());
    }
    for (const internal::InstIdbAtom& atom : rule.idb_atoms) {
      rule_vars_.insert(rule_vars_.end(), atom.terms.begin(), atom.terms.end());
    }
    std::sort(rule_vars_.begin(), rule_vars_.end());
    rule_vars_.erase(std::unique(rule_vars_.begin(), rule_vars_.end()),
                     rule_vars_.end());
    return rule_vars_;
  }

  std::vector<GammaInfo> gammas_;
  std::vector<std::vector<std::vector<Walk>>> walks_;  // per disjunct, edge
  mutable std::vector<int> key_;
  mutable const InstRule* vars_rule_ = nullptr;
  mutable std::vector<int> rule_vars_;
};

internal::FixpointConfig AcrkConfig(const AcrkEngineLimits& limits) {
  internal::FixpointConfig config;
  config.max_summaries = limits.max_summaries;
  config.max_combos = limits.max_combos;
  config.obs = limits.obs;
  config.error_prefix = "ACRk-engine";
  config.round_span = "acrk/round";
  config.metric_prefix = "acrk";
  return config;
}

// `level` is set (and `level_set` true) only when someone will read it:
// AcrkLevel can itself fail.
Result<ContainmentAnswer> RunAcrk(const DatalogProgram& program,
                                  const UC2rpq& gamma, bool want_level,
                                  const AcrkEngineLimits& limits,
                                  internal::FixpointRun* run, int* level,
                                  bool* level_set) {
  ObsSpan run_span(limits.obs, "acrk/run", "core");
  QCONT_ASSIGN_OR_RETURN(bool acyclic, IsAcyclicUC2rpq(gamma));
  if (!acyclic) {
    return FailedPreconditionError(
        "the ACRk engine requires an acyclic UC2RPQ");
  }
  if (want_level) {
    QCONT_ASSIGN_OR_RETURN(*level, AcrkLevel(gamma));
    *level_set = true;
  }
  std::vector<GammaInfo> gammas;
  for (const C2rpq& g : gamma.disjuncts()) {
    QCONT_ASSIGN_OR_RETURN(GammaInfo info, BuildGammaInfo(g));
    gammas.push_back(std::move(info));
  }
  std::shared_ptr<const ProgramArtifact> artifact =
      GetOrBuildArtifact(program, nullptr, limits.obs);
  AcrkGame game(std::move(gammas), *artifact);
  SummaryFixpoint fixpoint(*artifact, game, AcrkConfig(limits), run);
  return fixpoint.Decide();
}

}  // namespace

Result<ContainmentAnswer> DatalogContainedInAcyclicUC2rpq(
    const DatalogProgram& program, const UC2rpq& gamma,
    AcrkEngineStats* stats, const AcrkEngineLimits& limits) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  QCONT_RETURN_IF_ERROR(gamma.Validate());
  QCONT_RETURN_IF_ERROR(
      analysis::FirstError(analysis::CheckContainmentPair(program, gamma)));
  internal::FixpointRun run;
  int level = 0;
  bool level_set = false;
  const bool want_level =
      stats != nullptr || ObsMetrics(limits.obs) != nullptr;
  Result<ContainmentAnswer> result = RunAcrk(program, gamma, want_level, limits,
                                             &run, &level, &level_set);
  internal::FlushFixpointRun(AcrkConfig(limits), run, stats);
  if (level_set) {
    ObsGauge(limits.obs, "acrk.level", static_cast<std::uint64_t>(level));
    if (stats != nullptr) stats->acrk_level = level;
  }
  return result;
}

}  // namespace qcont
