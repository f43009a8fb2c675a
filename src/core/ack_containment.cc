#include "core/ack_containment.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "core/summary_fixpoint.h"
#include "structure/classify.h"
#include "structure/decomposition.h"
#include "structure/join_tree.h"

namespace qcont {

namespace {

using internal::InstRule;
using internal::InstRulePrecomp;
using internal::SummaryFixpoint;

// ---------------------------------------------------------------------------
// Disjunct preprocessing: join-tree view of each (acyclic) CQ of Θ.
// ---------------------------------------------------------------------------

struct AckDisjunct {
  int num_vars = 0;
  std::vector<int> pred_ids;                // per atom: artifact EDB pred id
  std::vector<std::vector<int>> atom_vars;  // per atom: term variable ids
  std::vector<int> jt_parent;  // per atom: join-forest parent, -1 for roots
  // Per atom: variables shared with the join-tree parent (sorted); this is
  // the domain of every map M carried by an atom state (A, M). Bounded by k
  // for Θ ∈ ACk.
  std::vector<std::vector<int>> entry_dom;
  // Per atom: (head position, variable) for the distinguished variables of
  // the atom, in head order.
  std::vector<std::vector<std::pair<int, int>>> free_in_atom;
};

// One pass over the query: dense variable ids, the hypergraph, GYO (which
// decides acyclicity and yields the join forest), and the certificate check
// of that forest. `level` is max-assigned the query's shared-variable width.
// Constants are not checked here: CheckContainmentPair rejects them (QC003)
// before a join forest is used. A cyclic disjunct is kFailedPrecondition,
// with the disjunct rendered into the message only if `describe_cyclic`
// (the routing probe discards the message).
Result<AckDisjunct> PrepareDisjunct(const ConjunctiveQuery& cq, int* level,
                                    bool describe_cyclic) {
  AckDisjunct d;
  std::vector<const std::string*> names;  // variable id -> name
  auto var_id = [&](const std::string& name) {
    for (std::size_t v = 0; v < names.size(); ++v) {
      if (*names[v] == name) return static_cast<int>(v);
    }
    names.push_back(&name);
    return d.num_vars++;
  };
  Hypergraph h;
  for (const Atom& atom : cq.atoms()) {
    std::vector<int> vars;
    for (const Term& t : atom.terms()) {
      if (t.is_variable()) vars.push_back(var_id(t.name()));
    }
    std::vector<int> edge = vars;
    std::sort(edge.begin(), edge.end());
    edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
    h.edges.push_back(std::move(edge));
    d.atom_vars.push_back(std::move(vars));
  }
  h.num_vertices = d.num_vars;
  Result<JoinTree> jt = BuildJoinTree(h.edges, h.num_vertices);
  if (!jt.ok()) {
    std::string message = "the ACk engine requires an acyclic UCQ";
    if (describe_cyclic) message += "; disjunct is cyclic: " + cq.ToString();
    return FailedPreconditionError(std::move(message));
  }
  // Certify the join tree (width-1 GHW certificate) before trusting it.
  QCONT_RETURN_IF_ERROR(CertificateFromJoinTree(h, *jt).status());
  const std::size_t num_atoms = cq.atoms().size();
  d.entry_dom.resize(num_atoms);
  for (std::size_t a = 0; a < num_atoms; ++a) {
    if (jt->parent[a] < 0) continue;
    const std::vector<int>& parent = h.edges[jt->parent[a]];
    std::set_intersection(h.edges[a].begin(), h.edges[a].end(), parent.begin(),
                          parent.end(), std::back_inserter(d.entry_dom[a]));
  }
  d.free_in_atom.resize(num_atoms);
  for (std::size_t j = 0; j < cq.head().size(); ++j) {
    const int v = var_id(cq.head()[j].name());
    for (std::size_t a = 0; a < num_atoms; ++a) {
      if (std::binary_search(h.edges[a].begin(), h.edges[a].end(), v)) {
        d.free_in_atom[a].emplace_back(static_cast<int>(j), v);
      }
    }
  }
  d.jt_parent = std::move(jt->parent);
  // AC1 is the lowest level of the hierarchy by convention.
  *level = std::max({*level, 1, MaxSharedVertices(h)});
  return d;
}

// Θ's join forests, one per disjunct in order; kFailedPrecondition at the
// first cyclic disjunct. `level` is max-assigned per disjunct prepared.
Result<std::vector<AckDisjunct>> PrepareForests(const UnionQuery& ucq,
                                                int* level,
                                                bool describe_cyclic) {
  std::vector<AckDisjunct> disjuncts;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    QCONT_ASSIGN_OR_RETURN(AckDisjunct d,
                           PrepareDisjunct(cq, level, describe_cyclic));
    disjuncts.push_back(std::move(d));
  }
  return disjuncts;
}

// ---------------------------------------------------------------------------
// States of the 2ATA B^Θ_Π as tuples [atom, d, j, bindings...]:
//   - atom state (A, M): atom = A (a join-tree node of disjunct d), j = -1,
//     one binding per variable of entry_dom[A];
//   - variable state (j, x): atom = -1, j = the head position of the
//     distinguished variable, one binding (the value the play carries).
// ---------------------------------------------------------------------------

constexpr int kBindings = 3;

class AckGame final : public internal::SummaryGame {
 public:
  explicit AckGame(std::vector<AckDisjunct> disjuncts)
      : disjuncts_(std::move(disjuncts)) {
    int max_vars = 0;
    for (const AckDisjunct& d : disjuncts_) {
      max_vars = std::max(max_vars, d.num_vars);
    }
    sigma_.assign(max_vars, -1);
  }

  // Per disjunct and join-tree atom, every binding of the atom's entry
  // domain to canonical head positions; roots have the empty domain. A
  // non-empty domain has no entries at a 0-ary interface.
  void EntryStates(const std::vector<int>& canonical,
                   SummaryFixpoint& fx) const override {
    std::vector<int> key;
    std::vector<std::size_t> digit;
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      const AckDisjunct& dj = disjuncts_[d];
      for (std::size_t a = 0; a < dj.atom_vars.size(); ++a) {
        const std::size_t dom = dj.entry_dom[a].size();
        if (dom > 0 && canonical.empty()) continue;
        digit.assign(dom, 0);
        while (true) {
          key.assign({static_cast<int>(a), static_cast<int>(d), -1});
          for (std::size_t i : digit) key.push_back(canonical[i]);
          fx.AddEntry(key);
          // Odometer with the last binding fastest.
          std::size_t i = dom;
          while (i > 0 && ++digit[i - 1] == canonical.size()) digit[--i] = 0;
          if (i == 0) break;
        }
      }
    }
  }

  int BindingsOffset(const int*) const override { return kBindings; }

  void Expand(const int* state, std::size_t n,
              SummaryFixpoint& fx) const override {
    // Exit upward, if every binding survives into the head. A variable
    // state has no other move.
    fx.AddExit(state, n);
    const int a = state[0];
    if (a < 0) return;
    const int d = state[1];
    const AckDisjunct& dj = disjuncts_[d];
    const InstRule& rule = fx.rule();
    const InstRulePrecomp& pre = fx.precomp();
    const std::vector<int>& vars = dj.atom_vars[a];
    const std::vector<int>& dom = dj.entry_dom[a];

    // Map atom `a` onto an extensional atom of this rule instance,
    // spawning plays for its join children and distinguished variables.
    for (std::size_t e = 0; e < rule.edb_atoms.size(); ++e) {
      const std::vector<int>& terms = rule.edb_atoms[e].second;
      if (pre.edb_pred_ids[e] != dj.pred_ids[a] ||
          terms.size() != vars.size()) {
        continue;
      }
      // Unify, seeded with the entry bindings.
      for (std::size_t i = 0; i < dom.size(); ++i) {
        sigma_[dom[i]] = state[kBindings + i];
      }
      bool ok = true;
      for (std::size_t i = 0; i < terms.size() && ok; ++i) {
        int& bound = sigma_[vars[i]];
        if (bound == -1) {
          bound = terms[i];
        } else if (bound != terms[i]) {
          ok = false;
        }
      }
      if (ok) {
        fx.BeginClause();
        for (int b = 0; b < static_cast<int>(dj.jt_parent.size()); ++b) {
          if (dj.jt_parent[b] != a) continue;  // join children of `a`
          key_.assign({b, d, -1});
          for (int v : dj.entry_dom[b]) key_.push_back(sigma_[v]);
          fx.AddSuccessor(key_);
        }
        for (const auto& [j, v] : dj.free_in_atom[a]) {
          key_.assign({-1, d, j, sigma_[v]});
          fx.AddSuccessor(key_);
        }
        fx.EndClause();
      }
      for (int v : vars) sigma_[v] = -1;
    }

    // Move into a proof-tree child whose head carries all the bindings.
    fx.AddDescend(state, n);
  }

  // The proof tree is accepted iff for some disjunct every join-forest
  // root play, started unbound at the tree root, can be won by Eve with all
  // residual exits being variable checks that succeed at the root (a
  // variable exit (j, p) succeeds iff head positions j and p are equal; an
  // atom exit at the root is a dead upward move).
  bool RootAccepts(const SummaryFixpoint& fx, int kind, int summary,
                   const std::vector<int>& pattern) const override {
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      bool all_roots = true;
      const std::vector<int>& parent = disjuncts_[d].jt_parent;
      for (int root = 0; root < static_cast<int>(parent.size()); ++root) {
        if (parent[root] >= 0) continue;
        key_.assign({root, static_cast<int>(d), -1});
        all_roots = fx.AnyExitSet(kind, summary, key_.data(), key_.size(),
                                  [&](const int* exits, int count) {
                                    for (int i = 0; i < count; ++i) {
                                      const int* x = fx.PState(exits[i]);
                                      if (x[0] >= 0) return false;
                                      if (pattern[x[kBindings]] != pattern[x[2]]) {
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

  // Resolves the disjunct predicates against the program's EDB ids.
  void BindPredicates(const UnionQuery& ucq, const ProgramArtifact& artifact) {
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      for (const Atom& atom : ucq.disjuncts()[d].atoms()) {
        disjuncts_[d].pred_ids.push_back(artifact.EdbPredId(atom.predicate()));
      }
    }
  }

 private:
  std::vector<AckDisjunct> disjuncts_;
  // Scratch: the unifier (disjunct variable -> rule representative, -1 when
  // unbound) and a state tuple.
  mutable std::vector<int> sigma_;
  mutable std::vector<int> key_;
};

internal::FixpointConfig AckConfig(const AckEngineLimits& limits) {
  internal::FixpointConfig config;
  config.max_summaries = limits.max_summaries;
  config.max_combos = limits.max_combos;
  config.obs = limits.obs;
  config.error_prefix = "ACk-engine";
  config.round_span = "ack/round";
  config.metric_prefix = "ack";
  return config;
}

// Validates the pair, then decides it over Θ's join forests: `forests`
// (built at `level`) or, when null, prepared here. The run accumulates
// locally and is published once, on every exit path: the per-event counters
// and the level unconditionally, the post-fixpoint snapshot only when the
// fixpoint completed (see AckEngineStats).
Result<ContainmentAnswer> DecideAck(
    const DatalogProgram& program, const UnionQuery& ucq,
    AckEngineStats* stats, const AckEngineLimits& limits,
    Result<std::vector<AckDisjunct>>* forests, int level) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  QCONT_RETURN_IF_ERROR(
      analysis::FirstError(analysis::CheckContainmentPair(program, ucq)));
  ObsSpan run_span(limits.obs, "ack/run", "core");
  Result<std::vector<AckDisjunct>> disjuncts =
      forests != nullptr ? std::move(*forests)
                         : PrepareForests(ucq, &level, /*describe_cyclic=*/true);
  internal::FixpointRun run;
  Result<ContainmentAnswer> result = disjuncts.status();
  if (disjuncts.ok()) {
    std::shared_ptr<const ProgramArtifact> artifact =
        GetOrBuildArtifact(program, limits.artifact_cache, limits.obs);
    AckGame game(std::move(disjuncts).value());
    game.BindPredicates(ucq, *artifact);
    result = SummaryFixpoint(*artifact, game, AckConfig(limits), &run).Decide();
  }
  internal::FlushFixpointRun(AckConfig(limits), run, stats);
  ObsGauge(limits.obs, "ack.level", static_cast<std::uint64_t>(level));
  if (stats != nullptr) stats->ack_level = std::max(stats->ack_level, level);
  return result;
}

}  // namespace

Result<ContainmentAnswer> DatalogContainedInAcyclicUcq(
    const DatalogProgram& program, const UnionQuery& ucq,
    AckEngineStats* stats, const AckEngineLimits& limits) {
  return DecideAck(program, ucq, stats, limits, nullptr, 0);
}

std::optional<Result<ContainmentAnswer>> DatalogContainedInUcqIfAcyclic(
    const DatalogProgram& program, const UnionQuery& ucq,
    AckEngineStats* stats, const AckEngineLimits& limits) {
  int level = 0;
  Result<std::vector<AckDisjunct>> forests =
      PrepareForests(ucq, &level, /*describe_cyclic=*/false);
  if (forests.status().code() == StatusCode::kFailedPrecondition) {
    return std::nullopt;
  }
  return DecideAck(program, ucq, stats, limits, &forests, level);
}

}  // namespace qcont
