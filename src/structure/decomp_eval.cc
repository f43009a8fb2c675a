#include "structure/decomp_eval.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "obs/obs.h"
#include "structure/decomposition.h"
#include "structure/graph.h"

namespace qcont {

namespace {

using ValueSet = std::unordered_set<std::vector<ValueId>, VectorHash<ValueId>>;

struct RootedForest {
  std::vector<std::vector<int>> children;
  std::vector<int> parent;
  std::vector<int> post_order;
};

RootedForest Root(std::size_t n, const std::vector<std::pair<int, int>>& edges) {
  RootedForest f;
  f.children.resize(n);
  f.parent.assign(n, -1);
  std::vector<std::vector<int>> adj(n);
  for (auto [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(n, false);
  std::vector<int> pre;
  for (std::size_t r = 0; r < n; ++r) {
    if (seen[r]) continue;
    seen[r] = true;
    std::vector<int> stack = {static_cast<int>(r)};
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      pre.push_back(v);
      for (int u : adj[v]) {
        if (!seen[u]) {
          seen[u] = true;
          f.parent[u] = v;
          f.children[v].push_back(u);
          stack.push_back(u);
        }
      }
    }
  }
  f.post_order.assign(pre.rbegin(), pre.rend());
  return f;
}

}  // namespace

namespace {

Result<bool> BoundedWidthSatisfiableImpl(const ConjunctiveQuery& cq,
                                         const Database& db,
                                         const Assignment& fixed,
                                         DecompEvalStats* stats,
                                         const ObsContext* obs) {
  QCONT_RETURN_IF_ERROR(cq.Validate());
  if (cq.atoms().empty()) return true;

  std::vector<Term> vars;
  UndirectedGraph gaifman = GaifmanGraph(cq, &vars);
  DecomposeOptions decompose_options;
  decompose_options.obs = obs;
  // Heuristic orders only: this runs per evaluation call, so it keeps the
  // old per-call cost profile (best of min-fill/min-degree, now verified).
  // The exact branch-and-bound is reserved for the cached analysis report,
  // which is built once per query.
  decompose_options.exact_max_vertices = 0;
  DecompositionCertificate cert = DecomposeGraph(gaifman, decompose_options);
  TreeDecomposition td = cert.ToTreeDecomposition();
  if (stats != nullptr) stats->width_used = td.Width();
  ObsSpan dp_span(obs, "decomp/dp", "structure");
  dp_span.AddArg("bags", td.bags.size());
  dp_span.AddArg("width", static_cast<std::uint64_t>(td.Width()));
  RootedForest forest = Root(td.bags.size(), td.edges);

  // Assign every atom to a bag containing all of its variables; the
  // variables of an atom form a clique of the Gaifman graph, so such a bag
  // exists in any valid decomposition.
  std::unordered_map<std::string, int> var_index;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    var_index.emplace(vars[i].name(), static_cast<int>(i));
  }
  std::vector<std::vector<int>> atoms_of_bag(td.bags.size());
  for (std::size_t a = 0; a < cq.atoms().size(); ++a) {
    std::vector<int> atom_vars;
    for (const Term& t : cq.atoms()[a].Variables()) {
      atom_vars.push_back(var_index.at(t.name()));
    }
    std::sort(atom_vars.begin(), atom_vars.end());
    bool placed = false;
    for (std::size_t b = 0; b < td.bags.size() && !placed; ++b) {
      if (std::includes(td.bags[b].begin(), td.bags[b].end(), atom_vars.begin(),
                        atom_vars.end())) {
        atoms_of_bag[b].push_back(static_cast<int>(a));
        placed = true;
      }
    }
    if (!placed) {
      return InternalError("atom clique not covered by any bag");
    }
  }

  const std::vector<ValueId>& domain = db.ActiveDomainIds();

  // Compile atoms once: relation ids, constant ids and variable indices are
  // resolved up front so the hot bag loop only touches ValueIds. A constant
  // (or relation) that was never interned can match no row; `HasRow` on the
  // kNoValue/kNoRelation sentinels returns false, which reproduces the
  // string path's behaviour without a special case.
  struct CompiledAtom {
    RelationId rel = kNoRelation;
    std::vector<ValueId> const_ids;  // per term: id, or kNoValue for a var
    std::vector<int> var_of;         // per term: var index, or -1
  };
  std::vector<CompiledAtom> compiled(cq.atoms().size());
  for (std::size_t a = 0; a < cq.atoms().size(); ++a) {
    const Atom& atom = cq.atoms()[a];
    CompiledAtom& ca = compiled[a];
    ca.rel = db.RelationIdOf(atom.predicate());
    ca.const_ids.reserve(atom.arity());
    ca.var_of.reserve(atom.arity());
    for (const Term& term : atom.terms()) {
      if (term.is_constant()) {
        ca.const_ids.push_back(db.ValueIdOf(term.name()));
        ca.var_of.push_back(-1);
      } else {
        ca.const_ids.push_back(kNoValue);
        ca.var_of.push_back(var_index.at(term.name()));
      }
    }
  }

  // survivors[b] = projections of b's surviving assignments onto the
  // variables shared with b's parent bag (whole bag for roots: we only need
  // non-emptiness there, so project onto the empty tuple instead).
  std::vector<ValueSet> survivors(td.bags.size());

  for (int b : forest.post_order) {
    const std::vector<int>& bag = td.bags[b];
    // Shared positions with parent / children.
    std::vector<int> parent_shared;  // indices into `bag`
    if (forest.parent[b] >= 0) {
      const std::vector<int>& pbag = td.bags[forest.parent[b]];
      for (std::size_t i = 0; i < bag.size(); ++i) {
        if (std::binary_search(pbag.begin(), pbag.end(), bag[i])) {
          parent_shared.push_back(static_cast<int>(i));
        }
      }
    }
    struct ChildLink {
      int child;
      std::vector<int> positions;  // indices into `bag`, aligned with the
                                   // child's parent_shared projection order
    };
    std::vector<ChildLink> links;
    for (int c : forest.children[b]) {
      ChildLink link;
      link.child = c;
      const std::vector<int>& cbag = td.bags[c];
      for (std::size_t i = 0; i < cbag.size(); ++i) {
        if (std::binary_search(bag.begin(), bag.end(), cbag[i])) {
          // Position of cbag[i] inside `bag`.
          auto it = std::lower_bound(bag.begin(), bag.end(), cbag[i]);
          link.positions.push_back(static_cast<int>(it - bag.begin()));
        }
      }
      links.push_back(std::move(link));
    }

    // Bind this bag's atoms to bag positions once, so each enumerated
    // assignment fills a row buffer with plain index lookups.
    struct BagAtom {
      RelationId rel;
      const std::vector<ValueId>* const_ids;
      std::vector<int> pos;  // per term: index into `bag`, or -1 (constant)
    };
    std::vector<BagAtom> bag_atoms;
    bag_atoms.reserve(atoms_of_bag[b].size());
    for (int a : atoms_of_bag[b]) {
      const CompiledAtom& ca = compiled[a];
      BagAtom ba{ca.rel, &ca.const_ids, {}};
      ba.pos.reserve(ca.var_of.size());
      for (int v : ca.var_of) {
        if (v < 0) {
          ba.pos.push_back(-1);
        } else {
          auto it = std::lower_bound(bag.begin(), bag.end(), v);
          ba.pos.push_back(static_cast<int>(it - bag.begin()));
        }
      }
      bag_atoms.push_back(std::move(ba));
    }
    // Resolve fixed variables to ids once per bag. A fixed value that was
    // never interned keeps the kNoValue sentinel: atoms over it fail
    // HasRow, and projections carry the sentinel consistently.
    std::vector<ValueId> fixed_ids(bag.size(), kNoValue);
    std::vector<bool> is_fixed(bag.size(), false);
    for (std::size_t i = 0; i < bag.size(); ++i) {
      auto it = fixed.find(gaifman.Label(bag[i]));
      if (it != fixed.end()) {
        is_fixed[i] = true;
        fixed_ids[i] = db.ValueIdOf(it->second);
      }
    }

    // Enumerate assignments to the bag variables.
    std::vector<ValueId> assignment(bag.size());
    std::vector<ValueId> row;
    bool any = false;
    std::function<void(std::size_t)> enumerate = [&](std::size_t i) {
      if (i == bag.size()) {
        if (stats != nullptr) ++stats->bag_assignments;
        // Check atoms assigned to this bag.
        for (const BagAtom& ba : bag_atoms) {
          row.clear();
          for (std::size_t j = 0; j < ba.pos.size(); ++j) {
            row.push_back(ba.pos[j] < 0 ? (*ba.const_ids)[j]
                                        : assignment[ba.pos[j]]);
          }
          if (!db.HasRow(ba.rel, row)) return;
        }
        // Check children support.
        for (const ChildLink& link : links) {
          std::vector<ValueId> key;
          key.reserve(link.positions.size());
          for (int p : link.positions) key.push_back(assignment[p]);
          if (!survivors[link.child].count(key)) return;
        }
        any = true;
        std::vector<ValueId> key;
        key.reserve(parent_shared.size());
        for (int p : parent_shared) key.push_back(assignment[p]);
        survivors[b].insert(std::move(key));
        return;
      }
      if (is_fixed[i]) {
        assignment[i] = fixed_ids[i];
        enumerate(i + 1);
        return;
      }
      for (ValueId v : domain) {
        assignment[i] = v;
        enumerate(i + 1);
      }
    };
    enumerate(0);
    if (forest.parent[b] < 0 && !any) return false;
    if (survivors[b].empty() && forest.parent[b] >= 0) {
      // Early exit: this whole component is unsatisfiable.
      return false;
    }
  }
  return true;
}

}  // namespace

// Publish funnel: `bag_assignments` is bumped per enumerated bag tuple (far
// too hot for inline registry writes), so gather the run's deltas locally
// and publish once at the end — the same deltas the legacy sink receives.
Result<bool> BoundedWidthSatisfiable(const ConjunctiveQuery& cq,
                                     const Database& db,
                                     const Assignment& fixed,
                                     DecompEvalStats* stats,
                                     const ObsContext* obs) {
  MetricRegistry* metrics = ObsMetrics(obs);
  if (metrics == nullptr) {
    return BoundedWidthSatisfiableImpl(cq, db, fixed, stats, obs);
  }
  DecompEvalStats run;
  Result<bool> result = BoundedWidthSatisfiableImpl(cq, db, fixed, &run, obs);
  metrics->Add("decomp.bag_assignments", run.bag_assignments);
  if (run.width_used >= 0) {
    metrics->SetGauge("decomp.width_used",
                      static_cast<std::uint64_t>(run.width_used));
  }
  if (stats != nullptr) {
    stats->bag_assignments += run.bag_assignments;
    if (run.width_used >= 0) stats->width_used = run.width_used;
  }
  return result;
}

Result<bool> CqContainedBoundedTwRhs(const ConjunctiveQuery& theta,
                                     const ConjunctiveQuery& theta_prime,
                                     DecompEvalStats* stats,
                                     const ObsContext* obs) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(theta_prime.Validate());
  if (theta.arity() != theta_prime.arity()) {
    return InvalidArgumentError("arity mismatch in containment test");
  }
  FrozenQuery frozen = Freeze(theta, &theta_prime);
  Assignment fixed;
  for (std::size_t i = 0; i < theta_prime.head().size(); ++i) {
    const std::string& var = theta_prime.head()[i].name();
    auto it = fixed.find(var);
    if (it != fixed.end()) {
      if (it->second != frozen.head[i]) return false;
    } else {
      fixed.emplace(var, frozen.head[i]);
    }
  }
  return BoundedWidthSatisfiable(theta_prime, frozen.database, fixed, stats,
                                 obs);
}

}  // namespace qcont
