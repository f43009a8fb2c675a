#include "structure/join_tree.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "structure/decomposition.h"

namespace qcont {

std::vector<std::vector<int>> JoinTree::Children() const {
  std::vector<std::vector<int>> children(parent.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] >= 0) children[parent[i]].push_back(static_cast<int>(i));
  }
  return children;
}

std::vector<int> JoinTree::Roots() const {
  std::vector<int> roots;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] < 0) roots.push_back(static_cast<int>(i));
  }
  return roots;
}

Status JoinTree::Validate(const ConjunctiveQuery& cq) const {
  if (parent.size() != cq.atoms().size()) {
    return InvalidArgumentError("join tree size does not match atom count");
  }
  // Acyclicity of the parent structure.
  for (std::size_t i = 0; i < parent.size(); ++i) {
    int hops = 0;
    for (int j = static_cast<int>(i); j >= 0; j = parent[j]) {
      if (++hops > static_cast<int>(parent.size())) {
        return InvalidArgumentError("parent pointers contain a cycle");
      }
    }
  }
  // Connectedness: for every variable, the atoms mentioning it induce a
  // connected subforest. Check: among atoms mentioning x, each non-unique
  // one must reach another one via parent steps through atoms mentioning x.
  std::unordered_map<std::string, std::vector<int>> atoms_of;
  for (std::size_t i = 0; i < cq.atoms().size(); ++i) {
    for (const Term& t : cq.atoms()[i].Variables()) {
      atoms_of[t.name()].push_back(static_cast<int>(i));
    }
  }
  for (const auto& [var, atoms] : atoms_of) {
    if (atoms.size() <= 1) continue;
    std::set<int> members(atoms.begin(), atoms.end());
    // Union-find style: walk up from each member while staying in members.
    // The subtree is connected iff exactly one member has a parent outside
    // the member set (the subtree root) within each tree... we instead count
    // connected pieces: a member whose parent is not a member starts a piece.
    int pieces = 0;
    for (int a : atoms) {
      if (parent[a] < 0 || !members.count(parent[a])) ++pieces;
    }
    if (pieces != 1) {
      return InvalidArgumentError("atoms containing variable '" + var +
                                  "' are not connected in the join tree");
    }
  }
  return Status::Ok();
}

Result<JoinTree> BuildJoinTree(const std::vector<std::vector<int>>& edges,
                               int num_vertices) {
  const std::size_t m = edges.size();
  // occurrences[v]: number of alive edges containing v.
  std::vector<int> occurrences(num_vertices, 0);
  for (const std::vector<int>& edge : edges) {
    for (int v : edge) ++occurrences[v];
  }
  std::vector<char> alive(m, 1);
  JoinTree jt;
  jt.parent.assign(m, -1);
  auto remove = [&](std::size_t e, int parent) {
    alive[e] = 0;
    jt.parent[e] = parent;
    for (int v : edges[e]) --occurrences[v];
  };
  std::vector<int> shared;
  std::size_t remaining = m;
  bool progress = true;
  while (progress && remaining > 0) {
    progress = false;
    for (std::size_t e = 0; e < m && !progress; ++e) {
      if (!alive[e]) continue;
      // Vertices of e that occur in another alive edge.
      shared.clear();
      for (int v : edges[e]) {
        if (occurrences[v] > 1) shared.push_back(v);
      }
      if (shared.empty()) {
        remove(e, -1);  // isolated ear: a root
        progress = true;
        break;
      }
      // e is an ear with witness f if shared ⊆ vertices(f).
      for (std::size_t f = 0; f < m; ++f) {
        if (f == e || !alive[f]) continue;
        if (std::includes(edges[f].begin(), edges[f].end(), shared.begin(),
                          shared.end())) {
          remove(e, static_cast<int>(f));
          progress = true;
          break;
        }
      }
    }
    if (progress) --remaining;
  }
  if (remaining > 0) {
    return FailedPreconditionError("query is cyclic: no join tree exists");
  }
  return jt;
}

bool IsAcyclic(const ConjunctiveQuery& cq) { return BuildJoinTree(cq).ok(); }

Result<JoinTree> BuildJoinTree(const ConjunctiveQuery& cq) {
  const Hypergraph h = CqHypergraph(cq);
  return BuildJoinTree(h.edges, h.num_vertices);
}

}  // namespace qcont
