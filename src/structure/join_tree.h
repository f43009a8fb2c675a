#ifndef QCONT_STRUCTURE_JOIN_TREE_H_
#define QCONT_STRUCTURE_JOIN_TREE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "cq/query.h"

namespace qcont {

/// A join tree of a CQ [Beeri-Fagin-Maier-Mendelzon-Ullman-Yannakakis]:
/// nodes are the atoms of the query (by index into cq.atoms()); for each
/// variable, the atoms mentioning it form a connected subtree. A CQ has a
/// join tree iff it is acyclic, i.e. in HW(1) = AC.
///
/// `parent[i]` is the parent atom index of atom i, or -1 for roots (the
/// structure is a forest when the query's atoms are disconnected; the tree
/// property per variable still holds).
struct JoinTree {
  std::vector<int> parent;

  /// Children lists derived from `parent`.
  std::vector<std::vector<int>> Children() const;

  /// Root indices (atoms with parent -1).
  std::vector<int> Roots() const;

  /// Verifies the connectedness condition against `cq`.
  Status Validate(const ConjunctiveQuery& cq) const;
};

/// Decides acyclicity by GYO reduction (repeatedly delete vertices that
/// occur in at most one hyperedge and hyperedges contained in others).
bool IsAcyclic(const ConjunctiveQuery& cq);

/// Builds a join tree of `cq`, or kFailedPrecondition if `cq` is cyclic.
Result<JoinTree> BuildJoinTree(const ConjunctiveQuery& cq);

/// GYO over hyperedges given as sorted, deduplicated lists of dense vertex
/// ids in [0, num_vertices): one pass decides acyclicity and yields the
/// join forest (node i = hyperedge i). kFailedPrecondition when cyclic. The
/// CQ overloads above run this over CqHypergraph(cq).
Result<JoinTree> BuildJoinTree(const std::vector<std::vector<int>>& edges,
                               int num_vertices);

}  // namespace qcont

#endif  // QCONT_STRUCTURE_JOIN_TREE_H_
