#ifndef QCONT_STRUCTURE_DECOMPOSITION_H_
#define QCONT_STRUCTURE_DECOMPOSITION_H_

#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "cq/query.h"
#include "obs/obs.h"
#include "structure/graph.h"
#include "structure/join_tree.h"
#include "structure/tree_decomposition.h"

namespace qcont {

/// A hypergraph over vertices 0..num_vertices-1. For a CQ the vertices are
/// its variables and the hyperedges are the atoms' variable sets, so
/// generalized hypertree width 1 coincides with acyclicity (GYO).
struct Hypergraph {
  int num_vertices = 0;
  /// Sorted, deduplicated vertex lists (one per hyperedge).
  std::vector<std::vector<int>> edges;

  /// The primal (Gaifman) graph: vertices adjacent iff they share an edge.
  UndirectedGraph PrimalGraph() const;
};

/// The hypergraph of a CQ body. `variables` (optional) receives the vertex
/// order used (first occurrence over the atoms), matching GaifmanGraph.
Hypergraph CqHypergraph(const ConjunctiveQuery& cq,
                        std::vector<Term>* variables = nullptr);

/// What kind of width a certificate claims.
enum class DecompositionKind {
  kTree,                  // bags of variables; width = max |bag| - 1
  kGeneralizedHypertree,  // bags + hyperedge covers; width = max |cover|
};

/// Which builder produced a certificate (diagnostic surface only; the
/// verifier never trusts it).
enum class DecompositionMethod {
  kMinFill,
  kMinDegree,
  kExactBranchAndBound,
  kSetCover,
  kJoinTree,
};

const char* DecompositionKindName(DecompositionKind kind);
const char* DecompositionMethodName(DecompositionMethod method);

/// A checkable decomposition: the bags and tree edges, plus (for
/// generalized hypertree decompositions) the per-bag hyperedge covers and
/// the width the producer claims. Everything a polytime verifier needs is
/// inside the struct — see Gottlob-Leone-Scarcello: decompositions are not
/// only computable but *checkable*, so downstream consumers (the DP
/// evaluator, the advisor, the engine router) never have to trust the
/// heuristic that produced one.
struct DecompositionCertificate {
  DecompositionKind kind = DecompositionKind::kTree;
  DecompositionMethod method = DecompositionMethod::kMinFill;
  int num_vertices = 0;
  /// Sorted vertex lists.
  std::vector<std::vector<int>> bags;
  /// Decomposition tree edges (bag index pairs).
  std::vector<std::pair<int, int>> edges;
  /// kGeneralizedHypertree only: hyperedge indices covering each bag,
  /// parallel to `bags`. Empty for kTree certificates.
  std::vector<std::vector<int>> covers;
  /// The width the producer claims; VerifyCertificate recomputes and
  /// rejects any disagreement (an understated claim is exactly the bug a
  /// certificate exists to catch).
  int claimed_width = -1;
  /// True when the width is known optimal (exact branch-and-bound, or a
  /// join tree, which witnesses GHW = 1).
  bool exact = false;

  /// The width recomputed from the structure (never the claim): max
  /// |bag| - 1 for kTree, max |cover| for kGeneralizedHypertree.
  int Width() const;

  /// View as the legacy TreeDecomposition (bags + edges only).
  TreeDecomposition ToTreeDecomposition() const;
};

/// Independent polytime checker for tree certificates: the decomposition
/// tree is a forest over the bags, every vertex of `graph` occurs in some
/// bag, every edge of `graph` is contained in some bag, each vertex's bags
/// form a connected subtree, and the claimed width equals the recomputed
/// one. Shares no code with the builders.
Status VerifyCertificate(const DecompositionCertificate& certificate,
                         const UndirectedGraph& graph);

/// Independent checker for generalized hypertree certificates: forest +
/// connectedness as above, every *hyperedge* of `hypergraph` is contained
/// in some bag, every bag is contained in the union of its cover's
/// hyperedges, and the claimed width equals the largest cover. Vertices
/// occurring in no hyperedge are exempt from bag coverage.
Status VerifyCertificate(const DecompositionCertificate& certificate,
                         const Hypergraph& hypergraph);

/// Min-degree heuristic elimination order (cheaper than min-fill, often
/// comparable width; the builder takes the better of the two).
std::vector<int> MinDegreeOrder(const UndirectedGraph& g);

/// Exact minimum-width elimination order by iterative-deepening
/// branch-and-bound over elimination prefixes (memoized on the eliminated
/// set, pruned by a degeneracy lower bound and the best heuristic order).
/// kResourceExhausted beyond `max_vertices` vertices.
Result<std::vector<int>> ExactEliminationOrder(const UndirectedGraph& g,
                                               int max_vertices = 20);

/// Degeneracy of the graph: max over the min-degree elimination of the
/// minimum degree encountered. A lower bound on treewidth.
int DegeneracyLowerBound(const UndirectedGraph& g);

struct DecomposeOptions {
  /// Largest graph the exact branch-and-bound is attempted on; bigger
  /// graphs take the better of the min-fill / min-degree heuristics.
  int exact_max_vertices = 20;
  /// Observability sink (optional, borrowed): `decomp/build` spans and
  /// `analysis.decompositions` / `analysis.certificates_verified` counters.
  const ObsContext* obs = nullptr;
};

/// Builds a *verified* tree-decomposition certificate of `g`: the exact
/// branch-and-bound for small graphs, otherwise the better of the min-fill
/// and min-degree heuristic orders. The returned certificate has passed
/// VerifyCertificate (a verification failure here is a builder bug and
/// aborts via QCONT_CHECK).
DecompositionCertificate DecomposeGraph(const UndirectedGraph& g,
                                        const DecomposeOptions& options = {});

/// Builds a *verified* generalized-hypertree certificate of `h`: a tree
/// decomposition of the primal graph whose bags are covered by greedy set
/// cover over the hyperedges. The claimed width is an upper bound on
/// ghw(h); it is exact (=1) iff the hypergraph is acyclic.
DecompositionCertificate DecomposeHypergraph(const Hypergraph& h,
                                             const DecomposeOptions& options = {});
/// The same, covering the bags of `primal_tree`, a DecomposeGraph
/// certificate of `h.PrimalGraph()` the caller already holds — e.g. of a
/// query's GaifmanGraph, which is CqHypergraph's primal graph (both number
/// variables in body first-occurrence order).
DecompositionCertificate DecomposeHypergraph(
    const Hypergraph& h, DecompositionCertificate primal_tree,
    const DecomposeOptions& options = {});

/// Certificate view of a join tree of an acyclic CQ: bags are the atoms'
/// variable sets, each covered by its own atom — a width-1 generalized
/// hypertree decomposition. Returns the certificate *after* verifying it
/// against CqHypergraph(cq); kInternal if the join tree is not valid for
/// the query. This is how the ACk/ACRk engines route their join trees
/// through the certified checker.
Result<DecompositionCertificate> CertificateFromJoinTree(
    const ConjunctiveQuery& cq, const JoinTree& join_tree);
/// The same, against an already built hypergraph of the query.
Result<DecompositionCertificate> CertificateFromJoinTree(
    const Hypergraph& h, const JoinTree& join_tree);

/// Maximum number of vertices shared by two distinct hyperedges.
int MaxSharedVertices(const Hypergraph& h);

}  // namespace qcont

#endif  // QCONT_STRUCTURE_DECOMPOSITION_H_
