#include "structure/decomposition.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>

#include "base/check.h"

namespace qcont {

UndirectedGraph Hypergraph::PrimalGraph() const {
  UndirectedGraph g(static_cast<std::size_t>(num_vertices));
  for (const std::vector<int>& edge : edges) {
    for (std::size_t i = 0; i < edge.size(); ++i) {
      for (std::size_t j = i + 1; j < edge.size(); ++j) {
        g.AddEdge(edge[i], edge[j]);
      }
    }
  }
  return g;
}

Hypergraph CqHypergraph(const ConjunctiveQuery& cq,
                        std::vector<Term>* variables) {
  Hypergraph h;
  std::map<std::string, int> index;
  std::vector<Term> order;
  for (const Atom& atom : cq.atoms()) {
    std::vector<int> edge;
    for (const Term& t : atom.Variables()) {
      auto [it, inserted] = index.emplace(t.name(), static_cast<int>(order.size()));
      if (inserted) order.push_back(t);
      edge.push_back(it->second);
    }
    std::sort(edge.begin(), edge.end());
    edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
    h.edges.push_back(std::move(edge));
  }
  h.num_vertices = static_cast<int>(order.size());
  if (variables != nullptr) *variables = std::move(order);
  return h;
}

int MaxSharedVertices(const Hypergraph& h) {
  int best = 0;
  std::vector<int> shared;
  for (std::size_t i = 0; i < h.edges.size(); ++i) {
    for (std::size_t j = i + 1; j < h.edges.size(); ++j) {
      shared.clear();
      std::set_intersection(h.edges[i].begin(), h.edges[i].end(),
                            h.edges[j].begin(), h.edges[j].end(),
                            std::back_inserter(shared));
      best = std::max(best, static_cast<int>(shared.size()));
    }
  }
  return best;
}

const char* DecompositionKindName(DecompositionKind kind) {
  switch (kind) {
    case DecompositionKind::kTree: return "tree";
    case DecompositionKind::kGeneralizedHypertree: return "generalized-hypertree";
  }
  return "unknown";
}

const char* DecompositionMethodName(DecompositionMethod method) {
  switch (method) {
    case DecompositionMethod::kMinFill: return "min-fill";
    case DecompositionMethod::kMinDegree: return "min-degree";
    case DecompositionMethod::kExactBranchAndBound: return "exact-bnb";
    case DecompositionMethod::kSetCover: return "set-cover";
    case DecompositionMethod::kJoinTree: return "join-tree";
  }
  return "unknown";
}

int DecompositionCertificate::Width() const {
  if (kind == DecompositionKind::kTree) {
    int width = -1;
    for (const auto& bag : bags) {
      width = std::max(width, static_cast<int>(bag.size()) - 1);
    }
    return width;
  }
  int width = 0;
  for (const auto& cover : covers) {
    width = std::max(width, static_cast<int>(cover.size()));
  }
  return width;
}

TreeDecomposition DecompositionCertificate::ToTreeDecomposition() const {
  TreeDecomposition td;
  td.bags = bags;
  td.edges = edges;
  return td;
}

namespace {

// The structural conditions shared by both certificate kinds: well-formed
// sorted bags, a forest over the bags, and per-vertex connectedness.
// Written against the certificate alone, independent of any builder state.
Status VerifyTreeShape(const DecompositionCertificate& c,
                       std::vector<std::vector<int>>* bags_of_vertex) {
  const int n_bags = static_cast<int>(c.bags.size());
  for (const std::vector<int>& bag : c.bags) {
    for (std::size_t i = 0; i < bag.size(); ++i) {
      if (bag[i] < 0 || bag[i] >= c.num_vertices) {
        return InvalidArgumentError("certificate: bag vertex out of range");
      }
      if (i > 0 && bag[i - 1] >= bag[i]) {
        return InvalidArgumentError(
            "certificate: bag not sorted/deduplicated");
      }
    }
  }
  std::vector<std::vector<int>> tree(n_bags);
  for (auto [a, b] : c.edges) {
    if (a < 0 || b < 0 || a >= n_bags || b >= n_bags || a == b) {
      return InvalidArgumentError("certificate: tree edge out of range");
    }
    tree[a].push_back(b);
    tree[b].push_back(a);
  }
  {
    // Forest check by union-find.
    std::vector<int> parent(n_bags);
    for (int i = 0; i < n_bags; ++i) parent[i] = i;
    auto find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (auto [a, b] : c.edges) {
      int ra = find(a), rb = find(b);
      if (ra == rb) {
        return InvalidArgumentError("certificate: decomposition tree has a cycle");
      }
      parent[ra] = rb;
    }
  }
  bags_of_vertex->assign(static_cast<std::size_t>(c.num_vertices), {});
  for (int t = 0; t < n_bags; ++t) {
    for (int v : c.bags[t]) (*bags_of_vertex)[v].push_back(t);
  }
  // Connectedness: the bags of each vertex must induce a connected subtree.
  std::vector<char> member(n_bags, 0);
  std::vector<char> reached(n_bags, 0);
  std::vector<int> stack;
  for (int v = 0; v < c.num_vertices; ++v) {
    const std::vector<int>& mine = (*bags_of_vertex)[v];
    if (mine.empty()) continue;  // coverage is the caller's (kind-specific) job
    for (int t : mine) member[t] = 1;
    std::size_t count = 1;
    reached[mine.front()] = 1;
    stack.assign(1, mine.front());
    while (!stack.empty()) {
      int t = stack.back();
      stack.pop_back();
      for (int s : tree[t]) {
        if (member[s] && !reached[s]) {
          reached[s] = 1;
          ++count;
          stack.push_back(s);
        }
      }
    }
    for (int t : mine) member[t] = reached[t] = 0;
    if (count != mine.size()) {
      return InvalidArgumentError("certificate: bags of vertex " +
                                  std::to_string(v) +
                                  " are not connected in the tree");
    }
  }
  return Status::Ok();
}

bool BagContains(const std::vector<int>& bag, int v) {
  return std::binary_search(bag.begin(), bag.end(), v);
}

}  // namespace

Status VerifyCertificate(const DecompositionCertificate& c,
                         const UndirectedGraph& graph) {
  if (c.kind != DecompositionKind::kTree) {
    return InvalidArgumentError(
        "certificate: tree verification on a non-tree certificate");
  }
  if (c.num_vertices != static_cast<int>(graph.NumVertices())) {
    return InvalidArgumentError("certificate: vertex count mismatch");
  }
  std::vector<std::vector<int>> bags_of;
  QCONT_RETURN_IF_ERROR(VerifyTreeShape(c, &bags_of));
  // Vertex coverage: every graph vertex occurs in some bag.
  for (int v = 0; v < c.num_vertices; ++v) {
    if (bags_of[v].empty()) {
      return InvalidArgumentError("certificate: vertex " + std::to_string(v) +
                                  " appears in no bag");
    }
  }
  // Edge coverage: both endpoints of every graph edge share a bag.
  for (std::size_t v = 0; v < graph.NumVertices(); ++v) {
    for (int u : graph.Neighbors(static_cast<int>(v))) {
      if (u < static_cast<int>(v)) continue;
      bool covered = false;
      for (int t : bags_of[v]) {
        if (BagContains(c.bags[t], u)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        return InvalidArgumentError("certificate: edge (" + std::to_string(v) +
                                    "," + std::to_string(u) +
                                    ") contained in no bag");
      }
    }
  }
  if (c.claimed_width != c.Width()) {
    return InvalidArgumentError(
        "certificate: claimed width " + std::to_string(c.claimed_width) +
        " does not match actual width " + std::to_string(c.Width()));
  }
  return Status::Ok();
}

Status VerifyCertificate(const DecompositionCertificate& c,
                         const Hypergraph& hypergraph) {
  if (c.kind != DecompositionKind::kGeneralizedHypertree) {
    return InvalidArgumentError(
        "certificate: hypertree verification on a non-hypertree certificate");
  }
  if (c.num_vertices != hypergraph.num_vertices) {
    return InvalidArgumentError("certificate: vertex count mismatch");
  }
  if (c.covers.size() != c.bags.size()) {
    return InvalidArgumentError("certificate: covers not parallel to bags");
  }
  std::vector<std::vector<int>> bags_of;
  QCONT_RETURN_IF_ERROR(VerifyTreeShape(c, &bags_of));
  // Every vertex that occurs in some hyperedge must occur in some bag.
  std::vector<bool> in_some_edge(static_cast<std::size_t>(c.num_vertices),
                                 false);
  for (const std::vector<int>& edge : hypergraph.edges) {
    for (int v : edge) {
      if (v < 0 || v >= c.num_vertices) {
        return InvalidArgumentError("certificate: hyperedge vertex out of range");
      }
      in_some_edge[v] = true;
    }
  }
  for (int v = 0; v < c.num_vertices; ++v) {
    if (in_some_edge[v] && bags_of[v].empty()) {
      return InvalidArgumentError("certificate: vertex " + std::to_string(v) +
                                  " appears in no bag");
    }
  }
  // Hyperedge coverage: each hyperedge is contained in some bag.
  for (std::size_t e = 0; e < hypergraph.edges.size(); ++e) {
    const std::vector<int>& edge = hypergraph.edges[e];
    bool covered = edge.empty();
    if (!covered) {
      for (int t : bags_of[edge.front()]) {
        if (std::includes(c.bags[t].begin(), c.bags[t].end(), edge.begin(),
                          edge.end())) {
          covered = true;
          break;
        }
      }
    }
    if (!covered) {
      return InvalidArgumentError("certificate: hyperedge " +
                                  std::to_string(e) + " contained in no bag");
    }
  }
  // Cover condition: each bag lies inside the union of its cover edges
  // (covered_by[v] == t marks v as covered for bag t).
  std::vector<int> covered_by(static_cast<std::size_t>(c.num_vertices), -1);
  for (std::size_t t = 0; t < c.bags.size(); ++t) {
    for (int e : c.covers[t]) {
      if (e < 0 || e >= static_cast<int>(hypergraph.edges.size())) {
        return InvalidArgumentError("certificate: cover edge index out of range");
      }
      for (int v : hypergraph.edges[e]) covered_by[v] = static_cast<int>(t);
    }
    for (int v : c.bags[t]) {
      if (!in_some_edge[v]) continue;  // isolated vertices need no cover
      if (covered_by[v] != static_cast<int>(t)) {
        return InvalidArgumentError(
            "certificate: bag " + std::to_string(t) + " vertex " +
            std::to_string(v) + " not covered by its hyperedges");
      }
    }
  }
  if (c.claimed_width != c.Width()) {
    return InvalidArgumentError(
        "certificate: claimed width " + std::to_string(c.claimed_width) +
        " does not match actual width " + std::to_string(c.Width()));
  }
  return Status::Ok();
}

namespace {

std::vector<std::set<int>> CopyAdjacency(const UndirectedGraph& g) {
  std::vector<std::set<int>> adj(g.NumVertices());
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    adj[v] = g.Neighbors(static_cast<int>(v));
  }
  return adj;
}

void EliminateWithFill(std::vector<std::set<int>>* adj, int v) {
  std::vector<int> nbrs((*adj)[v].begin(), (*adj)[v].end());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      (*adj)[nbrs[i]].insert(nbrs[j]);
      (*adj)[nbrs[j]].insert(nbrs[i]);
    }
  }
  for (int u : nbrs) (*adj)[u].erase(v);
  (*adj)[v].clear();
}

// |N(v)| in the fill graph once the vertices of `eliminated_mask` are gone:
// vertices outside the mask reachable from v via paths whose internal
// vertices all lie inside the mask.
int FillNeighborhoodSize(const UndirectedGraph& g, int v,
                         std::uint32_t eliminated_mask) {
  std::uint32_t visited = 1u << v;
  std::uint32_t reached = 0;
  std::vector<int> stack = {v};
  while (!stack.empty()) {
    int x = stack.back();
    stack.pop_back();
    for (int u : g.Neighbors(x)) {
      std::uint32_t bit = 1u << u;
      if (visited & bit) continue;
      visited |= bit;
      if (eliminated_mask & bit) {
        stack.push_back(u);
      } else {
        reached |= bit;
      }
    }
  }
  return __builtin_popcount(reached);
}

}  // namespace

std::vector<int> MinDegreeOrder(const UndirectedGraph& g) {
  std::vector<std::set<int>> adj = CopyAdjacency(g);
  std::vector<bool> eliminated(g.NumVertices(), false);
  std::vector<int> order;
  order.reserve(g.NumVertices());
  for (std::size_t round = 0; round < g.NumVertices(); ++round) {
    int best = -1;
    std::size_t best_degree = std::numeric_limits<std::size_t>::max();
    for (std::size_t v = 0; v < g.NumVertices(); ++v) {
      if (eliminated[v]) continue;
      if (adj[v].size() < best_degree) {
        best_degree = adj[v].size();
        best = static_cast<int>(v);
      }
    }
    eliminated[best] = true;
    order.push_back(best);
    EliminateWithFill(&adj, best);
  }
  return order;
}

int DegeneracyLowerBound(const UndirectedGraph& g) {
  // Min-degree elimination *without* fill; the largest minimum degree seen
  // is the degeneracy, a treewidth lower bound.
  std::vector<std::set<int>> adj = CopyAdjacency(g);
  std::vector<bool> removed(g.NumVertices(), false);
  int bound = 0;
  for (std::size_t round = 0; round < g.NumVertices(); ++round) {
    int best = -1;
    std::size_t best_degree = std::numeric_limits<std::size_t>::max();
    for (std::size_t v = 0; v < g.NumVertices(); ++v) {
      if (removed[v]) continue;
      if (adj[v].size() < best_degree) {
        best_degree = adj[v].size();
        best = static_cast<int>(v);
      }
    }
    bound = std::max(bound, static_cast<int>(best_degree));
    removed[best] = true;
    for (int u : adj[best]) adj[u].erase(best);
    adj[best].clear();
  }
  return bound;
}

namespace {

// Depth-first branch-and-bound: find an elimination order whose bags all
// have at most `k + 1` vertices. `failed` memoizes eliminated-sets from
// which no completion exists at this k.
bool OrderWithinWidth(const UndirectedGraph& g, int k, std::uint32_t mask,
                      int remaining, std::unordered_set<std::uint32_t>* failed,
                      std::vector<int>* order) {
  const int n = static_cast<int>(g.NumVertices());
  if (remaining == 0) return true;
  if (remaining <= k + 1) {
    // Any order of the rest produces bags of at most `remaining` vertices.
    for (int v = 0; v < n; ++v) {
      if (!(mask & (1u << v))) order->push_back(v);
    }
    return true;
  }
  if (failed->count(mask)) return false;
  for (int v = 0; v < n; ++v) {
    const std::uint32_t bit = 1u << v;
    if (mask & bit) continue;
    if (FillNeighborhoodSize(g, v, mask) > k) continue;
    order->push_back(v);
    if (OrderWithinWidth(g, k, mask | bit, remaining - 1, failed, order)) {
      return true;
    }
    order->pop_back();
  }
  failed->insert(mask);
  return false;
}

}  // namespace

Result<std::vector<int>> ExactEliminationOrder(const UndirectedGraph& g,
                                               int max_vertices) {
  const int n = static_cast<int>(g.NumVertices());
  if (n > max_vertices || n > 30) {
    return ResourceExhaustedError(
        "exact elimination order limited to " + std::to_string(max_vertices) +
        " vertices, got " + std::to_string(n));
  }
  if (n == 0) return std::vector<int>{};
  // Upper bound: the better heuristic order.
  std::vector<int> best_order = MinFillOrder(g);
  int ub = DecompositionFromOrder(g, best_order).Width();
  {
    std::vector<int> md = MinDegreeOrder(g);
    int w = DecompositionFromOrder(g, md).Width();
    if (w < ub) {
      ub = w;
      best_order = std::move(md);
    }
  }
  // Iterative deepening from the degeneracy lower bound: the first k that
  // admits an order is the treewidth.
  for (int k = DegeneracyLowerBound(g); k < ub; ++k) {
    std::unordered_set<std::uint32_t> failed;
    std::vector<int> order;
    order.reserve(g.NumVertices());
    if (OrderWithinWidth(g, k, 0, n, &failed, &order)) return order;
  }
  return best_order;  // no k < ub succeeded, so the heuristic was optimal
}

namespace {

DecompositionCertificate CertificateFromTreeDecomposition(
    const TreeDecomposition& td, DecompositionMethod method, int num_vertices,
    bool exact) {
  DecompositionCertificate c;
  c.kind = DecompositionKind::kTree;
  c.method = method;
  c.num_vertices = num_vertices;
  c.bags = td.bags;
  c.edges = td.edges;
  c.claimed_width = c.Width();
  c.exact = exact;
  return c;
}

}  // namespace

DecompositionCertificate DecomposeGraph(const UndirectedGraph& g,
                                        const DecomposeOptions& options) {
  ObsSpan span(options.obs, "decomp/build", "structure");
  DecompositionCertificate out;
  const int n = static_cast<int>(g.NumVertices());
  if (n <= options.exact_max_vertices) {
    Result<std::vector<int>> order = ExactEliminationOrder(
        g, options.exact_max_vertices);
    QCONT_CHECK(order.ok());
    out = CertificateFromTreeDecomposition(
        DecompositionFromOrder(g, *order),
        DecompositionMethod::kExactBranchAndBound, n, /*exact=*/true);
  } else {
    TreeDecomposition fill = DecompositionFromOrder(g, MinFillOrder(g));
    TreeDecomposition degree = DecompositionFromOrder(g, MinDegreeOrder(g));
    if (degree.Width() < fill.Width()) {
      out = CertificateFromTreeDecomposition(
          degree, DecompositionMethod::kMinDegree, n, /*exact=*/false);
    } else {
      out = CertificateFromTreeDecomposition(
          fill, DecompositionMethod::kMinFill, n, /*exact=*/false);
    }
  }
  // A certificate that fails its own verifier is a builder bug, never an
  // input property: fail fast.
  Status verified = VerifyCertificate(out, g);
  QCONT_CHECK(verified.ok());
  ObsCount(options.obs, "analysis.decompositions", 1);
  ObsCount(options.obs, "analysis.certificates_verified", 1);
  span.AddArg("vertices", static_cast<std::uint64_t>(n));
  span.AddArg("width", static_cast<std::uint64_t>(
                           std::max(0, out.claimed_width)));
  span.AddArg("exact", out.exact ? 1 : 0);
  return out;
}

DecompositionCertificate DecomposeHypergraph(const Hypergraph& h,
                                             const DecomposeOptions& options) {
  return DecomposeHypergraph(h, DecomposeGraph(h.PrimalGraph(), options),
                             options);
}

DecompositionCertificate DecomposeHypergraph(
    const Hypergraph& h, DecompositionCertificate tree,
    const DecomposeOptions& options) {
  ObsSpan span(options.obs, "decomp/build_hypertree", "structure");
  DecompositionCertificate out;
  out.kind = DecompositionKind::kGeneralizedHypertree;
  out.method = DecompositionMethod::kSetCover;
  out.num_vertices = h.num_vertices;
  out.bags = std::move(tree.bags);
  out.edges = std::move(tree.edges);
  out.covers.resize(out.bags.size());
  std::vector<bool> in_some_edge(static_cast<std::size_t>(h.num_vertices),
                                 false);
  for (const std::vector<int>& edge : h.edges) {
    for (int v : edge) in_some_edge[v] = true;
  }
  for (std::size_t t = 0; t < out.bags.size(); ++t) {
    // Greedy set cover of the bag by hyperedges: repeatedly take the edge
    // covering the most still-uncovered bag vertices (lowest index on ties,
    // for determinism).
    std::set<int> uncovered;
    for (int v : out.bags[t]) {
      if (in_some_edge[v]) uncovered.insert(v);
    }
    while (!uncovered.empty()) {
      int best_edge = -1;
      int best_gain = 0;
      for (std::size_t e = 0; e < h.edges.size(); ++e) {
        int gain = 0;
        for (int v : h.edges[e]) gain += uncovered.count(v) ? 1 : 0;
        if (gain > best_gain) {
          best_gain = gain;
          best_edge = static_cast<int>(e);
        }
      }
      QCONT_CHECK(best_edge >= 0);  // every vertex here is in some edge
      out.covers[t].push_back(best_edge);
      for (int v : h.edges[best_edge]) uncovered.erase(v);
    }
  }
  out.claimed_width = out.Width();
  // ghw >= 1 whenever some hyperedge is nonempty, so a width-1 cover (which
  // certifies acyclicity) is already optimal; wider covers are heuristic.
  out.exact = out.claimed_width <= 1;
  Status verified = VerifyCertificate(out, h);
  QCONT_CHECK(verified.ok());
  ObsCount(options.obs, "analysis.decompositions", 1);
  ObsCount(options.obs, "analysis.certificates_verified", 1);
  span.AddArg("hyperedges", h.edges.size());
  span.AddArg("ghw", static_cast<std::uint64_t>(out.claimed_width));
  return out;
}

Result<DecompositionCertificate> CertificateFromJoinTree(
    const ConjunctiveQuery& cq, const JoinTree& join_tree) {
  return CertificateFromJoinTree(CqHypergraph(cq), join_tree);
}

Result<DecompositionCertificate> CertificateFromJoinTree(
    const Hypergraph& h, const JoinTree& join_tree) {
  if (join_tree.parent.size() != h.edges.size()) {
    return InternalError("join tree size does not match the query");
  }
  DecompositionCertificate c;
  c.kind = DecompositionKind::kGeneralizedHypertree;
  c.method = DecompositionMethod::kJoinTree;
  c.num_vertices = h.num_vertices;
  c.bags = h.edges;  // bag i = variables of atom i, already sorted
  c.covers.resize(c.bags.size());
  for (std::size_t i = 0; i < c.bags.size(); ++i) {
    c.covers[i] = {static_cast<int>(i)};
  }
  for (std::size_t i = 0; i < join_tree.parent.size(); ++i) {
    if (join_tree.parent[i] >= 0) {
      c.edges.emplace_back(static_cast<int>(i), join_tree.parent[i]);
    }
  }
  c.claimed_width = c.Width();
  c.exact = true;  // width 1 = acyclicity, which the join tree witnesses
  QCONT_RETURN_IF_ERROR(VerifyCertificate(c, h));
  return c;
}

}  // namespace qcont
