#include "structure/classify.h"

#include <algorithm>
#include <vector>

#include "structure/decomposition.h"
#include "structure/graph.h"
#include "structure/join_tree.h"
#include "structure/tree_decomposition.h"

namespace qcont {

int MaxSharedVariables(const ConjunctiveQuery& cq) {
  return MaxSharedVertices(CqHypergraph(cq));
}

Result<CqClassification> ClassifyCq(const ConjunctiveQuery& cq) {
  QCONT_RETURN_IF_ERROR(cq.Validate());
  CqClassification out;
  out.acyclic = IsAcyclic(cq);
  UndirectedGraph g = GaifmanGraph(cq);
  // Route through the certified decomposition builder: the reported width is
  // the (verified) width of an actual decomposition, never a bare number.
  DecompositionCertificate cert = DecomposeGraph(g);
  out.treewidth = std::max(0, cert.claimed_width);
  out.treewidth_exact = cert.exact;
  out.max_shared_vars = MaxSharedVariables(cq);
  return out;
}

Result<CqClassification> ClassifyUcq(const UnionQuery& ucq) {
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  CqClassification out;
  out.acyclic = true;
  out.treewidth = 0;
  out.treewidth_exact = true;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    QCONT_ASSIGN_OR_RETURN(CqClassification c, ClassifyCq(cq));
    out.acyclic = out.acyclic && c.acyclic;
    out.treewidth = std::max(out.treewidth, c.treewidth);
    out.treewidth_exact = out.treewidth_exact && c.treewidth_exact;
    out.max_shared_vars = std::max(out.max_shared_vars, c.max_shared_vars);
  }
  return out;
}

Result<bool> InTreewidthClass(const UnionQuery& ucq, int k) {
  QCONT_ASSIGN_OR_RETURN(CqClassification c, ClassifyUcq(ucq));
  if (c.treewidth <= k) return true;
  if (!c.treewidth_exact) {
    // The bound is only an upper bound; for large queries membership could
    // still hold. Report honestly.
    return FailedPreconditionError(
        "treewidth upper bound " + std::to_string(c.treewidth) +
        " exceeds k and the query is too large for the exact algorithm");
  }
  return false;
}

Result<bool> IsAcyclicUcq(const UnionQuery& ucq) {
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    if (!IsAcyclic(cq)) return false;
  }
  return true;
}

Result<int> AckLevel(const UnionQuery& ucq) {
  QCONT_ASSIGN_OR_RETURN(bool acyclic, IsAcyclicUcq(ucq));
  if (!acyclic) {
    return FailedPreconditionError("UCQ is not acyclic; ACk is undefined");
  }
  int k = 1;  // by convention AC1 is the lowest level of the hierarchy
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    k = std::max(k, MaxSharedVariables(cq));
  }
  return k;
}

std::string DescribeClassification(const CqClassification& c) {
  std::string out;
  out += c.acyclic ? "acyclic (AC" + std::to_string(std::max(1, c.max_shared_vars)) + ")"
                   : "cyclic";
  out += ", treewidth ";
  out += c.treewidth_exact ? "" : "<= ";
  out += std::to_string(c.treewidth);
  return out;
}

}  // namespace qcont
