#include "cq/core.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cq/small_cq.h"

namespace qcont {

Result<ConjunctiveQuery> CoreOf(const ConjunctiveQuery& cq) {
  const ConjunctiveQuery* const one = &cq;
  SmallUcq small;
  QCONT_RETURN_IF_ERROR(small.Compile(&one, 1));
  if (!small.FoldToCore(0) && !small.HadDuplicates(0)) return cq;
  return small.Build(0);
}

Result<bool> IsCore(const ConjunctiveQuery& cq) {
  const ConjunctiveQuery* const one = &cq;
  SmallUcq small;
  QCONT_RETURN_IF_ERROR(small.Compile(&one, 1));
  return !small.FoldToCore(0);
}

Result<std::optional<UnionQuery>> MinimizeUnionQuery(const UnionQuery& ucq) {
  const std::vector<ConjunctiveQuery>& disjuncts = ucq.disjuncts();
  const std::size_t n = disjuncts.size();
  StackBuffer<const ConjunctiveQuery*, 16> cqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (disjuncts[i].arity() != disjuncts[0].arity()) {
      return InvalidArgumentError("UCQ disjuncts have different arities");
    }
    cqs[i] = &disjuncts[i];
  }
  SmallUcq small;
  QCONT_RETURN_IF_ERROR(small.Compile(cqs.data(), n));
  bool changed = false;
  for (std::size_t i = 0; i < n; ++i) {
    const bool folded = small.FoldToCore(i);
    changed = changed || folded || small.HadDuplicates(i);
  }
  StackBuffer<std::uint8_t, 16> dead(n);
  std::fill(dead.data(), dead.data() + n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n && dead[i] == 0; ++j) {
      if (j == i || dead[j] != 0 || !small.Contained(i, j)) continue;
      if (j < i || !small.Contained(j, i)) {
        // Subsumed by (or equivalent to) an earlier survivor, or strictly
        // subsumed by a later disjunct.
        dead[i] = 1;
        changed = true;
      }
    }
  }
  if (!changed) return std::optional<UnionQuery>();
  std::vector<ConjunctiveQuery> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] == 0) kept.push_back(small.Build(i));
  }
  return std::optional<UnionQuery>(UnionQuery(std::move(kept)));
}

}  // namespace qcont
