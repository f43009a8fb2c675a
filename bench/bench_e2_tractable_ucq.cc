// E2 — Theorems 3/4 (via Proposition 1): CONT(UCQ, C) is PTIME for
// tractable C. Series: the same containment instances solved by (a) the
// generic NP backtracking test, (b) Yannakakis on the acyclic right-hand
// side, (c) the bounded-treewidth dynamic program. The paper's claim shows
// as polynomial growth for (b)/(c) where (a) degrades.

#include <benchmark/benchmark.h>

#include "bench/workloads.h"
#include "cq/containment.h"
#include "structure/acyclic_eval.h"
#include "structure/decomp_eval.h"

namespace qcont {
namespace {

// LHS: the section-3 covered clique (acyclic, wide); RHS: chain of length n.
// Containment holds: the chain folds into the clique edges.
ConjunctiveQuery Lhs(int n) { return bench::CoveredCliqueCq(n); }

void BM_GenericNp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ConjunctiveQuery lhs = Lhs(5);
  ConjunctiveQuery rhs = bench::ChainCq(n);
  HomSearchStats stats;
  for (auto _ : state) {
    stats = HomSearchStats();
    benchmark::DoNotOptimize(*CqContained(lhs, rhs, &stats));
  }
  state.counters["atom_attempts"] = static_cast<double>(stats.atom_attempts);
}
BENCHMARK(BM_GenericNp)->DenseRange(2, 12, 2);

void BM_YannakakisAcyclicRhs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ConjunctiveQuery lhs = Lhs(5);
  ConjunctiveQuery rhs = bench::ChainCq(n);
  YannakakisStats stats;
  for (auto _ : state) {
    stats = YannakakisStats();
    benchmark::DoNotOptimize(*CqContainedAcyclicRhs(lhs, rhs, &stats));
  }
  state.counters["semijoins"] = static_cast<double>(stats.semijoins);
  state.counters["tuples_scanned"] = static_cast<double>(stats.tuples_scanned);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
}
BENCHMARK(BM_YannakakisAcyclicRhs)->DenseRange(2, 12, 2);

void BM_BoundedWidthRhs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ConjunctiveQuery lhs = Lhs(5);
  ConjunctiveQuery rhs = bench::ChainCq(n);
  DecompEvalStats stats;
  for (auto _ : state) {
    stats = DecompEvalStats();
    benchmark::DoNotOptimize(*CqContainedBoundedTwRhs(lhs, rhs, &stats));
  }
  state.counters["bag_assignments"] = static_cast<double>(stats.bag_assignments);
  state.counters["width"] = stats.width_used;
}
BENCHMARK(BM_BoundedWidthRhs)->DenseRange(2, 12, 2);

// TW(2) right-hand sides (chain with a chord closing each window): still
// PTIME via the DP, while staying outside AC.
void BM_BoundedWidthTw2Rhs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Atom> atoms;
  for (int i = 0; i < n; ++i) {
    atoms.emplace_back("e", std::vector<Term>{
                                Term::Variable(bench::Numbered("x", i)),
                                Term::Variable(bench::Numbered("x", i + 1))});
  }
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("x0"),
                                            Term::Variable(bench::Numbered("x", n))});
  ConjunctiveQuery rhs({}, std::move(atoms));  // cycle: TW(2)
  ConjunctiveQuery lhs({}, {Atom("e", {Term::Variable("s"), Term::Variable("s")})});
  DecompEvalStats stats;
  for (auto _ : state) {
    stats = DecompEvalStats();
    benchmark::DoNotOptimize(*CqContainedBoundedTwRhs(lhs, rhs, &stats));
  }
  state.counters["bag_assignments"] = static_cast<double>(stats.bag_assignments);
  state.counters["width"] = stats.width_used;
}
BENCHMARK(BM_BoundedWidthTw2Rhs)->DenseRange(3, 11, 2);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
