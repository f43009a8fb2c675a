// E5 — Corollary 1: fixed-arity acyclic UCQs (∈ ACc) and TW(1) UCQs
// (⊆ AC2) are decided in EXPTIME by routing to the ACk engine. Measures
// the routed end-to-end cost (classification + engine) and confirms the
// route taken.

#include <benchmark/benchmark.h>

#include "bench/workloads.h"
#include "core/router.h"

namespace qcont {
namespace {

// Arity-2 schema, acyclic UCQ: Corollary 1(1) territory.
void BM_Routed_FixedArityAcyclic(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = bench::ChainUnion(m);
  ContainmentRoute route = ContainmentRoute::kGeneralEngine;
  for (auto _ : state) {
    auto routed = DecideContainment(tc, ucq);
    route = routed->route;
    benchmark::DoNotOptimize(routed->answer.contained);
  }
  state.counters["routed_to_ack"] =
      route == ContainmentRoute::kAckEngine ? 1 : 0;
}
BENCHMARK(BM_Routed_FixedArityAcyclic)->DenseRange(1, 5, 1);

// TW(1) UCQ (a star query): Corollary 1(2) — routes to the ACk engine with
// k <= 2.
void BM_Routed_TreewidthOneStar(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  std::vector<Atom> atoms;
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("x"),
                                            Term::Variable("y")});
  for (int i = 0; i < leaves; ++i) {
    atoms.emplace_back("e", std::vector<Term>{
                                Term::Variable("x"),
                                Term::Variable(bench::Numbered("l", i))});
  }
  UnionQuery ucq({ConjunctiveQuery({Term::Variable("x"), Term::Variable("y")},
                                   std::move(atoms))});
  int k = 0;
  for (auto _ : state) {
    auto routed = DecideContainment(tc, ucq);
    k = routed->ack_level;
    benchmark::DoNotOptimize(routed->answer.contained);
  }
  state.counters["ack_level"] = k;
}
BENCHMARK(BM_Routed_TreewidthOneStar)->DenseRange(1, 6, 1);

// A cyclic disjunct forces the general route — the cost of leaving the
// tractable island (Theorem 5's message).
void BM_Routed_CyclicFallback(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  std::vector<Atom> atoms;
  for (int i = 0; i < k; ++i) {
    atoms.emplace_back("e", std::vector<Term>{
                                Term::Variable(bench::Numbered("c", i)),
                                Term::Variable(bench::Numbered("c", (i + 1) % k))});
  }
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("x"),
                                            Term::Variable("y")});
  UnionQuery ucq({ConjunctiveQuery({Term::Variable("x"), Term::Variable("y")},
                                   std::move(atoms))});
  ContainmentRoute route = ContainmentRoute::kAckEngine;
  for (auto _ : state) {
    auto routed = DecideContainment(tc, ucq);
    route = routed->route;
    benchmark::DoNotOptimize(routed->answer.contained);
  }
  state.counters["routed_to_general"] =
      route == ContainmentRoute::kGeneralEngine ? 1 : 0;
}
BENCHMARK(BM_Routed_CyclicFallback)->DenseRange(3, 6, 1);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
