// E3 — Theorem 2: the general CONT(Datalog, UCQ) engine (Chaudhuri-Vardi in
// type-automaton form). Series: runtime and reachable-type counts as the
// UCQ grows; the type space is the doubly-exponential object, so the
// `types`/`elements` counters are the machine-independent signal. Also
// exercises cyclic UCQs, which only this engine handles (Theorem 5 says
// restricting to TW(2)/HW(2) would not help).

#include <benchmark/benchmark.h>

#include "bench/workloads.h"
#include "core/datalog_ucq.h"

namespace qcont {
namespace {

// TC ⊆ union of chains of length 1..m — false for every m; the engine must
// explore the full type space to find the escaping expansion.
void BM_TcVsChainUnion(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = bench::ChainUnion(m);
  TypeEngineStats stats;
  for (auto _ : state) {
    stats = TypeEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInUcq(tc, ucq, &stats));
  }
  state.counters["types"] = static_cast<double>(stats.types);
  state.counters["elements"] = static_cast<double>(stats.elements);
  state.counters["combos"] = static_cast<double>(stats.combos);
}
BENCHMARK(BM_TcVsChainUnion)->DenseRange(1, 5, 1);

// Stride program vs chain union: contained for stride 1, refuted otherwise;
// the stride scales the program side.
void BM_StrideVsChains(benchmark::State& state) {
  const int stride = static_cast<int>(state.range(0));
  DatalogProgram program = bench::StrideProgram(stride);
  UnionQuery ucq = bench::ChainUnion(2);
  TypeEngineStats stats;
  for (auto _ : state) {
    stats = TypeEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInUcq(program, ucq, &stats));
  }
  state.counters["types"] = static_cast<double>(stats.types);
  state.counters["enumeration_steps"] =
      static_cast<double>(stats.enumeration_steps);
}
BENCHMARK(BM_StrideVsChains)->DenseRange(1, 5, 1);

// Cyclic right-hand side (out of reach for the ACk engine): does some
// expansion of TC contain a k-cycle? Never, so containment fails with a
// one-edge witness; the cost is in the element enumeration over the cycle.
void BM_TcVsCycle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  std::vector<Atom> atoms;
  for (int i = 0; i < k; ++i) {
    atoms.emplace_back("e", std::vector<Term>{
                                Term::Variable(bench::Numbered("c", i)),
                                Term::Variable(bench::Numbered("c", (i + 1) % k))});
  }
  // Make arities match: free endpoints via separate edge atoms.
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("x"),
                                            Term::Variable("c0")});
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("c0"),
                                            Term::Variable("y")});
  UnionQuery ucq({ConjunctiveQuery({Term::Variable("x"), Term::Variable("y")},
                                   std::move(atoms))});
  TypeEngineStats stats;
  for (auto _ : state) {
    stats = TypeEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInUcq(tc, ucq, &stats));
  }
  state.counters["types"] = static_cast<double>(stats.types);
  state.counters["elements"] = static_cast<double>(stats.elements);
}
BENCHMARK(BM_TcVsCycle)->DenseRange(3, 7, 1);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
