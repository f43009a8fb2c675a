// E1 — Theorem 1: CONT(UCQ, UCQ) with the generic (NP) Chandra-Merlin /
// Sagiv-Yannakakis procedure. Series: runtime and backtracking effort as
// the query size grows; cliques on the right-hand side are the hard case.

#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "bench/workloads.h"
#include "cq/containment.h"
#include "obs/obs.h"

namespace qcont {
namespace {

// Chain ⊆ chain: the easy (acyclic target) regime of the NP test.
void BM_ChainInChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ConjunctiveQuery lhs = bench::ChainCq(2 * n);
  ConjunctiveQuery rhs = bench::ChainCq(n);
  HomSearchStats stats;
  bool contained = false;
  for (auto _ : state) {
    stats = HomSearchStats();
    contained = *CqContained(lhs, rhs, &stats);
  }
  state.counters["contained"] = contained ? 1 : 0;
  state.counters["atom_attempts"] = static_cast<double>(stats.atom_attempts);
}
BENCHMARK(BM_ChainInChain)->DenseRange(2, 14, 2);

// Clique ⊆ clique: the combinatorial regime (contained, but the search must
// find an automorphism-like mapping among n! candidates).
void BM_CliqueInClique(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ConjunctiveQuery lhs = bench::CliqueCq(n + 1);
  ConjunctiveQuery rhs = bench::CliqueCq(n);
  HomSearchStats stats;
  bool contained = false;
  for (auto _ : state) {
    stats = HomSearchStats();
    contained = *CqContained(lhs, rhs, &stats);
  }
  state.counters["contained"] = contained ? 1 : 0;
  state.counters["atom_attempts"] = static_cast<double>(stats.atom_attempts);
}
BENCHMARK(BM_CliqueInClique)->DenseRange(3, 7, 1);

// Headline E1 series: UCQ ⊆ UCQ over chain families at growing chain
// length. Every disjunct pair is decided by the Chandra-Merlin test on the
// small-CQ kernel (the right chain searched on the frozen left chain); the
// first two right-hand disjuncts are too long to fold into the left
// chains, so the Sagiv-Yannakakis loop walks them to refutation before the
// fitting disjunct succeeds. One candidate per atom once the start
// variable is pinned.
void BM_UcqContainment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::vector<ConjunctiveQuery> lhs_cqs, rhs_cqs;
  for (int i = 0; i < 2; ++i) {
    lhs_cqs.push_back(bench::ChainCq(2 * n + 2 * i, "e", 1));
  }
  rhs_cqs.push_back(bench::ChainCq(4 * n, "e", 1));  // refuted
  rhs_cqs.push_back(bench::ChainCq(3 * n, "e", 1));  // refuted
  rhs_cqs.push_back(bench::ChainCq(n, "e", 1));      // folds in
  UnionQuery lhs(lhs_cqs), rhs(rhs_cqs);
  HomSearchOptions options;
  options.exec.threads = threads;
  HomSearchStats stats;
  bool contained = false;
  for (auto _ : state) {
    stats = HomSearchStats();
    contained = *UcqContained(lhs, rhs, &stats, options);
  }
  // The determinism contract makes every counter identical across the
  // threads rows; only the time series varies.
  state.counters["contained"] = contained ? 1 : 0;
  state.counters["threads"] = threads;
  state.counters["atom_attempts"] = static_cast<double>(stats.atom_attempts);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["index_candidates"] =
      static_cast<double>(stats.index_candidates);
  state.counters["scan_candidates"] =
      static_cast<double>(stats.scan_candidates);
  // One instrumented pass outside the timed loop: per-phase wall time from
  // the span totals (grid = whole disjunct-pair sweep, pair = the per-pair
  // Chandra-Merlin tests inside it), plus an optional trace file.
  {
    TraceSession trace;
    ObsContext obs{nullptr, &trace};
    HomSearchOptions traced = options;
    traced.obs = &obs;
    benchmark::DoNotOptimize(*UcqContained(lhs, rhs, nullptr, traced));
    auto totals = trace.DurationTotalsUs();
    state.counters["t_grid_us"] = totals["ucq/grid"];
    // Serial sweeps emit ucq/pair, the parallel grid emits ucq/grid_cell;
    // both are "one disjunct pair decided", so the column sums them.
    state.counters["t_pairs_us"] = totals["ucq/pair"] + totals["ucq/grid_cell"];
    bench::MaybeWriteTrace(trace, bench::Numbered("e1_ucq_n", n) + "_t" +
                                      std::to_string(threads));
  }
}
// Every size at threads=1 (the shape-check rows) and at BenchThreads().
void UcqContainmentArgs(benchmark::internal::Benchmark* b) {
  for (int n = 8; n <= 64; n *= 2) {
    b->Args({n, 1});
    b->Args({n, bench::BenchThreads()});
  }
}
BENCHMARK(BM_UcqContainment)->Apply(UcqContainmentArgs);

// Random UCQ vs UCQ containment at growing disjunct counts.
void BM_RandomUnionContainment(benchmark::State& state) {
  const int disjuncts = static_cast<int>(state.range(0));
  std::mt19937 rng(12345);
  std::vector<ConjunctiveQuery> lhs_cqs, rhs_cqs;
  for (int i = 0; i < disjuncts; ++i) {
    lhs_cqs.push_back(bench::ChainCq(3 + (i % 3), "e", 1));
    rhs_cqs.push_back(bench::ChainCq(1 + (i % 4), "e", 1));
  }
  UnionQuery lhs(lhs_cqs), rhs(rhs_cqs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*UcqContained(lhs, rhs));
  }
}
BENCHMARK(BM_RandomUnionContainment)->DenseRange(2, 10, 2);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
