// E10 — substrate benchmark: (acyclic) C2RPQ evaluation over graph
// databases [Section 5.2 / reference 3 of the paper]. Generic NP
// backtracking vs the Yannakakis-based acyclic evaluator over the
// materialized 2RPQ relations, plus the raw product-BFS 2RPQ primitive.

#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "automata/nfa.h"
#include "graphdb/c2rpq.h"
#include "graphdb/graph_db.h"
#include "graphdb/rpq.h"
#include "bench/workloads.h"
#include "parser/parser.h"

namespace qcont {
namespace {

GraphDatabase RandomGraph(int nodes, int edges_per_label, unsigned seed) {
  std::mt19937 rng(seed);
  GraphDatabase g;
  for (const char* label : {"a", "b"}) {
    for (int i = 0; i < edges_per_label; ++i) {
      g.AddEdge(bench::Numbered("n", rng() % nodes), label,
                bench::Numbered("n", rng() % nodes));
    }
  }
  return g;
}

void BM_RpqProductBfs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GraphDatabase g = RandomGraph(n, 2 * n, 7);
  auto nfa = ParseRegex("(a|b)* a");
  RpqEvalStats stats;
  std::size_t pairs = 0;
  for (auto _ : state) {
    stats = RpqEvalStats();
    pairs = EvaluateRpq(*nfa, g, &stats).size();
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["product_states"] = static_cast<double>(stats.product_states);
}
BENCHMARK(BM_RpqProductBfs)->DenseRange(8, 40, 8);

// Chain-shaped C2RPQ of m atoms over a random graph: generic vs acyclic.
std::string ChainC2rpq(int m) {
  std::string text = "Q(x0) :- ";
  for (int i = 0; i < m; ++i) {
    if (i > 0) text += ", ";
    text += std::string(i % 2 == 0 ? "[a+]" : "[b a*]") + "(x" +
            std::to_string(i) + ",x" + std::to_string(i + 1) + ")";
  }
  text += ".";
  return text;
}

void BM_C2rpqGeneric(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  GraphDatabase g = RandomGraph(16, 40, 11);
  auto q = ParseUC2rpq(ChainC2rpq(m));
  std::size_t answers = 0;
  for (auto _ : state) {
    answers = EvaluateC2rpq(q->disjuncts().front(), g)->size();
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_C2rpqGeneric)->DenseRange(1, 6, 1);

void BM_C2rpqAcyclic(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  GraphDatabase g = RandomGraph(16, 40, 11);
  auto q = ParseUC2rpq(ChainC2rpq(m));
  std::size_t answers = 0;
  for (auto _ : state) {
    answers = EvaluateAcyclicC2rpq(q->disjuncts().front(), g)->size();
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_C2rpqAcyclic)->DenseRange(1, 6, 1);

// Boolean star query with a growing fan of constraints on one center.
void BM_C2rpqStar(benchmark::State& state) {
  const int fan = static_cast<int>(state.range(0));
  GraphDatabase g = RandomGraph(16, 40, 13);
  std::string text = "Q() :- [a](c,l0)";
  for (int i = 1; i < fan; ++i) {
    text += ", [" + std::string(i % 2 == 0 ? "a b" : "b") + "](c,l" +
            std::to_string(i) + ")";
  }
  text += ".";
  auto q = ParseUC2rpq(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateAcyclicC2rpq(q->disjuncts().front(), g)->size());
  }
}
BENCHMARK(BM_C2rpqStar)->DenseRange(1, 5, 1);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
