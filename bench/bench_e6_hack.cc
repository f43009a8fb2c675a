// E6 — Propositions 3/4: H(ACk) — containment modulo equivalence. The
// normalization (drop subsumed disjuncts, take cores) is NP-hard in
// principle; the series measures its cost on increasingly padded queries
// and the payoff: after normalization the EXPTIME engine applies.

#include <benchmark/benchmark.h>

#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "core/hack.h"
#include "cq/core.h"

namespace qcont {
namespace {

// A padded query: an acyclic core (chain of length 2) plus `pad` existential
// triangle gadgets, each dominated by a self-loop, so everything folds away.
UnionQuery PaddedQuery(int pad) {
  std::vector<Atom> atoms;
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("x"),
                                            Term::Variable("m")});
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("m"),
                                            Term::Variable("y")});
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("s"),
                                            Term::Variable("s")});
  for (int i = 0; i < pad; ++i) {
    std::string a = bench::Numbered("a", i), b = bench::Numbered("b", i),
                c = bench::Numbered("c", i);
    atoms.emplace_back("e", std::vector<Term>{Term::Variable(a), Term::Variable(b)});
    atoms.emplace_back("e", std::vector<Term>{Term::Variable(b), Term::Variable(c)});
    atoms.emplace_back("e", std::vector<Term>{Term::Variable(c), Term::Variable(a)});
  }
  return UnionQuery({ConjunctiveQuery(
      {Term::Variable("x"), Term::Variable("y")}, std::move(atoms))});
}

void BM_CoreComputation(benchmark::State& state) {
  const int pad = static_cast<int>(state.range(0));
  UnionQuery ucq = PaddedQuery(pad);
  std::size_t core_atoms = 0;
  for (auto _ : state) {
    auto core = CoreOf(ucq.disjuncts().front());
    core_atoms = core->atoms().size();
    benchmark::DoNotOptimize(core_atoms);
  }
  state.counters["original_atoms"] =
      static_cast<double>(ucq.disjuncts().front().atoms().size());
  state.counters["core_atoms"] = static_cast<double>(core_atoms);
}
BENCHMARK(BM_CoreComputation)->DenseRange(0, 4, 1);

void BM_NormalizeIntoAck(benchmark::State& state) {
  const int pad = static_cast<int>(state.range(0));
  UnionQuery ucq = PaddedQuery(pad);
  bool in_hack = false;
  int level = 0;
  for (auto _ : state) {
    auto norm = NormalizeIntoAck(ucq);
    in_hack = norm->in_hack;
    level = norm->level;
  }
  state.counters["in_hack"] = in_hack;
  state.counters["level"] = level;
}
BENCHMARK(BM_NormalizeIntoAck)->DenseRange(0, 4, 1);

// End-to-end CONT(Datalog, H(ACk)): normalize then run the ACk engine.
void BM_ContainmentViaHAck(benchmark::State& state) {
  const int pad = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = PaddedQuery(pad);
  bool contained = true;
  for (auto _ : state) {
    contained = DatalogContainedInHAck(tc, ucq)->contained;
  }
  state.counters["contained"] = contained;  // expansions lack the self-loop
}
BENCHMARK(BM_ContainmentViaHAck)->DenseRange(0, 3, 1);

// Subsumed-disjunct minimization at growing union sizes.
void BM_UnionMinimization(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  std::vector<ConjunctiveQuery> disjuncts;
  for (int len = 1; len <= m; ++len) {
    disjuncts.push_back(bench::ChainCq(len, "e", 1));  // each ⊆ the previous
  }
  UnionQuery ucq(std::move(disjuncts));
  std::size_t kept = 0;
  for (auto _ : state) {
    auto norm = NormalizeIntoAck(ucq);
    kept = norm->normalized->disjuncts().size();
  }
  state.counters["kept_disjuncts"] = static_cast<double>(kept);
}
BENCHMARK(BM_UnionMinimization)->DenseRange(2, 8, 2);

// The server's minimization pre-pass over Θs shaped like the serverbench
// contain_cold corpus: 1–3 disjuncts of 1–4 binary atoms over six
// relations, a unary head. Seeded; most are already minimal, some fold or
// lose a subsumed disjunct. One iteration minimizes the whole set.
std::vector<UnionQuery> ContainColdShapedQueries() {
  std::mt19937 rng(6);
  std::vector<UnionQuery> out;
  for (int q = 0; q < 64; ++q) {
    std::vector<ConjunctiveQuery> disjuncts;
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int d = 0; d < n; ++d) {
      const int atoms = 1 + static_cast<int>(rng() % 4);
      std::vector<Atom> body;
      for (int a = 0; a < atoms; ++a) {
        // Chains off earlier variables, so every atom stays connected.
        const int from = static_cast<int>(rng() % (a + 1));
        const int to = static_cast<int>(rng() % (a + 2));
        body.emplace_back(bench::Numbered("r", rng() % 6),
                          std::vector<Term>{
                              Term::Variable(bench::Numbered("v", from)),
                              Term::Variable(bench::Numbered("v", to))});
      }
      disjuncts.emplace_back(std::vector<Term>{Term::Variable("v0")},
                             std::move(body));
    }
    out.emplace_back(std::move(disjuncts));
  }
  return out;
}

std::size_t AtomCount(const UnionQuery& ucq) {
  std::size_t atoms = 0;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) atoms += cq.atoms().size();
  return atoms;
}

void BM_MinimizeUcq(benchmark::State& state) {
  const std::vector<UnionQuery> queries = ContainColdShapedQueries();
  std::size_t original_atoms = 0, core_atoms = 0;
  for (auto _ : state) {
    original_atoms = core_atoms = 0;
    for (const UnionQuery& ucq : queries) {
      auto minimized = MinimizeUnionQuery(ucq);
      original_atoms += AtomCount(ucq);
      core_atoms += minimized->has_value() ? AtomCount(**minimized)
                                           : AtomCount(ucq);
    }
    benchmark::DoNotOptimize(core_atoms);
  }
  state.counters["original_atoms"] = static_cast<double>(original_atoms);
  state.counters["core_atoms"] = static_cast<double>(core_atoms);
}
BENCHMARK(BM_MinimizeUcq);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
