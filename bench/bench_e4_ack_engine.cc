// E4 — Theorem 6: the EXPTIME ACk engine against the 2EXPTIME general
// engine on the *same* acyclic inputs. The paper's headline: restricting Θ
// to ACk replaces the doubly-exponential procedure by a single-exponential
// one. The shape to observe: both solve small instances, but the general
// engine's `types` counter grows much faster than the ACk engine's
// `summaries` as the UCQ grows, and the crossover favors ACk throughout.

#include <benchmark/benchmark.h>

#include "bench/workloads.h"
#include "core/ack_containment.h"
#include "core/datalog_ucq.h"

namespace qcont {
namespace {

void BM_General_TcVsChains(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = bench::ChainUnion(m);
  TypeEngineStats stats;
  for (auto _ : state) {
    stats = TypeEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInUcq(tc, ucq, &stats));
  }
  state.counters["state_objects"] = static_cast<double>(stats.types);
}
BENCHMARK(BM_General_TcVsChains)->DenseRange(1, 5, 1);

void BM_Ack_TcVsChains(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = bench::ChainUnion(m);
  AckEngineStats stats;
  for (auto _ : state) {
    stats = AckEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInAcyclicUcq(tc, ucq, &stats));
  }
  state.counters["state_objects"] = static_cast<double>(stats.summaries);
  state.counters["antichain_sets"] = static_cast<double>(stats.antichain_sets);
  state.counters["k"] = stats.ack_level;
}
BENCHMARK(BM_Ack_TcVsChains)->DenseRange(1, 5, 1);

// A contained family: the stride-1 program is exactly e+; the UCQ
// "first edge + anything" contains it. Scales the program's rule width.
void MakeContainedFamily(int width, DatalogProgram* program, UnionQuery* ucq) {
  *program = bench::StrideProgram(width);
  std::vector<ConjunctiveQuery> disjuncts;
  disjuncts.push_back(bench::ChainCq(1, "e", 2));
  // (x,y) <- e(x,u), e(w,y): matches every expansion of length >= 2.
  disjuncts.push_back(ConjunctiveQuery(
      {Term::Variable("a0"), Term::Variable("a3")},
      {Atom("e", {Term::Variable("a0"), Term::Variable("a1")}),
       Atom("e", {Term::Variable("a2"), Term::Variable("a3")})}));
  *ucq = UnionQuery(std::move(disjuncts));
}

void BM_General_ContainedFamily(benchmark::State& state) {
  DatalogProgram program = bench::TcProgram();
  UnionQuery ucq({bench::ChainCq(1)});
  MakeContainedFamily(static_cast<int>(state.range(0)), &program, &ucq);
  TypeEngineStats stats;
  bool contained = false;
  for (auto _ : state) {
    stats = TypeEngineStats();
    contained = DatalogContainedInUcq(program, ucq, &stats)->contained;
  }
  state.counters["contained"] = contained;
  state.counters["state_objects"] = static_cast<double>(stats.types);
}
BENCHMARK(BM_General_ContainedFamily)->DenseRange(1, 6, 1);

void BM_Ack_ContainedFamily(benchmark::State& state) {
  DatalogProgram program = bench::TcProgram();
  UnionQuery ucq({bench::ChainCq(1)});
  MakeContainedFamily(static_cast<int>(state.range(0)), &program, &ucq);
  AckEngineStats stats;
  bool contained = false;
  for (auto _ : state) {
    stats = AckEngineStats();
    contained = DatalogContainedInAcyclicUcq(program, ucq, &stats)->contained;
  }
  state.counters["contained"] = contained;
  state.counters["state_objects"] = static_cast<double>(stats.summaries);
}
BENCHMARK(BM_Ack_ContainedFamily)->DenseRange(1, 6, 1);

// The separating family: a star UCQ with f independent fan atoms around the
// free variable. The general engine's types are exact sets of partial-match
// elements, and the f fan atoms can be matched in any subset — 2^f element
// growth. The ACk engine walks the star's join tree one atom per play and
// never materializes subsets of atoms.
UnionQuery StarFanUcq(int fan) {
  std::vector<Atom> atoms;
  atoms.emplace_back("e", std::vector<Term>{Term::Variable("x"),
                                            Term::Variable("y")});
  for (int i = 0; i < fan; ++i) {
    atoms.emplace_back("e", std::vector<Term>{
                                Term::Variable("x"),
                                Term::Variable(bench::Numbered("u", i))});
  }
  return UnionQuery({ConjunctiveQuery(
      {Term::Variable("x"), Term::Variable("y")}, std::move(atoms))});
}

void BM_General_StarFanout(benchmark::State& state) {
  const int fan = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = StarFanUcq(fan);
  TypeEngineStats stats;
  for (auto _ : state) {
    stats = TypeEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInUcq(tc, ucq, &stats));
  }
  state.counters["elements"] = static_cast<double>(stats.elements);
  state.counters["state_objects"] = static_cast<double>(stats.types);
}
BENCHMARK(BM_General_StarFanout)->DenseRange(2, 12, 2);

void BM_Ack_StarFanout(benchmark::State& state) {
  const int fan = static_cast<int>(state.range(0));
  DatalogProgram tc = bench::TcProgram();
  UnionQuery ucq = StarFanUcq(fan);
  AckEngineStats stats;
  for (auto _ : state) {
    stats = AckEngineStats();
    benchmark::DoNotOptimize(*DatalogContainedInAcyclicUcq(tc, ucq, &stats));
  }
  state.counters["antichain_sets"] = static_cast<double>(stats.antichain_sets);
  state.counters["state_objects"] = static_cast<double>(stats.summaries);
}
BENCHMARK(BM_Ack_StarFanout)->DenseRange(2, 12, 2);

// Ablation: the cost of increasing k (shared variables between atoms) with
// everything else fixed — the hierarchy inside AC from Section 4.2. The
// UCQ's two atoms share k variables through a wide predicate.
void BM_Ack_SharedVariableWidth(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  // Program: p(x) <- t(x, y1..yk), base m(y1..yk); recursion through m.
  std::vector<Term> ys;
  for (int i = 0; i < k; ++i) ys.push_back(Term::Variable(bench::Numbered("y", i)));
  std::vector<Term> head_args = {Term::Variable("x")};
  std::vector<Term> t_args = head_args;
  t_args.insert(t_args.end(), ys.begin(), ys.end());
  std::vector<Rule> rules;
  rules.push_back(Rule{Atom("p", {Term::Variable("x")}),
                       {Atom("t", t_args), Atom("m", ys)}});
  std::vector<Atom> rec_body = {Atom("t", t_args), Atom("m", ys),
                                Atom("p", {ys[0]})};
  rules.push_back(Rule{Atom("p", {Term::Variable("x")}), rec_body});
  DatalogProgram program(std::move(rules), "p");
  // UCQ: Q(x) <- t(x, u1..uk), m(u1..uk): two atoms sharing k variables.
  std::vector<Term> us;
  for (int i = 0; i < k; ++i) us.push_back(Term::Variable(bench::Numbered("u", i)));
  std::vector<Term> tu = {Term::Variable("x")};
  tu.insert(tu.end(), us.begin(), us.end());
  UnionQuery ucq({ConjunctiveQuery({Term::Variable("x")},
                                   {Atom("t", tu), Atom("m", us)})});
  AckEngineStats stats;
  bool contained = false;
  for (auto _ : state) {
    stats = AckEngineStats();
    contained = DatalogContainedInAcyclicUcq(program, ucq, &stats)->contained;
  }
  state.counters["contained"] = contained;
  state.counters["k"] = stats.ack_level;
  state.counters["game_states"] = static_cast<double>(stats.game_states);
}
BENCHMARK(BM_Ack_SharedVariableWidth)->DenseRange(1, 4, 1);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
