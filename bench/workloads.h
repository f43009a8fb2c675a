#ifndef QCONT_BENCH_WORKLOADS_H_
#define QCONT_BENCH_WORKLOADS_H_

// Scaling workload families used by the experiment benchmarks (EXPERIMENTS.md).

#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cq/database.h"
#include "cq/query.h"
#include "datalog/program.h"
#include "obs/trace.h"

namespace qcont {
namespace bench {

/// `prefix` followed by the decimal `i` ("x" + std::to_string(i)). Built by
/// appending: GCC 12 reports a false -Wrestrict on `literal + std::string`.
inline std::string Numbered(std::string prefix, long long i) {
  prefix += std::to_string(i);
  return prefix;
}

/// Worker count for the "parallel" rows of the threaded benchmarks:
/// QCONT_BENCH_THREADS if set (see run_benchmarks.sh --threads), otherwise
/// the hardware concurrency, floored at 2 so the pool path is always
/// exercised even on single-core runners.
inline int BenchThreads() {
  if (const char* env = std::getenv("QCONT_BENCH_THREADS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) : 2;
}

/// Thread axis of the multicore scaling rows (EXPERIMENTS.md): {1, 2, 4, 8}
/// pruned to counts this machine can actually schedule (oversubscribed rows
/// measure contention, not scaling), floored so the 2-thread pool row always
/// runs. A capture from a small machine simply has fewer rows; the
/// cross-file gates in CI use --allow-missing for exactly this reason.
inline std::vector<int> BenchThreadGrid() {
  const int cap =
      std::max(2, std::max(BenchThreads(),
                           static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<int> grid;
  for (int t : {1, 2, 4, 8}) {
    if (t <= cap) grid.push_back(t);
  }
  return grid;
}

/// Per-call wall time of `fn` in microseconds, averaged over `calls`
/// invocations. Used by the instrumented (untimed) passes to price the
/// analysis layer against the engine work.
template <typename Fn>
inline double WallMicrosPerCall(int calls, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         calls;
}

/// Boolean chain CQ: ∃x0..xn E(x0,x1) ∧ ... ∧ E(x{n-1},xn). AC1, TW(1).
inline ConjunctiveQuery ChainCq(int n, const std::string& pred = "e",
                                int free_endpoints = 0) {
  std::vector<Atom> atoms;
  for (int i = 0; i < n; ++i) {
    atoms.emplace_back(pred, std::vector<Term>{
                                 Term::Variable(Numbered("x", i)),
                                 Term::Variable(Numbered("x", i + 1))});
  }
  std::vector<Term> head;
  if (free_endpoints >= 1) head.push_back(Term::Variable("x0"));
  if (free_endpoints >= 2) {
    head.push_back(Term::Variable(Numbered("x", n)));
  }
  return ConjunctiveQuery(std::move(head), std::move(atoms));
}

/// Boolean clique CQ on n variables: treewidth n-1, cyclic for n >= 3.
inline ConjunctiveQuery CliqueCq(int n, const std::string& pred = "e") {
  std::vector<Atom> atoms;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      atoms.emplace_back(pred, std::vector<Term>{
                                   Term::Variable(Numbered("x", i)),
                                   Term::Variable(Numbered("x", j))});
    }
  }
  return ConjunctiveQuery({}, std::move(atoms));
}

/// The paper's Section 3 acyclic-but-wide family: a clique covered by one
/// wide atom T(x1..xn); acyclic, in AC2, treewidth n-1's Gaifman clique.
inline ConjunctiveQuery CoveredCliqueCq(int n) {
  std::vector<Atom> atoms;
  std::vector<Term> wide;
  for (int i = 0; i < n; ++i) wide.push_back(Term::Variable(Numbered("x", i)));
  atoms.emplace_back(Numbered("t", n), wide);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      atoms.emplace_back("e", std::vector<Term>{
                                  Term::Variable(Numbered("x", i)),
                                  Term::Variable(Numbered("x", j))});
    }
  }
  return ConjunctiveQuery({}, std::move(atoms));
}

/// Transitive closure over `pred` edges.
inline DatalogProgram TcProgram(const std::string& pred = "e") {
  std::vector<Rule> rules;
  Term x = Term::Variable("x"), y = Term::Variable("y"), z = Term::Variable("z");
  rules.push_back(Rule{Atom("tc", {x, y}), {Atom(pred, {x, y})}});
  rules.push_back(
      Rule{Atom("tc", {x, y}), {Atom(pred, {x, z}), Atom("tc", {z, y})}});
  return DatalogProgram(std::move(rules), "tc");
}

/// A program whose expansions are e-chains of length ≡ 1 (mod m): chains
/// are extended m edges at a time. Larger m makes the UCQ-side analysis
/// harder while staying AC1.
inline DatalogProgram StrideProgram(int m) {
  std::vector<Rule> rules;
  Term x = Term::Variable("x"), y = Term::Variable("y");
  rules.push_back(Rule{Atom("p", {x, y}), {Atom("e", {x, y})}});
  std::vector<Atom> body;
  Term prev = x;
  for (int i = 0; i < m; ++i) {
    Term next = Term::Variable(Numbered("z", i));
    body.push_back(Atom("e", {prev, next}));
    prev = next;
  }
  body.push_back(Atom("p", {prev, y}));
  rules.push_back(Rule{Atom("p", {x, y}), std::move(body)});
  return DatalogProgram(std::move(rules), "p");
}

/// E10 "hot program" family (EXPERIMENTS.md): one Π whose kind space is
/// deliberately large relative to any single Θ-side fixpoint. The goal
/// predicate p has arity `arity`; the base rule grounds p in one wide EDB
/// atom c(x̄), the adjacent-merge rules make every interval-merge equality
/// pattern of the head reachable (2^(arity-1) kinds), and filler
/// self-recursions pad the program to `rules` rules so per-kind
/// instantiation work scales with n. The Π-only expansion therefore costs
/// Θ(2^arity · rules) rule instantiations, while each containment call's
/// type fixpoint over it stays shallow — the regime where program-keyed
/// artifact reuse pays.
inline DatalogProgram HotProgram(int arity, int rules) {
  std::vector<Term> xs;
  xs.reserve(arity);
  for (int i = 0; i < arity; ++i) {
    xs.push_back(Term::Variable(Numbered("x", i)));
  }
  std::vector<Rule> out;
  out.push_back(Rule{Atom("p", xs), {Atom("c", xs)}});
  for (int k = 0; k + 1 < arity; ++k) {
    std::vector<Term> child = xs;
    child[k + 1] = xs[k];  // child kind merges head positions k, k+1
    out.push_back(Rule{Atom("p", xs),
                       {Atom("e", {xs[k], xs[k + 1]}), Atom("p", child)}});
  }
  if (static_cast<int>(out.size()) < rules) {
    // Filler rules scale the Π-only instantiation work without feeding the
    // fixpoint: their q(u,v) child (fresh variables, so its kind keeps the
    // positions distinct) has no instances — q's only rule repeats a head
    // variable the pattern keeps apart, so Instantiate rejects it — and a
    // rule with a type-less child is never viable. The cold path still
    // pays full instantiation of every filler in all 2^(arity-1) kinds.
    Term z = Term::Variable("z"), u = Term::Variable("u"),
         v = Term::Variable("v");
    out.push_back(Rule{Atom("q", {z, z}), {Atom("c0", {z})}});
    for (int j = static_cast<int>(out.size()); j < rules; ++j) {
      out.push_back(Rule{Atom("p", xs),
                         {Atom(Numbered("f", j), xs),
                          Atom("q", {u, v})}});
    }
  }
  return DatalogProgram(std::move(out), "p");
}

/// Θ variants for the hot-program sweep: single-variable c-atoms
/// c(v,...,v) — one per 1 + `extras` — with the head repeating the first
/// atom's variable. A one-variable atom only matches the fully-merged
/// kind's base instance, so the subtree-type lattice stays flat (the
/// fresh-variable alternative makes types proliferate along merge-pullback
/// paths, and the fixpoint would then dominate the expansion). Sweeping
/// `extras` varies the query-side element enumeration against one fixed Π
/// without touching the Π-only kind space.
inline UnionQuery HotTheta(int arity, int extras) {
  std::vector<Atom> atoms;
  std::vector<Term> head(arity, Term::Variable("v0"));
  for (int j = 0; j <= extras; ++j) {
    std::vector<Term> vs(arity, Term::Variable(Numbered("v", j)));
    atoms.emplace_back("c", std::move(vs));
  }
  return UnionQuery({ConjunctiveQuery(std::move(head), std::move(atoms))});
}

/// UCQ of chain disjuncts with both endpoints free, lengths 1..m.
inline UnionQuery ChainUnion(int m) {
  std::vector<ConjunctiveQuery> disjuncts;
  for (int len = 1; len <= m; ++len) {
    disjuncts.push_back(ChainCq(len, "e", 2));
  }
  return UnionQuery(std::move(disjuncts));
}

/// Writes `session`'s trace to $QCONT_BENCH_TRACE_DIR/TRACE_<name>.json
/// when that directory is set (run_benchmarks.sh --trace), else does
/// nothing. Returns whether a file was written. Benchmarks call this after
/// their single instrumented pass, outside the timed loop.
inline bool MaybeWriteTrace(const TraceSession& session,
                            const std::string& name) {
  const char* dir = std::getenv("QCONT_BENCH_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return false;
  const std::string path = std::string(dir) + "/TRACE_" + name + ".json";
  return session.WriteFile(path).ok();
}

/// Random directed graph database over labels {e} with n nodes.
inline Database RandomEdgeDatabase(std::mt19937* rng, int nodes, int edges,
                                   const std::string& pred = "e") {
  Database db;
  for (int i = 0; i < edges; ++i) {
    db.AddFact(pred, {Numbered("n", (*rng)() % nodes),
                      Numbered("n", (*rng)() % nodes)});
  }
  return db;
}

/// Chain database n0 -> n1 -> ... -> n_len.
inline Database ChainDatabase(int len, const std::string& pred = "e") {
  Database db;
  for (int i = 0; i < len; ++i) {
    db.AddFact(pred, {Numbered("n", i), Numbered("n", i + 1)});
  }
  return db;
}

}  // namespace bench
}  // namespace qcont

#endif  // QCONT_BENCH_WORKLOADS_H_
