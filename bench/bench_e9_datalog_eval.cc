// E9 — substrate benchmark: bottom-up Datalog evaluation. Semi-naive vs
// naive on transitive closure and same-generation; the expected shape is
// the classic one — semi-naive's rule firings grow with the number of new
// facts per round instead of the full relation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "analysis/report.h"
#include "bench/workloads.h"
#include "datalog/eval.h"
#include "obs/obs.h"
#include "parser/parser.h"

namespace qcont {
namespace {

void BM_TcChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool semi = state.range(1) != 0;
  const int threads = static_cast<int>(state.range(2));
  DatalogProgram tc = bench::TcProgram();
  Database db = bench::ChainDatabase(n);
  EvalOptions options;
  options.strategy = semi ? EvalStrategy::kSemiNaive : EvalStrategy::kNaive;
  options.exec.threads = threads;
  DatalogEvalStats stats;
  std::size_t derived = 0;
  for (auto _ : state) {
    stats = DatalogEvalStats();
    derived = EvaluateGoal(tc, db, options, &stats)->size();
  }
  // Counters are identical across the threads rows (determinism contract).
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["threads"] = threads;
  state.counters["rule_firings"] = static_cast<double>(stats.rule_firings);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
  state.counters["index_probes"] = static_cast<double>(stats.hom.index_probes);
  state.counters["index_candidates"] =
      static_cast<double>(stats.hom.index_candidates);
  state.counters["scan_candidates"] =
      static_cast<double>(stats.hom.scan_candidates);
  // One instrumented pass outside the timed loop: per-phase wall time from
  // the span totals (eval = whole fixpoint, rounds = delta rounds, joins =
  // the parallel delta-join tasks), plus an optional trace file.
  {
    TraceSession trace;
    ObsContext obs{nullptr, &trace};
    EvalOptions traced = options;
    traced.obs = &obs;
    benchmark::DoNotOptimize(EvaluateGoal(tc, db, traced)->size());
    auto totals = trace.DurationTotalsUs();
    state.counters["t_eval_us"] = totals["datalog/eval"];
    state.counters["t_rounds_us"] = totals["datalog/round"];
    state.counters["t_joins_us"] = totals["datalog/delta_join"];
    // Analysis overhead: the routed path consults the AnalysisReport cache
    // per call; the cold consult runs the full program-structure pass
    // (stratification, relevance, fragments) and the decomposition engine,
    // the warm one re-hashes and looks up. `analysis_pct` prices the warm
    // consult against one fixpoint evaluation and is gated < 5% by
    // check_bench_regression.py --max-counter in CI.
    const UnionQuery goal_ucq({bench::ChainCq(1, tc.goal_predicate(), 2)});
    analysis::ClearGlobalAnalysisCache();
    analysis::RoutingOptions routing;
    state.counters["t_analysis_cold_us"] = bench::WallMicrosPerCall(1, [&] {
      benchmark::DoNotOptimize(analysis::AnalyzeForRouting(tc, goal_ucq, routing));
    });
    const double t_analysis = bench::WallMicrosPerCall(64, [&] {
      benchmark::DoNotOptimize(analysis::AnalyzeForRouting(tc, goal_ucq, routing));
    });
    state.counters["t_analysis_us"] = t_analysis;
    state.counters["analysis_pct"] =
        100.0 * t_analysis / std::max(totals["datalog/eval"], 1e-6);
    bench::MaybeWriteTrace(
        trace, bench::Numbered("e9_tc_n", n) + (semi ? "_semi" : "_naive") +
                   bench::Numbered("_t", threads));
  }
  // Probe-kernel traffic of one evaluation (DESIGN.md §16): the db.probe.*
  // counters are deterministic per (program, database, options), so one
  // untimed pass records them. Gated >0 on the semi-naive rows by
  // check_bench_regression.py --min-counter in CI.
  {
    const Database derived = *EvaluateProgram(tc, db, options);
    const DatabaseIndexStats idx = derived.index_stats();
    state.counters["probe_probes"] = static_cast<double>(idx.probes);
    state.counters["probe_tag_hits"] = static_cast<double>(idx.tag_hits);
    state.counters["probe_tag_skips"] = static_cast<double>(idx.tag_skips);
    state.counters["probe_filter_skips"] =
        static_cast<double>(idx.filter_skips);
    state.counters["probe_prefetch_batches"] =
        static_cast<double>(idx.prefetch_batches);
  }
  state.SetLabel(semi ? "semi_naive" : "naive");
}
// Every (size, strategy) at threads=1 (the shape-check rows); semi-naive —
// the only strategy with parallel delta rounds — also at BenchThreads().
void TcChainArgs(benchmark::internal::Benchmark* b) {
  for (int n : {8, 16, 32, 64}) {
    for (int semi : {0, 1}) {
      b->Args({n, semi, 1});
      if (semi != 0) b->Args({n, semi, bench::BenchThreads()});
    }
  }
}
BENCHMARK(BM_TcChain)->Apply(TcChainArgs);

// Multicore scaling rows (EXPERIMENTS.md §E9 scaling study): transitive
// closure over a wide random graph — n nodes, 4n edges — whose delta
// rounds carry thousands of rows, so the block-split delta joins (one
// task per 1024 delta rows) have real fan-out, while the round-barrier
// merge (Database::AddRowBatch) stays serial. The thread axis is pruned
// to counts this machine can schedule; check_bench_regression.py bounds
// the serial merge fraction via the merge_serial_pct counter.
void BM_TcWide(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::mt19937 rng(11);
  DatalogProgram tc = bench::TcProgram();
  Database db = bench::RandomEdgeDatabase(&rng, n, 4 * n);
  EvalOptions options;
  options.exec.threads = threads;
  DatalogEvalStats stats;
  std::size_t derived = 0;
  for (auto _ : state) {
    stats = DatalogEvalStats();
    derived = EvaluateGoal(tc, db, options, &stats)->size();
  }
  // Identical across every thread count — determinism contract.
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["rule_firings"] = static_cast<double>(stats.rule_firings);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
  state.counters["threads"] = threads;
  // One instrumented pass outside the timed loop: wall time per phase from
  // the span totals. merge_serial_pct prices the serial round-barrier
  // merge against the whole fixpoint. It is a ratio of two same-machine
  // wall times, so it is comparable across capture machines and gated in
  // CI.
  {
    TraceSession trace;
    ObsContext obs{nullptr, &trace};
    EvalOptions traced = options;
    traced.obs = &obs;
    benchmark::DoNotOptimize(EvaluateGoal(tc, db, traced)->size());
    auto totals = trace.DurationTotalsUs();
    state.counters["t_eval_us"] = totals["datalog/eval"];
    state.counters["t_joins_us"] = totals["datalog/delta_join"];
    state.counters["t_merge_us"] = totals["datalog/merge"];
    state.counters["merge_serial_pct"] =
        100.0 * totals["datalog/merge"] /
        std::max(totals["datalog/eval"], 1e-6);
    bench::MaybeWriteTrace(trace, bench::Numbered("e9_tcwide_n", n) + "_t" +
                                      std::to_string(threads));
  }
  state.SetLabel("semi_naive");
}
void TcWideArgs(benchmark::internal::Benchmark* b) {
  for (const int threads : bench::BenchThreadGrid()) {
    b->Args({256, threads});
  }
}
BENCHMARK(BM_TcWide)->Apply(TcWideArgs);

void BM_TcRandomGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool semi = state.range(1) != 0;
  std::mt19937 rng(5);
  DatalogProgram tc = bench::TcProgram();
  Database db = bench::RandomEdgeDatabase(&rng, n, 2 * n);
  EvalOptions options;
  options.strategy = semi ? EvalStrategy::kSemiNaive : EvalStrategy::kNaive;
  DatalogEvalStats stats;
  for (auto _ : state) {
    stats = DatalogEvalStats();
    benchmark::DoNotOptimize(EvaluateGoal(tc, db, options, &stats)->size());
  }
  state.counters["rule_firings"] = static_cast<double>(stats.rule_firings);
  state.SetLabel(semi ? "semi_naive" : "naive");
}
BENCHMARK(BM_TcRandomGraph)->ArgsProduct({{10, 20, 40}, {0, 1}});

void BM_SameGeneration(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const bool semi = state.range(1) != 0;
  auto sg = ParseProgram(
      "sg(x,y) :- flat(x,y). "
      "sg(x,y) :- up(x,u), sg(u,v), down(v,y). goal sg.");
  // A balanced tree: up-edges toward the root, down-edges back, flat at top.
  Database db;
  int id = 0;
  std::vector<int> level = {id};
  for (int d = 0; d < depth; ++d) {
    std::vector<int> next;
    for (int node : level) {
      for (int c = 0; c < 2; ++c) {
        ++id;
        db.AddFact("up", {bench::Numbered("n", id), bench::Numbered("n", node)});
        db.AddFact("down", {bench::Numbered("n", node), bench::Numbered("n", id)});
        next.push_back(id);
      }
    }
    level = next;
  }
  db.AddFact("flat", {"n0", "n0"});
  EvalOptions options;
  options.strategy = semi ? EvalStrategy::kSemiNaive : EvalStrategy::kNaive;
  DatalogEvalStats stats;
  std::size_t derived = 0;
  for (auto _ : state) {
    stats = DatalogEvalStats();
    derived = EvaluateGoal(*sg, db, options, &stats)->size();
  }
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["rule_firings"] = static_cast<double>(stats.rule_firings);
  state.SetLabel(semi ? "semi_naive" : "naive");
}
BENCHMARK(BM_SameGeneration)->ArgsProduct({{3, 4, 5}, {0, 1}});

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
