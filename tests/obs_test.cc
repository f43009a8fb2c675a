// Tests for the observability layer (src/obs): registry shard-merge
// correctness under the thread pool, gauge semantics, span nesting and
// trace JSON shape, and — the load-bearing contract — that the legacy
// `*Stats` structs and the MetricRegistry mirrors report identical numbers
// for every engine that publishes both.
//
// Registry/trace unit tests run in every configuration. The engine-parity
// and span-recording tests require the hooks to be compiled in, so they
// GTEST_SKIP() under QCONT_OBS_NOOP (where ObsMetrics() is constant null
// and spans record nothing — by design).

#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automata/ata.h"
#include "automata/tree.h"
#include "base/thread_pool.h"
#include "core/ack_containment.h"
#include "core/datalog_ucq.h"
#include "cq/containment.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/eval.h"
#include "graphdb/graph_db.h"
#include "graphdb/rpq.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "structure/acyclic_eval.h"
#include "structure/decomp_eval.h"
#include "tests/generators.h"

namespace qcont {
namespace {

#ifdef QCONT_OBS_NOOP
#define QCONT_SKIP_IF_NOOP() \
  GTEST_SKIP() << "observability hooks compiled out (QCONT_OBS_NOOP)"
#else
#define QCONT_SKIP_IF_NOOP() (void)0
#endif

// ---------------------------------------------------------------------------
// MetricRegistry unit tests (valid in every configuration — the registry
// itself is never compiled out, only the engine hooks are).
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CountsAndSnapshots) {
  MetricRegistry reg;
  reg.Add("a.x", 3);
  reg.Add("a.x", 4);
  reg.Add("a.y", 1);
  EXPECT_EQ(reg.Value("a.x"), 7u);
  EXPECT_EQ(reg.Value("a.y"), 1u);
  EXPECT_EQ(reg.Value("never.touched"), 0u);
  auto snapshot = reg.Snapshot();
  EXPECT_EQ(snapshot.at("a.x"), 7u);
  EXPECT_EQ(snapshot.at("a.y"), 1u);
  EXPECT_EQ(snapshot.size(), 2u);
}

TEST(MetricRegistryTest, GaugesAreLastWriteWins) {
  MetricRegistry reg;
  reg.SetGauge("g.width", 3);
  reg.SetGauge("g.width", 2);
  EXPECT_EQ(reg.Value("g.width"), 2u);
  EXPECT_EQ(reg.Snapshot().at("g.width"), 2u);
}

TEST(MetricRegistryTest, DenseIdsAreStableAndCheap) {
  MetricRegistry reg;
  int id = reg.Id("hot.counter");
  EXPECT_EQ(reg.Id("hot.counter"), id);
  reg.Add(id, 5);
  reg.Add(id, 5);
  EXPECT_EQ(reg.Value("hot.counter"), 10u);
}

TEST(MetricRegistryTest, ShardMergeIsExactUnderThreadPool) {
  // Every worker bumps through its own shard; the snapshot must sum to
  // exactly the number of adds regardless of how the pool scheduled them.
  MetricRegistry reg;
  const ExecContext ctx{.threads = 8, .stats = nullptr};
  constexpr std::size_t kTasks = 10'000;
  ParallelFor(ctx, kTasks, [&](std::size_t i) {
    reg.Add("pool.bumps", 1);
    if (i % 7 == 0) reg.Add("pool.sevens", 2);
  });
  EXPECT_EQ(reg.Value("pool.bumps"), kTasks);
  EXPECT_EQ(reg.Value("pool.sevens"), 2 * ((kTasks + 6) / 7));
  // At least the caller's shard exists; pool workers add theirs lazily.
  EXPECT_GE(reg.num_shards(), 1u);
}

TEST(MetricRegistryTest, TlsCacheSurvivesRegistryReuse) {
  // Two registries alive in sequence on the same thread: the thread-local
  // shard cache must not leak counts from one registry into the next.
  {
    MetricRegistry first;
    first.Add("x", 41);
    EXPECT_EQ(first.Value("x"), 41u);
  }
  MetricRegistry second;
  second.Add("x", 1);
  EXPECT_EQ(second.Value("x"), 1u);
}

// ---------------------------------------------------------------------------
// TraceSession unit tests.
// ---------------------------------------------------------------------------

TEST(TraceSessionTest, RecordsAndAggregates) {
  TraceSession session;
  TraceEvent ev;
  ev.name = "unit/alpha";
  ev.cat = "test";
  ev.ts_us = 1.0;
  ev.dur_us = 5.0;
  session.Record(ev);
  ev.name = "unit/beta";
  ev.ts_us = 2.0;
  ev.dur_us = 2.5;
  session.Record(ev);
  ev.name = "unit/alpha";
  ev.ts_us = 10.0;
  ev.dur_us = 1.0;
  session.Record(ev);
  EXPECT_EQ(session.NumEvents(), 3u);
  auto totals = session.DurationTotalsUs();
  EXPECT_DOUBLE_EQ(totals.at("unit/alpha"), 6.0);
  EXPECT_DOUBLE_EQ(totals.at("unit/beta"), 2.5);
}

TEST(TraceSessionTest, JsonHasSchemaShape) {
  TraceSession session;
  TraceEvent ev;
  ev.name = "unit/span";
  ev.cat = "test";
  ev.ts_us = 0.5;
  ev.dur_us = 1.5;
  ev.tid = 3;
  ev.args = {{"rows", 42}};
  session.Record(ev);
  const std::string json = session.ToJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit/span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":42"), std::string::npos);
}

TEST(TraceSessionTest, WriteFileRoundTrips) {
  TraceSession session;
  TraceEvent ev;
  ev.name = "unit/file";
  ev.cat = "test";
  ev.dur_us = 1.0;
  session.Record(ev);
  const std::string path =
      testing::TempDir() + "/qcont_obs_test_trace.json";
  ASSERT_TRUE(session.WriteFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, session.ToJson());
}

// ---------------------------------------------------------------------------
// ObsSpan behavior.
// ---------------------------------------------------------------------------

TEST(ObsSpanTest, NullContextIsSafeEverywhere) {
  // Spans and counters must be placeable unconditionally.
  ObsSpan span(nullptr, "unit/null");
  span.AddArg("k", 1);
  ObsCount(nullptr, "unit.counter", 1);
  ObsGauge(nullptr, "unit.gauge", 1);
  EXPECT_EQ(ObsMetrics(nullptr), nullptr);
  ObsContext empty;  // context with both sinks null
  ObsSpan span2(&empty, "unit/empty");
  ObsCount(&empty, "unit.counter", 1);
}

TEST(ObsSpanTest, NestedSpansRecordInCloseOrderWithIntervalContainment) {
  QCONT_SKIP_IF_NOOP();
  TraceSession trace;
  ObsContext obs{nullptr, &trace};
  {
    ObsSpan outer(&obs, "unit/outer", "test");
    {
      ObsSpan inner(&obs, "unit/inner", "test");
      inner.AddArg("depth", 2);
    }
    outer.AddArg("depth", 1);
  }
  ASSERT_EQ(trace.NumEvents(), 2u);
  auto events = trace.Events();
  // RAII closes inner first.
  EXPECT_EQ(events[0].name, "unit/inner");
  EXPECT_EQ(events[1].name, "unit/outer");
  // Same thread, and the inner interval is contained in the outer one.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "depth");
  EXPECT_EQ(events[0].args[0].second, 2u);
}

// ---------------------------------------------------------------------------
// Engine parity: the registry mirror must equal the legacy stats sink.
// ---------------------------------------------------------------------------

TEST(ObsParityTest, UcqContainmentHomStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  std::mt19937 rng(404);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  HomSearchStats stats;
  for (int trial = 0; trial < 10; ++trial) {
    UnionQuery theta = testgen::RandomAcyclicUcq(&rng, schema, 3, 3, 1);
    UnionQuery theta_prime = testgen::RandomAcyclicUcq(&rng, schema, 3, 3, 1);
    if (!theta.Validate().ok() || !theta_prime.Validate().ok()) continue;
    HomSearchOptions options;
    options.obs = &obs;
    ASSERT_TRUE(UcqContained(theta, theta_prime, &stats, options).ok());
  }
  EXPECT_EQ(reg.Value("cq.contain.hom.atom_attempts"), stats.atom_attempts);
  EXPECT_EQ(reg.Value("cq.contain.hom.backtracks"), stats.backtracks);
  EXPECT_EQ(reg.Value("cq.contain.hom.index_probes"), stats.index_probes);
  EXPECT_EQ(reg.Value("cq.contain.hom.index_candidates"),
            stats.index_candidates);
  EXPECT_EQ(reg.Value("cq.contain.hom.scan_candidates"),
            stats.scan_candidates);
  EXPECT_GT(stats.atom_attempts, 0u);
}

TEST(ObsParityTest, DatalogEvalStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  std::mt19937 rng(505);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  DatalogEvalStats stats;
  int runs = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    if (!program.Validate().ok()) continue;
    EvalOptions options;
    options.obs = &obs;
    ASSERT_TRUE(EvaluateProgram(program, edb, options, &stats).ok());
    ++runs;
  }
  ASSERT_GT(runs, 0);
  EXPECT_EQ(reg.Value("datalog.eval.iterations"), stats.iterations);
  EXPECT_EQ(reg.Value("datalog.eval.rule_firings"), stats.rule_firings);
  EXPECT_EQ(reg.Value("datalog.eval.derived_facts"), stats.derived_facts);
  EXPECT_EQ(reg.Value("datalog.eval.hom.atom_attempts"),
            stats.hom.atom_attempts);
  EXPECT_EQ(reg.Value("datalog.eval.hom.index_probes"),
            stats.hom.index_probes);
  EXPECT_GT(stats.iterations, 0u);
}

TEST(ObsParityTest, TypeEngineStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  // One deterministic instance; kinds/types/elements are per-run gauges, so
  // parity is checked against a single run's legacy snapshot.
  auto program = ParseProgram(
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Z) :- e(X,Y), t(Y,Z).\n"
      "goal(X,Y) :- t(X,Y).\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("q(X,Y) :- e(X,Y).\nq(X,Y) :- e(X,Z), e(Z,Y).\n");
  ASSERT_TRUE(ucq.ok());
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  TypeEngineStats stats;
  TypeEngineOptions options;
  options.obs = &obs;
  ASSERT_TRUE(DatalogContainedInUcq(*program, *ucq, &stats, options).ok());
  EXPECT_EQ(reg.Value("typeengine.kinds"), stats.kinds);
  EXPECT_EQ(reg.Value("typeengine.types"), stats.types);
  EXPECT_EQ(reg.Value("typeengine.elements"), stats.elements);
  EXPECT_EQ(reg.Value("typeengine.combos"), stats.combos);
  EXPECT_EQ(reg.Value("typeengine.enumeration_steps"),
            stats.enumeration_steps);
  EXPECT_GT(stats.types, 0u);
}

TEST(ObsParityTest, TypeEngineBudgetErrorStillPublishes) {
  QCONT_SKIP_IF_NOOP();
  // FlushStats runs on the error path too: the registry must hold the same
  // partial counts as the legacy sink, not zeros.
  auto program = ParseProgram(
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Z) :- t(X,Y), t(Y,Z).\n"
      "goal(X,Y) :- t(X,Y).\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("q(X,Y) :- e(X,Y).\n");
  ASSERT_TRUE(ucq.ok());
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  TypeEngineStats stats;
  TypeEngineOptions options;
  options.obs = &obs;
  options.max_types = 1;
  auto answer = DatalogContainedInUcq(*program, *ucq, &stats, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(reg.Value("typeengine.types"), stats.types);
  EXPECT_EQ(reg.Value("typeengine.combos"), stats.combos);
  EXPECT_EQ(reg.Value("typeengine.enumeration_steps"),
            stats.enumeration_steps);
}

TEST(ObsParityTest, AckEngineStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  auto program = ParseProgram(
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Z) :- e(X,Y), t(Y,Z).\n"
      "goal(X,Y) :- t(X,Y).\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("q(X,Y) :- e(X,Y).\nq(X,Y) :- e(X,Z), e(Z,Y).\n");
  ASSERT_TRUE(ucq.ok());
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  AckEngineStats stats;
  AckEngineLimits limits;
  limits.obs = &obs;
  ASSERT_TRUE(
      DatalogContainedInAcyclicUcq(*program, *ucq, &stats, limits).ok());
  EXPECT_EQ(reg.Value("ack.kinds"), stats.kinds);
  EXPECT_EQ(reg.Value("ack.summaries"), stats.summaries);
  EXPECT_EQ(reg.Value("ack.combos"), stats.combos);
  EXPECT_EQ(reg.Value("ack.game_states"), stats.game_states);
  EXPECT_EQ(reg.Value("ack.antichain_sets"), stats.antichain_sets);
  EXPECT_EQ(reg.Value("ack.level"),
            static_cast<std::uint64_t>(stats.ack_level));
  EXPECT_GT(stats.game_states, 0u);
}

TEST(ObsParityTest, YannakakisStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  std::mt19937 rng(606);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  YannakakisStats stats;
  int runs = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 4, 20);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 3, 3, 1);
    if (!cq.Validate().ok()) continue;
    auto sat = AcyclicSatisfiable(cq, db, {}, &stats, &obs);
    if (!sat.ok()) continue;  // cyclic draw
    ++runs;
  }
  ASSERT_GT(runs, 0);
  EXPECT_EQ(reg.Value("yannakakis.semijoins"), stats.semijoins);
  EXPECT_EQ(reg.Value("yannakakis.tuples_scanned"), stats.tuples_scanned);
  EXPECT_EQ(reg.Value("yannakakis.index_probes"), stats.index_probes);
  EXPECT_GT(stats.semijoins, 0u);
}

TEST(ObsParityTest, DecompEvalStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  std::mt19937 rng(707);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  DecompEvalStats stats;
  int runs = 0;
  for (int trial = 0; trial < 8 || runs == 0; ++trial) {
    ASSERT_LT(trial, 64) << "generator never produced a valid CQ";
    Database db = testgen::RandomDatabase(&rng, schema, 4, 15);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 3, 3, 1);
    if (!cq.Validate().ok()) continue;
    auto sat = BoundedWidthSatisfiable(cq, db, {}, &stats, &obs);
    if (!sat.ok()) continue;
    ++runs;
  }
  EXPECT_EQ(reg.Value("decomp.bag_assignments"), stats.bag_assignments);
  EXPECT_EQ(reg.Value("decomp.width_used"),
            static_cast<std::uint64_t>(stats.width_used));
}

// The 2ATA from automata_test: finds a 1-leaf, climbs back to the root.
class UpDownAta : public AlternatingTreeAutomaton {
 public:
  int InitialState() const override { return 0; }
  AtaFormula Delta(int state, int symbol) const override {
    AtaFormula formula;
    if (state == 0) {
      if (symbol == 1) formula.push_back({AtaMove{0, 1}});
      formula.push_back({AtaMove{1, 0}});
      formula.push_back({AtaMove{2, 0}});
    } else if (symbol == 3) {
      formula.push_back({});
    } else {
      formula.push_back({AtaMove{-1, 1}});
    }
    return formula;
  }
};

TEST(ObsParityTest, AtaRunStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  RankedTree t(3);
  int mid = t.AddChild(0, 2);
  t.AddChild(mid, 0);
  t.AddChild(mid, 1);
  UpDownAta ata;
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  AtaRunStats stats;
  EXPECT_TRUE(ata.Accepts(t, &stats, &obs));
  EXPECT_EQ(reg.Value("ata.positions"), stats.positions);
  EXPECT_EQ(reg.Value("ata.iterations"), stats.iterations);
  EXPECT_GT(stats.positions, 0u);
}

TEST(ObsParityTest, RpqStatsMatchRegistry) {
  QCONT_SKIP_IF_NOOP();
  GraphDatabase g;
  for (int i = 0; i < 5; ++i) {
    g.AddEdge(testgen::Numbered("n", i), "a", testgen::Numbered("n", i + 1));
  }
  auto nfa = ParseRegex("a+");
  ASSERT_TRUE(nfa.ok());
  MetricRegistry reg;
  ObsContext obs{&reg, nullptr};
  RpqEvalStats stats;
  auto pairs = EvaluateRpq(*nfa, g, &stats, &obs);
  EXPECT_FALSE(pairs.empty());
  EXPECT_EQ(reg.Value("rpq.product_states"), stats.product_states);
  EXPECT_GT(stats.product_states, 0u);
}

// ---------------------------------------------------------------------------
// Cross-cutting: counter totals are thread-count invariant (the registry
// inherits the engines' determinism contract), and engine spans recorded
// from pool workers carry distinct tids.
// ---------------------------------------------------------------------------

TEST(ObsDeterminismTest, RegistryTotalsAreThreadCountInvariant) {
  QCONT_SKIP_IF_NOOP();
  std::mt19937 rng(808);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
  DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
  ASSERT_TRUE(program.Validate().ok());

  std::map<std::string, std::uint64_t> reference;
  for (int threads : {1, 2, 8}) {
    MetricRegistry reg;
    ObsContext obs{&reg, nullptr};
    EvalOptions options;
    options.obs = &obs;
    options.exec.threads = threads;
    ASSERT_TRUE(EvaluateProgram(program, edb, options).ok());
    auto snapshot = reg.Snapshot();
    EXPECT_FALSE(snapshot.empty());
    if (reference.empty()) {
      reference = snapshot;
    } else {
      EXPECT_EQ(snapshot, reference) << "threads " << threads;
    }
  }
}

TEST(ObsDeterminismTest, EngineSpansNestAndCoverRounds) {
  QCONT_SKIP_IF_NOOP();
  auto program = ParseProgram(
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Z) :- e(X,Y), t(Y,Z).\n"
      "goal(X,Y) :- t(X,Y).\n");
  ASSERT_TRUE(program.ok());
  auto db = ParseDatabase("e(a,b). e(b,c). e(c,d).\n");
  ASSERT_TRUE(db.ok());
  MetricRegistry reg;
  TraceSession trace;
  ObsContext obs{&reg, &trace};
  EvalOptions options;
  options.obs = &obs;
  ASSERT_TRUE(EvaluateProgram(*program, *db, options).ok());

  std::set<std::string> names;
  for (const TraceEvent& ev : trace.Events()) names.insert(ev.name);
  EXPECT_TRUE(names.count("datalog/eval"));
  EXPECT_TRUE(names.count("datalog/round"));
  // The eval span must bound every round span.
  auto events = trace.Events();
  double eval_start = -1, eval_end = -1;
  for (const TraceEvent& ev : events) {
    if (ev.name == "datalog/eval") {
      eval_start = ev.ts_us;
      eval_end = ev.ts_us + ev.dur_us;
    }
  }
  ASSERT_GE(eval_start, 0.0);
  for (const TraceEvent& ev : events) {
    if (ev.name != "datalog/round") continue;
    EXPECT_GE(ev.ts_us + 1e-9, eval_start);
    EXPECT_LE(ev.ts_us + ev.dur_us, eval_end + 1e-9);
  }
  // Aggregation sees both span kinds.
  auto totals = trace.DurationTotalsUs();
  EXPECT_GT(totals.at("datalog/eval"), 0.0);
  EXPECT_GE(totals.at("datalog/eval"), totals.at("datalog/round"));
}

}  // namespace
}  // namespace qcont
