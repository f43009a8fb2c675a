// Tests for the parallel execution substrate (base/thread_pool.h) and the
// determinism contract of the parallel engines: answers, derived databases,
// and machine-independent counters must be identical for every thread
// count, and must agree with the scan reference (tests/hom_oracle.h).
// This binary is also the main target of the TSAN CI job.

#include <atomic>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "core/datalog_ucq.h"
#include "cq/containment.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/eval.h"
#include "obs/obs.h"
#include "tests/generators.h"
#include "tests/hom_oracle.h"

namespace qcont {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

void ExpectEqualStats(const HomSearchStats& a, const HomSearchStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.atom_attempts, b.atom_attempts) << what;
  EXPECT_EQ(a.backtracks, b.backtracks) << what;
  EXPECT_EQ(a.index_probes, b.index_probes) << what;
  EXPECT_EQ(a.index_candidates, b.index_candidates) << what;
  EXPECT_EQ(a.scan_candidates, b.scan_candidates) << what;
}

void ExpectEqualStats(const DatalogEvalStats& a, const DatalogEvalStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.rule_firings, b.rule_firings) << what;
  EXPECT_EQ(a.derived_facts, b.derived_facts) << what;
  ExpectEqualStats(a.hom, b.hom, what);
}

void ExpectEqualStats(const TypeEngineStats& a, const TypeEngineStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.kinds, b.kinds) << what;
  EXPECT_EQ(a.types, b.types) << what;
  EXPECT_EQ(a.elements, b.elements) << what;
  EXPECT_EQ(a.combos, b.combos) << what;
  EXPECT_EQ(a.enumeration_steps, b.enumeration_steps) << what;
}

// ---------------------------------------------------------------------------
// Thread pool unit tests.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForExecutesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  ExecStats stats;
  pool.ParallelFor(
      kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      &stats);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(stats.tasks, kN);
  EXPECT_EQ(stats.parallel_regions, 1u);
}

TEST(ThreadPoolTest, ParallelForPropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> count{0};
  pool.ParallelFor(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForDegradesToSerialWithoutDeadlock) {
  const ExecContext ctx{.threads = 4, .stats = nullptr};
  std::atomic<int> count{0};
  ParallelFor(ctx, 8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::InWorker());
    // Nested region: must run serially on this worker, not re-enter the
    // pool (which would deadlock a fully busy pool).
    ParallelFor(ctx, 16, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ThreadPoolTest, ParallelMapWritesSlotsInIndexOrder) {
  const ExecContext ctx{.threads = 8, .stats = nullptr};
  std::vector<std::size_t> out = ParallelMap<std::size_t>(
      ctx, 500, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, SerialFallbackRunsInIndexOrderOnCallingThread) {
  const ExecContext ctx{.threads = 1, .stats = nullptr};
  std::vector<std::size_t> order;
  ParallelFor(ctx, 32, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, SharedPoolIsReusedPerThreadCount) {
  auto a = ThreadPool::Shared(3);
  auto b = ThreadPool::Shared(3);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->num_workers(), 3);
  EXPECT_NE(ThreadPool::Shared(2).get(), a.get());
}

// ---------------------------------------------------------------------------
// Database: concurrent const probing (the lazy index build race regression).
// ---------------------------------------------------------------------------

TEST(DatabaseConcurrencyTest, ConcurrentProbesBuildIndexesSafely) {
  std::mt19937 rng(8881);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 8; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 5, 40);
    const ExecContext ctx{.threads = 8, .stats = nullptr};
    // All threads race to build the same lazy (relation, mask) indexes on
    // their first probes; under TSAN this is the regression test for the
    // memoization guard.
    std::atomic<std::uint64_t> total_rows{0};
    ParallelFor(ctx, 64, [&](std::size_t i) {
      const auto& [rel, arity] = schema.relations[i % schema.relations.size()];
      const std::vector<Tuple>& facts = db.Facts(rel);
      if (facts.empty()) return;
      const Tuple& probe_tuple = facts[i % facts.size()];
      ValueId id = db.ValueIdOf(probe_tuple[0]);
      ASSERT_NE(id, kNoValue);
      const std::span<const std::uint32_t> bucket = db.Probe(rel, 1u, {id});
      ASSERT_FALSE(bucket.empty());
      total_rows.fetch_add(bucket.size(), std::memory_order_relaxed);
      ASSERT_TRUE(db.HasFact(rel, probe_tuple));
      ASSERT_FALSE(db.Relations().empty());
    });
    EXPECT_GT(total_rows.load(), 0u) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// UCQ containment: parallel pair grid vs the serial walk.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, UcqContainmentIsThreadCountInvariant) {
  std::mt19937 rng(20260807);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  int yes = 0, no = 0;
  for (int trial = 0; trial < 40; ++trial) {
    UnionQuery theta = testgen::RandomAcyclicUcq(&rng, schema, 3, 3, 1);
    UnionQuery theta_prime = testgen::RandomAcyclicUcq(&rng, schema, 3, 3, 1);
    if (trial % 3 == 0) {
      // Seed positive instances: Θ' ⊇ Θ's disjuncts makes Θ ⊆ Θ' hold.
      std::vector<ConjunctiveQuery> sup = theta_prime.disjuncts();
      for (const ConjunctiveQuery& d : theta.disjuncts()) sup.push_back(d);
      theta_prime = UnionQuery(std::move(sup));
    }
    if (!theta.Validate().ok() || !theta_prime.Validate().ok()) continue;

    HomSearchStats serial_stats;
    auto serial = UcqContained(theta, theta_prime, &serial_stats);
    ASSERT_TRUE(serial.ok()) << "trial " << trial;
    (*serial ? yes : no)++;
    for (int threads : kThreadCounts) {
      HomSearchOptions options;
      options.exec.threads = threads;
      HomSearchStats stats;
      auto parallel = UcqContained(theta, theta_prime, &stats, options);
      ASSERT_TRUE(parallel.ok()) << "trial " << trial;
      EXPECT_EQ(*parallel, *serial)
          << "trial " << trial << " threads " << threads;
      ExpectEqualStats(stats, serial_stats,
                       "trial " + std::to_string(trial) + " threads " +
                           std::to_string(threads));
    }
    // Scan-reference cross-check (tests/hom_oracle.h): same answer
    // (counters legitimately differ between engines).
    auto scan_answer = oracle::UcqContained(theta, theta_prime);
    ASSERT_TRUE(scan_answer.ok()) << "trial " << trial;
    EXPECT_EQ(*scan_answer, *serial) << "trial " << trial;
  }
  // The generator must exercise both outcomes for the test to mean much.
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(ParallelDeterminismTest, UcqContainmentArityErrorsMatchSerial) {
  auto cq = [](int arity) {
    std::vector<Term> head;
    for (int i = 0; i < arity; ++i) {
      head.push_back(Term::Variable(testgen::Numbered("x", i)));
    }
    std::vector<Atom> atoms;
    atoms.emplace_back(
        "a", std::vector<Term>{Term::Variable("x0"), Term::Variable("x0")});
    return ConjunctiveQuery(std::move(head), std::move(atoms));
  };
  UnionQuery theta({cq(1), cq(1)});
  UnionQuery theta_prime({cq(2), cq(2), cq(2)});
  auto serial = UcqContained(theta, theta_prime);
  ASSERT_FALSE(serial.ok());
  for (int threads : kThreadCounts) {
    HomSearchOptions options;
    options.exec.threads = threads;
    auto parallel = UcqContained(theta, theta_prime, nullptr, options);
    ASSERT_FALSE(parallel.ok()) << "threads " << threads;
    EXPECT_EQ(parallel.status().code(), serial.status().code());
    EXPECT_EQ(parallel.status().message(), serial.status().message());
  }
}

// ---------------------------------------------------------------------------
// Semi-naive Datalog evaluation: bit-identical derived databases.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, SemiNaiveEvalIsBitIdenticalAcrossThreadCounts) {
  std::mt19937 rng(31415);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 25; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    if (!program.Validate().ok()) continue;

    DatalogEvalStats serial_stats;
    auto serial = EvaluateProgram(program, edb, EvalOptions(), &serial_stats);
    ASSERT_TRUE(serial.ok()) << "trial " << trial;
    const std::string serial_dump = serial->ToString();

    for (int threads : kThreadCounts) {
      EvalOptions options;
      options.exec.threads = threads;
      DatalogEvalStats stats;
      auto parallel = EvaluateProgram(program, edb, options, &stats);
      ASSERT_TRUE(parallel.ok()) << "trial " << trial;
      // Bit-identical: same facts in the same insertion order, so the
      // rendered database (which follows that order) matches exactly.
      EXPECT_EQ(parallel->ToString(), serial_dump)
          << "trial " << trial << " threads " << threads;
      ExpectEqualStats(stats, serial_stats,
                       "trial " + std::to_string(trial) + " threads " +
                           std::to_string(threads));
    }

    // Semantic cross-checks: the naive reference strategy and the scan
    // reference (tests/hom_oracle.h) agree with the goal answers of
    // parallel evaluation.
    EvalOptions naive_options;
    naive_options.strategy = EvalStrategy::kNaive;
    auto naive = EvaluateGoal(program, edb, naive_options);
    auto scan = oracle::EvaluateGoal(program, edb);
    EvalOptions parallel_indexed;
    parallel_indexed.exec.threads = 8;
    auto indexed = EvaluateGoal(program, edb, parallel_indexed);
    ASSERT_TRUE(naive.ok() && scan.ok() && indexed.ok()) << "trial " << trial;
    EXPECT_EQ(*indexed, *naive) << "trial " << trial;
    EXPECT_EQ(*scan, *naive) << "trial " << trial;
  }
}

TEST(ParallelDeterminismTest, SemiNaiveDumpMatchesSerialAtTwoAndEightThreads) {
  // A second seed for the test above: the derived database renders
  // byte-for-byte like the serial run, because block-join tasks are merged
  // in task order and the round-barrier AddRowBatch commits survivors in
  // candidate order.
  std::mt19937 rng(27182);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 10; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    if (!program.Validate().ok()) continue;

    DatalogEvalStats serial_stats;
    auto serial = EvaluateProgram(program, edb, EvalOptions(), &serial_stats);
    ASSERT_TRUE(serial.ok()) << "trial " << trial;
    const std::string serial_dump = serial->ToString();

    for (int threads : {2, 8}) {
      EvalOptions options;
      options.exec.threads = threads;
      DatalogEvalStats stats;
      auto parallel = EvaluateProgram(program, edb, options, &stats);
      ASSERT_TRUE(parallel.ok()) << "trial " << trial;
      EXPECT_EQ(parallel->ToString(), serial_dump)
          << "trial " << trial << " threads " << threads;
      ExpectEqualStats(stats, serial_stats,
                       "trial " + std::to_string(trial) + " threads " +
                           std::to_string(threads));
    }
  }
}

#ifndef QCONT_OBS_NOOP
TEST(ParallelDeterminismTest, MetricRegistryTotalsAreThreadCountInvariant) {
  // The registry mirrors inherit the determinism contract checked above:
  // per-shard splits are schedule-dependent, the summed snapshot is not.
  std::mt19937 rng(99);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 5; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    if (!program.Validate().ok()) continue;
    std::map<std::string, std::uint64_t> reference;
    for (int threads : kThreadCounts) {
      MetricRegistry registry;
      ObsContext obs{&registry, nullptr};
      EvalOptions options;
      options.exec.threads = threads;
      options.obs = &obs;
      ASSERT_TRUE(EvaluateProgram(program, edb, options).ok())
          << "trial " << trial;
      auto snapshot = registry.Snapshot();
      ASSERT_FALSE(snapshot.empty()) << "trial " << trial;
      if (reference.empty()) {
        reference = std::move(snapshot);
      } else {
        EXPECT_EQ(snapshot, reference)
            << "trial " << trial << " threads " << threads;
      }
    }
  }
}
#endif  // QCONT_OBS_NOOP

TEST(ParallelDeterminismTest, UcqInDatalogContainmentThreadCountInvariant) {
  std::mt19937 rng(2718);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int trial = 0; trial < 10; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 2, 2, 1);
    if (!ucq.Validate().ok()) continue;
    DatalogEvalStats serial_stats;
    auto serial = UcqContainedInDatalog(ucq, program, {}, &serial_stats);
    ASSERT_TRUE(serial.ok()) << "trial " << trial;
    for (int threads : kThreadCounts) {
      EvalOptions options;
      options.exec.threads = threads;
      DatalogEvalStats stats;
      auto parallel = UcqContainedInDatalog(ucq, program, options, &stats);
      ASSERT_TRUE(parallel.ok()) << "trial " << trial;
      EXPECT_EQ(*parallel, *serial)
          << "trial " << trial << " threads " << threads;
      ExpectEqualStats(stats, serial_stats,
                       "trial " + std::to_string(trial) + " threads " +
                           std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Type-automaton fixpoint: round-parallel vs serial.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, TypeEngineIsThreadCountInvariant) {
  std::mt19937 rng(20140623);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  int yes = 0, no = 0;
  for (int trial = 0; trial < 15; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    std::vector<ConjunctiveQuery> disjuncts;
    int nd = 1 + static_cast<int>(rng() % 2);
    for (int d = 0; d < nd; ++d) {
      ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 2, 2, 1);
      if (cq.Validate().ok()) disjuncts.push_back(cq);
    }
    if (disjuncts.empty()) continue;
    UnionQuery ucq(std::move(disjuncts));

    TypeEngineStats serial_stats;
    auto serial = DatalogContainedInUcq(program, ucq, &serial_stats);
    ASSERT_TRUE(serial.ok()) << program.ToString();
    (serial->contained ? yes : no)++;
    for (int threads : kThreadCounts) {
      TypeEngineOptions options;
      options.exec.threads = threads;
      TypeEngineStats stats;
      auto parallel = DatalogContainedInUcq(program, ucq, &stats, options);
      ASSERT_TRUE(parallel.ok()) << "trial " << trial;
      EXPECT_EQ(parallel->contained, serial->contained)
          << "trial " << trial << " threads " << threads;
      ASSERT_EQ(parallel->witness.has_value(), serial->witness.has_value())
          << "trial " << trial << " threads " << threads;
      if (parallel->witness.has_value()) {
        // The per-round task order is fixed, so even the witness expansion
        // is identical for every thread count.
        EXPECT_EQ(parallel->witness->ToString(), serial->witness->ToString())
            << "trial " << trial << " threads " << threads;
      }
      ExpectEqualStats(stats, serial_stats,
                       "trial " + std::to_string(trial) + " threads " +
                           std::to_string(threads));
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(ParallelDeterminismTest, TypeEngineBudgetErrorsAreThreadCountInvariant) {
  // A recursive transitive-closure program blows the one-type budget the
  // same way at every thread count.
  std::vector<Rule> rules;
  rules.push_back(Rule{
      Atom("t", {Term::Variable("x"), Term::Variable("y")}),
      {Atom("e", {Term::Variable("x"), Term::Variable("y")})}});
  rules.push_back(Rule{
      Atom("t", {Term::Variable("x"), Term::Variable("y")}),
      {Atom("t", {Term::Variable("x"), Term::Variable("z")}),
       Atom("t", {Term::Variable("z"), Term::Variable("y")})}});
  DatalogProgram program(std::move(rules), "t");
  ConjunctiveQuery cq({Term::Variable("x"), Term::Variable("y")},
                      {Atom("e", {Term::Variable("x"), Term::Variable("y")})});
  UnionQuery ucq({cq});
  for (int threads : kThreadCounts) {
    TypeEngineOptions options;
    options.max_types = 1;
    options.exec.threads = threads;
    auto answer = DatalogContainedInUcq(program, ucq, nullptr, options);
    ASSERT_FALSE(answer.ok()) << "threads " << threads;
    EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace qcont
