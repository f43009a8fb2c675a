// Differential tests for the indexed join substrate: the indexed search
// (dynamic atom order, per-relation hash indexes) must agree with the scan
// reference of tests/hom_oracle.h (static greedy order, full relation
// scans) on randomized instances, and must never enumerate more candidate
// tuples.

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/eval.h"
#include "structure/acyclic_eval.h"
#include "tests/db_oracle.h"
#include "tests/generators.h"
#include "tests/hom_oracle.h"

namespace qcont {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// Total candidate tuples the engine inspected, whichever way it got them.
std::uint64_t Candidates(const HomSearchStats& stats) {
  return stats.index_candidates + stats.scan_candidates;
}

TEST(IndexDifferentialTest, FindHomomorphismAgreesOnRandomInstances) {
  std::mt19937 rng(20260807);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 60; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 4, 12);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 4, 1);
    HomSearchStats indexed_stats, scan_stats;
    auto indexed = FindHomomorphism(cq, db, {}, &indexed_stats);
    auto scan = oracle::FindHomomorphism(cq, db, {}, &scan_stats);
    EXPECT_EQ(indexed.has_value(), scan.has_value()) << "trial " << trial;
    if (indexed.has_value()) {
      // The witnesses may differ (different search orders), but both must
      // be homomorphisms: every body atom's image must be a fact.
      for (const Atom& a : cq.atoms()) {
        Tuple image;
        for (const Term& t : a.terms()) {
          image.push_back(t.is_variable() ? indexed->at(t.name()) : t.name());
        }
        EXPECT_TRUE(db.HasFact(a.predicate(), image)) << "trial " << trial;
      }
    }
  }
}

TEST(IndexDifferentialTest, EvaluateCqAgreesOnRandomInstances) {
  std::mt19937 rng(7071);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 40; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 5, 16);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 3, 4, 2);
    HomSearchStats indexed_stats, scan_stats;
    std::vector<Tuple> indexed = Sorted(EvaluateCq(cq, db, &indexed_stats));
    std::vector<Tuple> scan =
        Sorted(oracle::EvaluateCq(cq, db, &scan_stats));
    EXPECT_EQ(indexed, scan) << "trial " << trial;
    // The indexed engine only ever shrinks the candidate stream: a probe
    // returns a subset of the rows a full scan would have walked.
    EXPECT_LE(Candidates(indexed_stats), Candidates(scan_stats))
        << "trial " << trial;
  }
}

TEST(IndexDifferentialTest, EvaluateUcqAgreesOnRandomInstances) {
  std::mt19937 rng(4242);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 25; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 4, 14);
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 3, 3, 1);
    HomSearchStats indexed_stats, scan_stats;
    EXPECT_EQ(EvaluateUcq(ucq, db, &indexed_stats),
              oracle::EvaluateUcq(ucq, db, &scan_stats))
        << "trial " << trial;
    EXPECT_LE(Candidates(indexed_stats), Candidates(scan_stats))
        << "trial " << trial;
  }
}

TEST(IndexDifferentialTest, FixedAssignmentsAgree) {
  std::mt19937 rng(99);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int trial = 0; trial < 30; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 4, 10);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 3, 3, 0);
    // Pin the first body variable to a random domain value (mirrors the
    // frozen-head construction in the containment tests).
    Assignment fixed;
    if (!cq.atoms().empty() && !db.ActiveDomain().empty()) {
      const Term& t = cq.atoms()[0].terms()[0];
      if (t.is_variable()) {
        fixed[t.name()] = db.ActiveDomain()[rng() % db.ActiveDomain().size()];
      }
    }
    auto indexed = FindHomomorphism(cq, db, fixed);
    auto scan = oracle::FindHomomorphism(cq, db, fixed);
    EXPECT_EQ(indexed.has_value(), scan.has_value()) << "trial " << trial;
  }
}

TEST(IndexDifferentialTest, DatalogFixpointAgreesAcrossEnginesAndStrategies) {
  std::mt19937 rng(31337);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 20; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 10);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    std::vector<std::vector<Tuple>> goals;
    for (EvalStrategy strategy :
         {EvalStrategy::kNaive, EvalStrategy::kSemiNaive}) {
      auto scan = oracle::EvaluateGoal(program, edb, strategy);
      EvalOptions options;
      options.strategy = strategy;
      auto indexed = EvaluateGoal(program, edb, options);
      ASSERT_TRUE(scan.ok() && indexed.ok()) << "trial " << trial;
      goals.push_back(*scan);
      goals.push_back(*indexed);
    }
    for (std::size_t i = 1; i < goals.size(); ++i) {
      EXPECT_EQ(goals[0], goals[i]) << "trial " << trial << " engine " << i;
    }
  }
}

TEST(IndexDifferentialTest, SemiNaiveIndexedNeverScansMoreThanScanEngine) {
  std::mt19937 rng(555);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int trial = 0; trial < 15; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 5, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    DatalogEvalStats indexed_stats, scan_stats;
    // The candidate-count invariant targets the recursive indexed search
    // (a probe returns a subset of a scan), which the naive strategy runs
    // for every firing. Semi-naive delta rounds use the block-at-a-time
    // engine, which fixes its atom order statically and may trade extra
    // candidates for batched probes; its differential coverage lives in
    // probe_kernel_test.cc.
    EvalOptions naive;
    naive.strategy = EvalStrategy::kNaive;
    auto indexed = EvaluateGoal(program, edb, naive, &indexed_stats);
    auto scan = oracle::EvaluateGoal(program, edb, EvalStrategy::kNaive,
                                     &scan_stats);
    ASSERT_TRUE(indexed.ok() && scan.ok()) << "trial " << trial;
    EXPECT_EQ(*indexed, *scan) << "trial " << trial;
    EXPECT_LE(Candidates(indexed_stats.hom), Candidates(scan_stats.hom))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Storage layout. The database is checked against an independent oracle
// (tests/db_oracle.h: the inserted facts deduplicated through a std::set),
// and each engine is run twice on one database — first while it builds the
// lazy per-mask indexes, then on the built ones. Both passes must give the
// same answers *and* the same engine-level counters: index state is
// invisible to the search.
// ---------------------------------------------------------------------------

void ExpectStatsEqual(const HomSearchStats& a, const HomSearchStats& b,
                      int trial) {
  EXPECT_EQ(a.atom_attempts, b.atom_attempts) << "trial " << trial;
  EXPECT_EQ(a.backtracks, b.backtracks) << "trial " << trial;
  EXPECT_EQ(a.index_probes, b.index_probes) << "trial " << trial;
  EXPECT_EQ(a.index_candidates, b.index_candidates) << "trial " << trial;
  EXPECT_EQ(a.scan_candidates, b.scan_candidates) << "trial " << trial;
}

TEST(LayoutDifferentialTest, HomSearchAgreesWithIdenticalStats) {
  std::mt19937 rng(20260807);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 40; ++trial) {
    const Database db = testgen::RandomDatabase(&rng, schema, 5, 24);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 4, 2);
    const std::vector<Tuple> want = Sorted(oracle::EvaluateCq(cq, db));
    HomSearchStats base_stats;
    for (int pass = 0; pass < 2; ++pass) {
      HomSearchStats s;
      EXPECT_EQ(Sorted(EvaluateCq(cq, db, &s)), want)
          << "trial " << trial << " pass " << pass;
      if (pass == 0) {
        base_stats = s;
      } else {
        ExpectStatsEqual(base_stats, s, trial);
      }
    }
  }
}

TEST(LayoutDifferentialTest, SemiNaiveEvalAgreesAcrossThreadsAndWithNaive) {
  std::mt19937 rng(424243);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 12; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    EvalOptions naive;
    naive.strategy = EvalStrategy::kNaive;
    auto want = EvaluateGoal(program, edb, naive);
    ASSERT_TRUE(want.ok()) << "trial " << trial;
    std::vector<DatalogEvalStats> stats;
    for (int threads : {1, 8}) {
      EvalOptions options;
      options.exec = ExecContext{.threads = threads, .stats = nullptr};
      DatalogEvalStats s;
      auto goal = EvaluateGoal(program, edb, options, &s);
      ASSERT_TRUE(goal.ok()) << "trial " << trial;
      EXPECT_EQ(*goal, *want) << "trial " << trial << " threads " << threads;
      stats.push_back(s);
    }
    EXPECT_EQ(stats[0].iterations, stats[1].iterations) << "trial " << trial;
    EXPECT_EQ(stats[0].rule_firings, stats[1].rule_firings)
        << "trial " << trial;
    EXPECT_EQ(stats[0].derived_facts, stats[1].derived_facts)
        << "trial " << trial;
    ExpectStatsEqual(stats[0].hom, stats[1].hom, trial);
  }
}

TEST(LayoutDifferentialTest, YannakakisAgreesWithIdenticalStats) {
  std::mt19937 rng(777001);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 30; ++trial) {
    const Database db = testgen::RandomDatabase(&rng, schema, 5, 20);
    ConjunctiveQuery cq = testgen::RandomAcyclicCq(&rng, schema, 4, 1);
    // Reference answers from the scan-based homomorphism search.
    const std::vector<Tuple> want = Sorted(oracle::EvaluateCq(cq, db));
    YannakakisStats base_sat, base_eval;
    for (int pass = 0; pass < 2; ++pass) {
      YannakakisStats sat_stats, eval_stats;
      auto sat = AcyclicSatisfiable(cq, db, {}, &sat_stats);
      auto eval = EvaluateAcyclicCq(cq, db, &eval_stats);
      ASSERT_TRUE(sat.ok() && eval.ok()) << "trial " << trial;
      EXPECT_EQ(*sat, !want.empty()) << "trial " << trial << " pass " << pass;
      EXPECT_EQ(Sorted(*eval), want) << "trial " << trial << " pass " << pass;
      if (pass == 0) {
        base_sat = sat_stats;
        base_eval = eval_stats;
        continue;
      }
      for (const auto& [a, b] : {std::pair{base_sat, sat_stats},
                                 std::pair{base_eval, eval_stats}}) {
        EXPECT_EQ(a.semijoins, b.semijoins) << "trial " << trial;
        EXPECT_EQ(a.tuples_scanned, b.tuples_scanned) << "trial " << trial;
        EXPECT_EQ(a.index_probes, b.index_probes) << "trial " << trial;
      }
    }
  }
}

TEST(LayoutDifferentialTest, FactsRowsAndProbesMatchOracle) {
  std::mt19937 rng(90909);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  const int domain = 4;
  for (int trial = 0; trial < 20; ++trial) {
    Database db;
    testgen::DatabaseOracle oracle;
    for (const auto& [rel, t] :
         testgen::RandomFacts(&rng, schema, domain, 30)) {
      ASSERT_EQ(db.AddFact(rel, t), oracle.Add(rel, t)) << "trial " << trial;
    }
    std::vector<Tuple> keys;
    for (int k = 0; k < 24; ++k) {
      keys.push_back({testgen::Numbered("v", rng() % domain),
                      testgen::Numbered("v", rng() % domain)});
    }
    const std::string where = "trial " + std::to_string(trial);
    testgen::ExpectMatchesOracle(db, oracle, where);
    for (const std::string& rel : oracle.Relations()) {
      testgen::ExpectProbesMatchOracle(db, oracle, rel, keys, where);
    }
  }
}

TEST(LayoutDifferentialTest, SemiNaiveAgreesAcrossThreadCountsExactly) {
  std::mt19937 rng(8081);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 8; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 14);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    std::vector<std::vector<Tuple>> goals;
    std::vector<DatalogEvalStats> stats;
    // The first run (threads=1) is the oracle.
    for (int threads : {1, 8}) {
      EvalOptions options;
      options.exec = ExecContext{.threads = threads, .stats = nullptr};
      DatalogEvalStats s;
      auto goal = EvaluateGoal(program, edb, options, &s);
      ASSERT_TRUE(goal.ok()) << "trial " << trial;
      goals.push_back(*goal);
      stats.push_back(s);
    }
    for (std::size_t i = 1; i < goals.size(); ++i) {
      EXPECT_EQ(goals[0], goals[i]) << "trial " << trial << " run " << i;
      EXPECT_EQ(stats[0].iterations, stats[i].iterations)
          << "trial " << trial << " run " << i;
      EXPECT_EQ(stats[0].rule_firings, stats[i].rule_firings)
          << "trial " << trial << " run " << i;
      EXPECT_EQ(stats[0].derived_facts, stats[i].derived_facts)
          << "trial " << trial << " run " << i;
      ExpectStatsEqual(stats[0].hom, stats[i].hom, trial);
    }
  }
}

TEST(LayoutDifferentialTest, ProbeOnlyWorkloadTakesNoExclusiveLocks) {
  // Regression test for the lock-free read contract (ARCHITECTURE.md):
  // once a database is frozen, concurrent full-mask probes touch no
  // exclusive lock — they are served entirely by the primary tables. Runs
  // under the TSAN CI leg, which would also flag any data race the
  // counter misses.
  std::mt19937 rng(515151);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  Database db = testgen::RandomDatabase(&rng, schema, 6, 200);
  const RelationId id = db.RelationIdOf(db.Relations().front());
  const std::size_t n = db.NumRows(id);
  ASSERT_GT(n, 0u);
  std::vector<ValueId> keys;
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const ValueId> row = db.Row(id, r);
    keys.insert(keys.end(), row.begin(), row.end());
  }
  const std::uint64_t locks_before = db.memo_exclusive_locks();
  const std::uint64_t epoch_before = db.mutation_epoch();
  ExecContext ctx{.threads = 4, .stats = nullptr};
  ParallelFor(ctx, 8, [&](std::size_t) {
    std::vector<std::span<const std::uint32_t>> hits(n);
    db.ProbeMany(id, 0x3u, keys,
                 std::span<std::span<const std::uint32_t>>(hits));
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(hits[r].size(), 1u);
    }
  });
  EXPECT_EQ(db.memo_exclusive_locks(), locks_before)
      << "a probe-only workload acquired an exclusive lock";
  EXPECT_EQ(db.mutation_epoch(), epoch_before);
}

}  // namespace
}  // namespace qcont
