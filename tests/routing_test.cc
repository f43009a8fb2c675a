// Differential tests for analysis-driven engine routing: the auto-routed
// answer must be identical to every forced engine's answer on the same
// input, for evaluation (RoutedSatisfiable / RoutedEvaluateCq) and for
// containment (DecideContainment). Also covers the analysis report cache:
// alpha-equivalent queries share one entry. See DESIGN.md §14.

#include "analysis/routing.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "core/router.h"
#include "structure/join_tree.h"
#include "tests/generators.h"

namespace qcont {
namespace {

using analysis::AnalysisCacheStats;
using analysis::EngineKind;
using analysis::ForcedEvalEngine;
using analysis::RoutedEvalOptions;

std::vector<Tuple> Sorted(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// A guaranteed-cyclic CQ: a triangle core (the classic cyclic pattern)
// plus a few random extra atoms. Small uniform-random CQs are acyclic far
// too often to exercise the cyclic route reliably.
ConjunctiveQuery RandomCyclicCq(std::mt19937* rng,
                                const testgen::SchemaSpec& schema,
                                int extra_atoms) {
  std::vector<Atom> atoms = {
      Atom("a", {Term::Variable("x0"), Term::Variable("x1")}),
      Atom("a", {Term::Variable("x1"), Term::Variable("x2")}),
      Atom("b", {Term::Variable("x2"), Term::Variable("x0")})};
  for (int i = 0; i < extra_atoms; ++i) {
    const auto& [name, arity] =
        schema.relations[(*rng)() % schema.relations.size()];
    std::vector<Term> terms;
    for (int j = 0; j < arity; ++j) {
      terms.push_back(Term::Variable(testgen::Numbered("x", (*rng)() % 4)));
    }
    atoms.emplace_back(name, std::move(terms));
  }
  return ConjunctiveQuery({Term::Variable("x0")}, std::move(atoms));
}

TEST(RoutingDifferentialTest, SatisfiableMatchesEveryForcedEngine) {
  std::mt19937 rng(2026);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  int acyclic_seen = 0;
  int cyclic_seen = 0;
  for (int round = 0; round < 40; ++round) {
    ConjunctiveQuery cq =
        (round % 2 == 0)
            ? RandomCyclicCq(&rng, schema, rng() % 3)
            : testgen::RandomAcyclicCq(&rng, schema, 2 + rng() % 4, 1);
    Database db = testgen::RandomDatabase(&rng, schema, 3, 10 + rng() % 20);

    EngineKind chosen;
    Result<bool> routed = analysis::RoutedSatisfiable(cq, db, {}, {}, &chosen);
    ASSERT_TRUE(routed.ok()) << "round " << round;
    if (IsAcyclic(cq)) {
      EXPECT_EQ(chosen, EngineKind::kYannakakis);
      ++acyclic_seen;
    } else {
      ++cyclic_seen;
    }

    // The generic backtracking search and the decomposition DP accept any
    // CQ; Yannakakis only the acyclic ones.
    std::vector<ForcedEvalEngine> forced = {ForcedEvalEngine::kGenericHomSearch,
                                            ForcedEvalEngine::kDecompDp};
    if (IsAcyclic(cq)) forced.push_back(ForcedEvalEngine::kYannakakis);
    for (ForcedEvalEngine force : forced) {
      RoutedEvalOptions options;
      options.force = force;
      Result<bool> answer = analysis::RoutedSatisfiable(cq, db, {}, options);
      ASSERT_TRUE(answer.ok()) << "round " << round;
      EXPECT_EQ(*answer, *routed)
          << "round " << round << " forced engine "
          << static_cast<int>(force);
    }
  }
  // The generator mix must actually exercise both routes.
  EXPECT_GT(acyclic_seen, 5);
  EXPECT_GT(cyclic_seen, 5);
}

TEST(RoutingDifferentialTest, EvaluateMatchesEveryForcedEngine) {
  std::mt19937 rng(2027);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int round = 0; round < 30; ++round) {
    ConjunctiveQuery cq =
        (round % 2 == 0)
            ? RandomCyclicCq(&rng, schema, rng() % 3)
            : testgen::RandomAcyclicCq(&rng, schema, 2 + rng() % 4, 1);
    Database db = testgen::RandomDatabase(&rng, schema, 3, 10 + rng() % 20);

    Result<std::vector<Tuple>> routed = analysis::RoutedEvaluateCq(cq, db);
    ASSERT_TRUE(routed.ok()) << "round " << round;

    std::vector<ForcedEvalEngine> forced = {
        ForcedEvalEngine::kGenericHomSearch};
    if (IsAcyclic(cq)) forced.push_back(ForcedEvalEngine::kYannakakis);
    for (ForcedEvalEngine force : forced) {
      RoutedEvalOptions options;
      options.force = force;
      Result<std::vector<Tuple>> answer =
          analysis::RoutedEvaluateCq(cq, db, options);
      ASSERT_TRUE(answer.ok()) << "round " << round;
      EXPECT_EQ(Sorted(*answer), Sorted(*routed)) << "round " << round;
    }
  }
}

TEST(RoutingDifferentialTest, ForcedEngineOutsideItsClassErrors) {
  // Triangle: cyclic, so forcing Yannakakis must surface that engine's own
  // precondition failure rather than silently falling back.
  std::vector<Atom> atoms = {
      Atom("a", {Term::Variable("x"), Term::Variable("y")}),
      Atom("a", {Term::Variable("y"), Term::Variable("z")}),
      Atom("a", {Term::Variable("z"), Term::Variable("x")})};
  ConjunctiveQuery triangle({Term::Variable("x")}, std::move(atoms));
  Database db;
  db.AddFact("a", {"1", "2"});

  RoutedEvalOptions options;
  options.force = ForcedEvalEngine::kYannakakis;
  EXPECT_FALSE(analysis::RoutedSatisfiable(triangle, db, {}, options).ok());

  // The decomposition DP has no enumeration variant; forcing it on full
  // evaluation is an explicit error, never a silent fallback.
  options.force = ForcedEvalEngine::kDecompDp;
  EXPECT_FALSE(analysis::RoutedEvaluateCq(triangle, db, options).ok());
}

TEST(RoutingDifferentialTest, ContainmentMatchesEveryForcedRoute) {
  std::mt19937 rng(2028);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int round = 0; round < 12; ++round) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 1 + rng() % 2,
                                               2 + rng() % 2, 1);

    RouterOptions auto_options;
    Result<RoutedAnswer> routed =
        DecideContainment(program, ucq, auto_options);
    ASSERT_TRUE(routed.ok()) << "round " << round;
    // Acyclic UCQs must take the single-exponential route on the default
    // path (Corollary 1).
    EXPECT_EQ(routed->route, ContainmentRoute::kAckEngine)
        << "round " << round;

    for (ForcedRoute force :
         {ForcedRoute::kAckEngine, ForcedRoute::kGeneralEngine}) {
      RouterOptions options;
      options.force = force;
      Result<RoutedAnswer> forced = DecideContainment(program, ucq, options);
      ASSERT_TRUE(forced.ok()) << "round " << round;
      EXPECT_EQ(forced->answer.contained, routed->answer.contained)
          << "round " << round << " forced route "
          << static_cast<int>(force);
    }
  }
}

TEST(AnalysisCacheTest, AlphaEquivalentQueriesShareOneEntry) {
  analysis::ClearGlobalAnalysisCache();
  ConjunctiveQuery q1({Term::Variable("x")},
                      {Atom("a", {Term::Variable("x"), Term::Variable("y")}),
                       Atom("b", {Term::Variable("y"), Term::Variable("z")})});
  // Same query up to consistent renaming: must hit the same cache entry.
  ConjunctiveQuery q2({Term::Variable("u")},
                      {Atom("a", {Term::Variable("u"), Term::Variable("v")}),
                       Atom("b", {Term::Variable("v"), Term::Variable("w")})});

  analysis::AnalysisReport r1 = analysis::AnalyzeForRouting(UnionQuery({q1}));
  AnalysisCacheStats after_first = analysis::GlobalAnalysisCacheStats();
  EXPECT_EQ(after_first.entries, 1u);

  analysis::AnalysisReport r2 = analysis::AnalyzeForRouting(UnionQuery({q2}));
  AnalysisCacheStats after_second = analysis::GlobalAnalysisCacheStats();
  EXPECT_EQ(after_second.entries, 1u);
  EXPECT_EQ(after_second.hits, after_first.hits + 1);
  EXPECT_EQ(r1.query_hash, r2.query_hash);
  EXPECT_EQ(r1.eval_engine, r2.eval_engine);

  // A structurally different query is a miss and a new entry.
  ConjunctiveQuery q3({Term::Variable("x")},
                      {Atom("a", {Term::Variable("x"), Term::Variable("x")})});
  analysis::AnalyzeForRouting(UnionQuery({q3}));
  EXPECT_EQ(analysis::GlobalAnalysisCacheStats().entries, 2u);

  // Disabling the cache leaves the stats untouched.
  analysis::RoutingOptions no_cache;
  no_cache.use_cache = false;
  AnalysisCacheStats before = analysis::GlobalAnalysisCacheStats();
  analysis::AnalyzeForRouting(UnionQuery({q1}), no_cache);
  AnalysisCacheStats after = analysis::GlobalAnalysisCacheStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.entries, before.entries);
}

TEST(AnalysisCacheTest, GlobalCacheIsBounded) {
  analysis::ClearGlobalAnalysisCache();
  const std::size_t bound = analysis::kGlobalAnalysisCacheCapacity;
  for (std::size_t i = 0; i <= bound; ++i) {
    ConjunctiveQuery q({Term::Variable("x")},
                       {Atom(testgen::Numbered("p", i),
                             {Term::Variable("x"), Term::Variable("y")})});
    analysis::AnalyzeForRouting(UnionQuery({q}));
  }
  AnalysisCacheStats stats = analysis::GlobalAnalysisCacheStats();
  EXPECT_EQ(stats.entries, bound);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(ChooseEngineTest, PolicyOverReportFields) {
  analysis::AnalysisReport report;

  report.acyclic = true;
  EXPECT_EQ(analysis::ChooseEngine(report, analysis::RoutingGoal::kEvaluate),
            EngineKind::kYannakakis);
  EXPECT_EQ(
      analysis::ChooseEngine(report, analysis::RoutingGoal::kContainment),
      EngineKind::kAckEngine);

  report.acyclic = false;
  report.treewidth = 2;
  EXPECT_EQ(analysis::ChooseEngine(report, analysis::RoutingGoal::kEvaluate),
            EngineKind::kDecompDp);
  EXPECT_EQ(
      analysis::ChooseEngine(report, analysis::RoutingGoal::kContainment),
      EngineKind::kTypeEngine);

  report.treewidth = 7;
  EXPECT_EQ(analysis::ChooseEngine(report, analysis::RoutingGoal::kEvaluate),
            EngineKind::kGenericHomSearch);
}

}  // namespace
}  // namespace qcont
