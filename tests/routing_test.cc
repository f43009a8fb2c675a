// Differential tests for analysis-driven engine routing: the auto-routed
// answer must be identical to every forced engine's answer on the same
// input, for evaluation (RoutedSatisfiable / RoutedEvaluateCq) and for
// containment (DecideContainment). Also covers the analysis report cache:
// alpha-equivalent queries share one entry. See DESIGN.md §14.

#include "analysis/routing.h"

#include <algorithm>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "core/router.h"
#include "cq/core.h"
#include "parser/parser.h"
#include "structure/join_tree.h"
#include "tests/engine_parity_cases.h"
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

// Routing on the ACk engine's GYO pass (the kAuto default) must answer
// exactly as routing on a caller-held AnalysisReport for the same pair:
// same route, verdict, witness and level, or the same error.
void ExpectSameAsReportRoute(const DatalogProgram& program,
                             const UnionQuery& ucq, const std::string& at) {
  analysis::RoutingOptions routing;
  routing.use_cache = false;
  const analysis::AnalysisReport report =
      analysis::AnalyzeForRouting(program, ucq, routing);
  RouterOptions with_report;
  with_report.report = &report;
  Result<RoutedAnswer> want = DecideContainment(program, ucq, with_report);
  Result<RoutedAnswer> got = DecideContainment(program, ucq);
  ASSERT_EQ(got.ok(), want.ok()) << at << ": " << got.status().ToString()
                                 << " vs " << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << at;
    return;
  }
  EXPECT_EQ(got->route, want->route) << at;
  EXPECT_EQ(got->answer.contained, want->answer.contained) << at;
  EXPECT_EQ(got->ack_level, want->ack_level) << at;
  ASSERT_EQ(got->answer.witness.has_value(), want->answer.witness.has_value())
      << at;
  if (got->answer.witness.has_value()) {
    EXPECT_EQ(got->answer.witness->ToString(), want->answer.witness->ToString())
        << at;
  }
}

TEST(RoutingParityTest, GyoRouteMatchesReportRouteOnDraws) {
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int draw = 0; draw < 60; ++draw) {
    std::mt19937 rng(9100 + draw);
    const int arity = draw % 3;
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, arity);
    UnionQuery acyclic = testgen::RandomAcyclicUcq(
        &rng, schema, 1 + static_cast<int>(rng() % 3), 3, arity);
    ExpectSameAsReportRoute(program, acyclic, "acyclic draw " +
                                                  std::to_string(draw));
    // A cyclic disjunct anywhere in the union sends it to the type engine.
    DatalogProgram unary = testgen::RandomLinearProgram(&rng, schema, 1);
    std::vector<ConjunctiveQuery> disjuncts = {
        testgen::RandomAcyclicCq(&rng, schema, 2, 1),
        RandomCyclicCq(&rng, schema, static_cast<int>(rng() % 2))};
    if (draw % 2 == 1) std::swap(disjuncts[0], disjuncts[1]);
    UnionQuery mixed(std::move(disjuncts));
    ASSERT_FALSE(IsAcyclic(mixed.disjuncts()[1 - draw % 2]));
    ExpectSameAsReportRoute(unary, mixed,
                            "cyclic draw " + std::to_string(draw));
  }
}

TEST(RoutingParityTest, GyoRouteMatchesReportRouteOnAckParityCases) {
  for (const parity::AckCase& c : parity::AckCases()) {
    ExpectSameAsReportRoute(c.program, c.ucq, c.name);
  }
}

TEST(RoutingParityTest, GyoRouteMatchesReportRouteOnEdgeShapes) {
  const Term x = Term::Variable("x");
  const Term y = Term::Variable("y");
  const Term z = Term::Variable("z");
  const Term a = Term::Constant("a");
  auto program = ParseProgram(
      "g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.");
  auto unary = ParseProgram("g(x) :- e(x,y), g(y). g(x) :- e(x,x). goal g.");
  ASSERT_TRUE(program.ok() && unary.ok());

  // Single-atom disjuncts share no variables: level 1 by convention.
  auto single = ParseUcq("Q(x,y) :- e(x,y). Q(x,y) :- e(y,x).");
  ASSERT_TRUE(single.ok());
  ExpectSameAsReportRoute(*program, *single, "single-atom disjuncts");
  Result<RoutedAnswer> routed = DecideContainment(*program, *single);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->ack_level, 1);

  // A triangle with a loop (the replay corpus' shape), cyclic, but with
  // only x free its core is the loop e(x,x): the query routes general, its
  // core to ACk.
  auto with_loop = ParseUcq("Q(x) :- e(x,y), e(y,z), e(z,x), e(x,x).");
  ASSERT_TRUE(with_loop.ok());
  ExpectSameAsReportRoute(*unary, *with_loop, "cyclic, acyclic core");
  auto core = CoreOf(with_loop->disjuncts()[0]);
  ASSERT_TRUE(core.ok());
  ASSERT_TRUE(IsAcyclic(*core));
  ExpectSameAsReportRoute(*unary, UnionQuery({*core}), "its core");

  // Constant-bearing and otherwise invalid queries fail with the same
  // status on both sides of the route.
  const ConjunctiveQuery const_acyclic({x}, {Atom("e", {x, a})});
  const ConjunctiveQuery const_cyclic(
      {x}, {Atom("e", {x, y}), Atom("e", {y, z}), Atom("e", {z, x}),
            Atom("e", {x, a})});
  const ConjunctiveQuery plain({x}, {Atom("e", {x, y})});
  for (const auto& [name, ucq] :
       std::vector<std::pair<std::string, UnionQuery>>{
           {"constant, acyclic", UnionQuery({const_acyclic})},
           {"constant, cyclic", UnionQuery({const_cyclic})},
           {"constant, mixed", UnionQuery({plain, const_cyclic})},
           {"arity mismatch", UnionQuery({ConjunctiveQuery({x, y},
                                                           {Atom("e", {x, y})})})},
           {"no disjuncts", UnionQuery(std::vector<ConjunctiveQuery>{})}}) {
    ExpectSameAsReportRoute(*unary, ucq, name);
    EXPECT_FALSE(DecideContainment(*unary, ucq).ok()) << name;
  }

  // Wide heads: 128 positions ahead of the goal variable in the IDB, and a
  // 40-wide UCQ head, on both routes. (Built by appending: operator+ chains
  // trip a GCC 12 -Wrestrict false positive.)
  auto cat = [](std::initializer_list<std::string> parts) {
    std::string out;
    for (const std::string& part : parts) out += part;
    return out;
  };
  std::string wide;
  for (int i = 0; i < 128; ++i) {
    wide += testgen::Numbered("A", i);
    wide += ',';
  }
  auto wide_idb =
      ParseProgram(cat({"p(", wide, "Z) :- w(", wide, "Z), r(Z). q(Z) :- p(",
                        wide, "Z), s(Z), e(Z,Y), e(Y,U), e(U,Z). goal q."}));
  ASSERT_TRUE(wide_idb.ok());
  for (const char* text :
       {"Q(Z) :- r(Z), s(Z).", "Q(Z) :- r(Z), e(Z,Z).",
        "Q(Z) :- r(Z), e(Z,Y), e(Y,U), e(U,Z)."}) {
    auto ucq = ParseUcq(text);
    ASSERT_TRUE(ucq.ok()) << text;
    ExpectSameAsReportRoute(*wide_idb, *ucq, text);
  }
  std::string head = "X0";
  for (int i = 1; i < 40; ++i) {
    head += ',';
    head += testgen::Numbered("X", i);
  }
  auto wide_goal = ParseProgram(cat({"g(", head, ") :- b(", head, "). goal g."}));
  ASSERT_TRUE(wide_goal.ok());
  for (const std::string& text :
       {cat({"Q(", head, ") :- b(", head, ")."}),
        cat({"Q(", head, ") :- b(", head, "), c(X0)."}),
        cat({"Q(", head, ") :- b(", head, "), e(X0,X1), e(X1,X2), e(X2,X0)."})}) {
    auto ucq = ParseUcq(text);
    ASSERT_TRUE(ucq.ok()) << text;
    ExpectSameAsReportRoute(*wide_goal, *ucq, text);
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
