#include <gtest/gtest.h>

#include <random>

#include "cq/containment.h"
#include "datalog/eval.h"
#include "datalog/expansion.h"
#include "parser/parser.h"
#include "tests/generators.h"

namespace qcont {
namespace {

DatalogProgram Tc() {
  auto p = ParseProgram(
      "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.");
  EXPECT_TRUE(p.ok());
  return *p;
}

TEST(ProgramTest, ValidateAndClassify) {
  DatalogProgram tc = Tc();
  EXPECT_TRUE(tc.Validate().ok());
  EXPECT_TRUE(tc.IsRecursive());
  EXPECT_TRUE(tc.IsLinear());
  EXPECT_FALSE(tc.IsMonadic());
  EXPECT_EQ(tc.GoalArity(), 2);
  EXPECT_EQ(tc.IntensionalPredicates().size(), 1u);
  EXPECT_EQ(tc.ExtensionalPredicates().size(), 1u);
  EXPECT_EQ(tc.MaxRuleVariables(), 3);
  EXPECT_EQ(tc.MaxIntensionalAtoms(), 1);
}

TEST(ProgramTest, ValidateRejectsUnsafeRule) {
  auto p = ParseProgram("p(x,y) :- e(x,x). goal p.");
  EXPECT_FALSE(p.ok());
}

TEST(ProgramTest, NonRecursiveAndNonLinear) {
  auto p = ParseProgram(
      "s(x) :- e(x,y). q(x) :- s(x), s(x). goal q.");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->IsRecursive());
  EXPECT_FALSE(p->IsLinear());
  EXPECT_TRUE(p->IsMonadic());
}

TEST(ProgramTest, MutualRecursionDetected) {
  auto p = ParseProgram(
      "p(x) :- e(x,y), q(y). q(x) :- e(x,y), p(y). p(x) :- u(x). goal p.");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsRecursive());
}

TEST(EvalTest, TransitiveClosureOnChain) {
  Database db;
  for (int i = 0; i < 5; ++i) {
    db.AddFact("e", {std::to_string(i), std::to_string(i + 1)});
  }
  auto result = EvaluateGoal(Tc(), db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 15u);  // all i < j pairs on 6 nodes
  EXPECT_TRUE(std::find(result->begin(), result->end(), Tuple{"0", "5"}) !=
              result->end());
}

TEST(EvalTest, TransitiveClosureOnCycle) {
  Database db;
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"b", "a"});
  auto result = EvaluateGoal(Tc(), db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);  // all pairs including self-reach
}

TEST(EvalTest, EmptyEdbYieldsNothing) {
  Database db;
  auto result = EvaluateGoal(Tc(), db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(EvalTest, RejectsIntensionalPredicateStoredAtAnotherArity) {
  auto program = ParseProgram("g(x) :- f(x,y). goal g.");
  ASSERT_TRUE(program.ok());
  Database db;
  db.AddFact("g", {"a", "b", "c"});
  db.AddFact("f", {"a", "b"});
  for (const EvalStrategy strategy :
       {EvalStrategy::kSemiNaive, EvalStrategy::kNaive}) {
    EvalOptions options;
    options.strategy = strategy;
    auto result = EvaluateGoal(*program, db, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("'g' has arity 1 in the program "
                                             "but 3 in the database"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(EvalTest, StatsAreReported) {
  Database db;
  db.AddFact("e", {"1", "2"});
  db.AddFact("e", {"2", "3"});
  DatalogEvalStats stats;
  auto result = EvaluateGoal(Tc(), db, {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.iterations, 1u);
  EXPECT_GT(stats.derived_facts, 0u);
}

// Property: semi-naive and naive evaluation derive identical fixpoints.
TEST(EvalProperty, SemiNaiveEqualsNaive) {
  std::mt19937 rng(987);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 25; ++trial) {
    DatalogProgram program =
        testgen::RandomLinearProgram(&rng, schema, 1 + rng() % 2);
    if (!program.Validate().ok()) continue;
    Database db = testgen::RandomDatabase(&rng, schema, 3, 8);
    EvalOptions naive_options;
    naive_options.strategy = EvalStrategy::kNaive;
    auto naive = EvaluateGoal(program, db, naive_options);
    auto semi = EvaluateGoal(program, db);
    ASSERT_TRUE(naive.ok() && semi.ok());
    EXPECT_EQ(*naive, *semi) << program.ToString();
  }
}

TEST(ExpansionTest, TcExpansionsArePaths) {
  auto exps = EnumerateExpansions(Tc(), 3, 100);
  ASSERT_TRUE(exps.ok());
  ASSERT_EQ(exps->size(), 4u);  // paths of length 1..4 within depth 3
  for (std::size_t i = 0; i < exps->size(); ++i) {
    EXPECT_EQ((*exps)[i].atoms().size(), i + 1);
    EXPECT_TRUE((*exps)[i].Validate().ok());
  }
}

TEST(ExpansionTest, DepthBoundPrunesClosure) {
  auto exps = EnumerateExpansions(Tc(), 1, 100);
  ASSERT_TRUE(exps.ok());
  EXPECT_EQ(exps->size(), 2u);
}

TEST(ExpansionTest, HeadUnificationMergesVariables) {
  auto p = ParseProgram("p(x,x) :- e(x,y), q(y,y). q(u,v) :- f(u,v). goal p.");
  ASSERT_TRUE(p.ok());
  auto exps = EnumerateExpansions(*p, 3, 10);
  ASSERT_TRUE(exps.ok());
  ASSERT_EQ(exps->size(), 1u);
  const ConjunctiveQuery& e = exps->front();
  // Head is (x,x)-shaped and the q-unfolding merged u=v.
  EXPECT_EQ(e.head()[0], e.head()[1]);
  ASSERT_EQ(e.atoms().size(), 2u);
  EXPECT_EQ(e.atoms()[1].terms()[0], e.atoms()[1].terms()[1]);
}

// Property: every enumerated expansion is sound — evaluating the program on
// the expansion's canonical database derives the expansion's frozen head.
TEST(ExpansionProperty, ExpansionsAreDerivable) {
  std::mt19937 rng(321);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 15; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    auto exps = EnumerateExpansions(program, 3, 30);
    ASSERT_TRUE(exps.ok());
    for (const ConjunctiveQuery& e : *exps) {
      ASSERT_TRUE(e.Validate().ok()) << e.ToString();
      Database canonical = CanonicalDatabase(e);
      auto derived = EvaluateProgram(program, canonical);
      ASSERT_TRUE(derived.ok());
      EXPECT_TRUE(
          derived->HasFact(program.goal_predicate(), CanonicalHead(e)))
          << program.ToString() << "expansion: " << e.ToString();
    }
  }
}

TEST(SampleExpansionTest, ProducesValidExpansion) {
  std::mt19937 rng(99);
  for (int i = 0; i < 10; ++i) {
    auto e = SampleExpansion(Tc(), &rng, 4);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(e->Validate().ok());
    EXPECT_GE(e->atoms().size(), 1u);
    EXPECT_LE(e->atoms().size(), 5u);
  }
}

}  // namespace
}  // namespace qcont
