#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cq/containment.h"
#include "cq/homomorphism.h"
#include "parser/parser.h"
#include "structure/acyclic_eval.h"
#include "structure/classify.h"
#include "structure/decomp_eval.h"
#include "tests/generators.h"

namespace qcont {
namespace {

ConjunctiveQuery Cq(const std::string& text) {
  auto ucq = ParseUcq(text);
  EXPECT_TRUE(ucq.ok()) << ucq.status().ToString();
  return ucq->disjuncts().front();
}

TEST(YannakakisTest, SatisfiabilityMatchesBacktracking) {
  Database db;
  db.AddFact("R", {"1", "2"});
  db.AddFact("S", {"2", "3"});
  ConjunctiveQuery cq = Cq("Q() :- R(x,y), S(y,z).");
  EXPECT_TRUE(*AcyclicSatisfiable(cq, db));
  Database db2;
  db2.AddFact("R", {"1", "2"});
  db2.AddFact("S", {"3", "4"});
  EXPECT_FALSE(*AcyclicSatisfiable(cq, db2));
}

TEST(YannakakisTest, RejectsCyclicQueries) {
  Database db;
  ConjunctiveQuery tri = Cq("Q() :- E(x,y), E(y,z), E(z,x).");
  EXPECT_EQ(AcyclicSatisfiable(tri, db).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(YannakakisTest, FixedBindingRespected) {
  Database db;
  db.AddFact("R", {"1", "2"});
  db.AddFact("R", {"3", "4"});
  ConjunctiveQuery cq = Cq("Q(x) :- R(x,y).");
  EXPECT_TRUE(*AcyclicSatisfiable(cq, db, {{"x", "3"}}));
  EXPECT_FALSE(*AcyclicSatisfiable(cq, db, {{"x", "2"}}));
}

TEST(YannakakisTest, FullEvaluationMatchesGeneric) {
  Database db;
  db.AddFact("E", {"1", "2"});
  db.AddFact("E", {"2", "3"});
  db.AddFact("E", {"2", "4"});
  ConjunctiveQuery cq = Cq("Q(x,z) :- E(x,y), E(y,z).");
  auto fast = EvaluateAcyclicCq(cq, db);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(*fast, EvaluateCq(cq, db));
}

// Property: Yannakakis and bounded-width DP agree with the generic
// backtracking evaluator on random instances.
TEST(EvalEnginesProperty, AllEnginesAgree) {
  std::mt19937 rng(314159);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  int sat = 0, unsat = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ConjunctiveQuery cq = testgen::RandomAcyclicCq(&rng, schema, 4, 0);
    if (!cq.Validate().ok()) continue;
    Database db = testgen::RandomDatabase(&rng, schema, 3, 7);
    bool generic = FindHomomorphism(cq, db).has_value();
    auto fast = AcyclicSatisfiable(cq, db);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(generic, *fast) << cq.ToString() << "\n" << db.ToString();
    auto dp = BoundedWidthSatisfiable(cq, db);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(generic, *dp) << cq.ToString() << "\n" << db.ToString();
    (generic ? sat : unsat)++;
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
}

// Property: on cyclic queries the bounded-width DP still agrees with the
// generic evaluator (it works for every CQ; only its cost depends on width).
TEST(EvalEnginesProperty, DecompHandlesCyclicQueries) {
  std::mt19937 rng(2718);
  testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int trial = 0; trial < 40; ++trial) {
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 4, 0);
    if (!cq.Validate().ok()) continue;
    Database db = testgen::RandomDatabase(&rng, schema, 3, 6);
    bool generic = FindHomomorphism(cq, db).has_value();
    auto dp = BoundedWidthSatisfiable(cq, db);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(generic, *dp) << cq.ToString() << "\n" << db.ToString();
  }
}

// Property: the PTIME containment tests (Theorems 3/4 of the paper) agree
// with the NP baseline when the right-hand side is acyclic / bounded width.
TEST(TractableContainmentProperty, MatchesGenericContainment) {
  std::mt19937 rng(161803);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 50; ++trial) {
    ConjunctiveQuery lhs = testgen::RandomCq(&rng, schema, 3, 3, 1);
    ConjunctiveQuery rhs = testgen::RandomAcyclicCq(&rng, schema, 3, 1);
    if (!lhs.Validate().ok() || !rhs.Validate().ok()) continue;
    auto generic = CqContained(lhs, rhs);
    auto acyclic = CqContainedAcyclicRhs(lhs, rhs);
    auto bounded = CqContainedBoundedTwRhs(lhs, rhs);
    ASSERT_TRUE(generic.ok() && acyclic.ok() && bounded.ok());
    EXPECT_EQ(*generic, *acyclic) << lhs.ToString() << " vs " << rhs.ToString();
    EXPECT_EQ(*generic, *bounded) << lhs.ToString() << " vs " << rhs.ToString();
  }
}

// Θ's variable `c` and the constant 'c' freeze to different values, on
// both tractable right-hand sides as in the generic test.
TEST(TractableContainmentTest, AcyclicRhsKeepsVariableAndConstantApart) {
  ConjunctiveQuery variable = Cq("Q(x) :- e(x,c).");
  ConjunctiveQuery constant = Cq("Q(x) :- e(x,'c').");
  EXPECT_FALSE(*CqContained(variable, constant));
  EXPECT_FALSE(*CqContainedAcyclicRhs(variable, constant));
  EXPECT_TRUE(*CqContainedAcyclicRhs(constant, variable));
}

TEST(TractableContainmentTest, BoundedTwRhsKeepsVariableAndConstantApart) {
  ConjunctiveQuery variable = Cq("Q(x) :- e(x,c).");
  ConjunctiveQuery constant = Cq("Q(x) :- e(x,'c').");
  EXPECT_FALSE(*CqContainedBoundedTwRhs(variable, constant));
  EXPECT_TRUE(*CqContainedBoundedTwRhs(constant, variable));
}

TEST(ClassifyTest, PaperExamples) {
  // Example 3: the path is TW(1); closing it raises treewidth to 2; the
  // full clique on n variables has treewidth n-1.
  auto path = ClassifyCq(Cq("Q() :- E(x1,x2), E(x2,x3), E(x3,x4)."));
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->acyclic);
  EXPECT_EQ(path->treewidth, 1);
  EXPECT_EQ(path->max_shared_vars, 1);  // AC1 (Example 4)

  auto closed = ClassifyCq(
      Cq("Q() :- E(x1,x2), E(x2,x3), E(x3,x4), E(x1,x4)."));
  ASSERT_TRUE(closed.ok());
  EXPECT_FALSE(closed->acyclic);
  EXPECT_EQ(closed->treewidth, 2);

  auto clique4 = ClassifyCq(Cq(
      "Q() :- E(x1,x2), E(x1,x3), E(x1,x4), E(x2,x3), E(x2,x4), E(x3,x4)."));
  ASSERT_TRUE(clique4.ok());
  EXPECT_EQ(clique4->treewidth, 3);

  // Example 4: clique plus covering atom is acyclic and in AC2.
  auto covered = ClassifyCq(
      Cq("Q() :- E(x1,x2), E(x1,x3), E(x2,x3), T(x1,x2,x3)."));
  ASSERT_TRUE(covered.ok());
  EXPECT_TRUE(covered->acyclic);
  EXPECT_EQ(covered->max_shared_vars, 2);
}

TEST(ClassifyTest, AckLevel) {
  auto ac1 = ParseUcq("Q() :- E(x,y), E(y,z).");
  ASSERT_TRUE(ac1.ok());
  EXPECT_EQ(*AckLevel(*ac1), 1);
  auto ac2 = ParseUcq("Q() :- E(x1,x2), E(x1,x3), E(x2,x3), T(x1,x2,x3).");
  ASSERT_TRUE(ac2.ok());
  EXPECT_EQ(*AckLevel(*ac2), 2);
  auto cyclic = ParseUcq("Q() :- E(x,y), E(y,z), E(z,x).");
  ASSERT_TRUE(cyclic.ok());
  EXPECT_EQ(AckLevel(*cyclic).status().code(), StatusCode::kFailedPrecondition);
}

// The containment-relevant fact behind Corollary 1: TW(1) UCQs are in AC2.
TEST(ClassifyProperty, TreewidthOneImpliesAc2) {
  std::mt19937 rng(5);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 60; ++trial) {
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 4, 0);
    auto c = ClassifyCq(cq);
    ASSERT_TRUE(c.ok());
    if (c->treewidth <= 1) {
      EXPECT_TRUE(c->acyclic) << cq.ToString();
      EXPECT_LE(c->max_shared_vars, 2) << cq.ToString();
    }
  }
}

}  // namespace
}  // namespace qcont
