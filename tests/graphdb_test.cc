#include <gtest/gtest.h>

#include <random>

#include "graphdb/c2rpq.h"
#include "graphdb/graph_db.h"
#include "graphdb/rpq.h"
#include "parser/parser.h"
#include "tests/generators.h"

namespace qcont {
namespace {

GraphDatabase Chain(int n, const std::string& label) {
  GraphDatabase g;
  for (int i = 0; i < n; ++i) {
    g.AddEdge(testgen::Numbered("n", i), label, testgen::Numbered("n", i + 1));
  }
  return g;
}

TEST(GraphDatabaseTest, EdgesAndInverses) {
  GraphDatabase g;
  g.AddEdge("a", "knows", "b");
  EXPECT_EQ(g.Nodes().size(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Successors("a", "knows"), std::vector<std::string>{"b"});
  EXPECT_EQ(g.Successors("b", "knows-"), std::vector<std::string>{"a"});
  EXPECT_TRUE(g.Successors("b", "knows").empty());
  EXPECT_TRUE(g.HasEdge("a", "knows", "b"));
  EXPECT_FALSE(g.HasEdge("b", "knows", "a"));
}

TEST(GraphDatabaseTest, DatabaseRoundTrip) {
  GraphDatabase g;
  g.AddEdge("a", "e", "b");
  g.AddEdge("b", "f", "c");
  Database db = g.ToDatabase();
  EXPECT_TRUE(db.HasFact("e", {"a", "b"}));
  EXPECT_TRUE(db.HasFact("f", {"b", "c"}));
  EXPECT_EQ(db.NumFacts(), 2u);
  GraphDatabase g2 = GraphDatabase::FromDatabase(db);
  EXPECT_TRUE(g2.HasEdge("a", "e", "b"));
  EXPECT_EQ(g2.NumEdges(), 2u);
}

TEST(RpqTest, ReachabilityOnChain) {
  GraphDatabase g = Chain(4, "a");
  auto nfa = ParseRegex("a+");
  ASSERT_TRUE(nfa.ok());
  std::set<std::string> reach = RpqReachableFrom(*nfa, g, "n0");
  EXPECT_EQ(reach, (std::set<std::string>{"n1", "n2", "n3", "n4"}));
  auto exact2 = ParseRegex("a a");
  EXPECT_EQ(RpqReachableFrom(*exact2, g, "n1"),
            (std::set<std::string>{"n3"}));
}

TEST(RpqTest, InverseTraversal) {
  GraphDatabase g = Chain(2, "a");
  auto back = ParseRegex("a-");
  EXPECT_EQ(RpqReachableFrom(*back, g, "n1"), (std::set<std::string>{"n0"}));
  auto zigzag = ParseRegex("a a-");
  EXPECT_EQ(RpqReachableFrom(*zigzag, g, "n0"), (std::set<std::string>{"n0"}));
}

TEST(RpqTest, FullEvaluation) {
  GraphDatabase g = Chain(2, "a");
  auto nfa = ParseRegex("a");
  auto pairs = EvaluateRpq(*nfa, g);
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(C2rpqTest, EvaluationJoinsAtoms) {
  GraphDatabase g;
  g.AddEdge("u", "a", "v");
  g.AddEdge("v", "b", "w");
  g.AddEdge("u", "b", "x");
  auto q = ParseUC2rpq("Q(x,z) :- [a](x,y), [b](y,z).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateUC2rpq(*q, g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<Tuple>{{"u", "w"}}));
}

TEST(C2rpqTest, AcyclicEvaluationAgrees) {
  GraphDatabase g;
  g.AddEdge("1", "a", "2");
  g.AddEdge("2", "a", "3");
  g.AddEdge("2", "b", "4");
  auto q = ParseUC2rpq("Q(x) :- [a+](x,y), [b](y,z).");
  ASSERT_TRUE(q.ok());
  auto generic = EvaluateC2rpq(q->disjuncts().front(), g);
  auto acyclic = EvaluateAcyclicC2rpq(q->disjuncts().front(), g);
  ASSERT_TRUE(generic.ok() && acyclic.ok());
  EXPECT_EQ(*generic, *acyclic);
  EXPECT_EQ(*generic, (std::vector<Tuple>{{"1"}}));
}

TEST(C2rpqTest, ClassificationExamples5And6) {
  // Example 5: L1(x,x) ∧ L2(x,y) ∧ L3(y,x) is acyclic;
  // L1(x,y) ∧ L2(y,z) ∧ L3(z,x) is not.
  auto acyclic = ParseUC2rpq("Q() :- [a](x,x), [b](x,y), [c](y,x).");
  ASSERT_TRUE(acyclic.ok());
  EXPECT_TRUE(*IsAcyclicUC2rpq(*acyclic));
  // Example 6: that query is in ACR2.
  EXPECT_EQ(*AcrkLevel(*acyclic), 2);

  auto cyclic = ParseUC2rpq("Q() :- [a](x,y), [b](y,z), [c](z,x).");
  ASSERT_TRUE(cyclic.ok());
  EXPECT_FALSE(*IsAcyclicUC2rpq(*cyclic));
  EXPECT_EQ(AcrkLevel(*cyclic).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(C2rpqTest, StronglyAcyclicIsAcr1) {
  auto q = ParseUC2rpq("Q(x,y) :- [a+](x,z), [b](z,y).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*AcrkLevel(*q), 1);
}

// Θ's variable `c` and its constant 'c' freeze to different nodes, so the
// a-edge and the b-edge do not form a path.
TEST(UcqInUC2rpqTest, VariableAndConstantOfOneNameStayApart) {
  auto theta = ParseUcq("Q(x) :- a(x,c), b('c',x).");
  auto gamma = ParseUC2rpq("Q(x) :- [a b](x,x).");
  ASSERT_TRUE(theta.ok() && gamma.ok());
  EXPECT_FALSE(*UcqContainedInUC2rpq(*theta, *gamma));
  auto joined = ParseUcq("Q(x) :- a(x,'c'), b('c',x).");
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(*UcqContainedInUC2rpq(*joined, *gamma));
}

TEST(UcqInUC2rpqTest, CanonicalDatabaseTest) {
  // Every a-edge pair x->y->z is matched by [a a](x,z).
  auto theta = ParseUcq("Q(x,z) :- a(x,y), a(y,z).");
  auto gamma = ParseUC2rpq("Q(x,z) :- [a a](x,z).");
  ASSERT_TRUE(theta.ok() && gamma.ok());
  EXPECT_TRUE(*UcqContainedInUC2rpq(*theta, *gamma));
  auto gamma2 = ParseUC2rpq("Q(x,z) :- [a a a](x,z).");
  ASSERT_TRUE(gamma2.ok());
  EXPECT_FALSE(*UcqContainedInUC2rpq(*theta, *gamma2));
  // Inverse variant: x->y edge matches [a-](y,x)... as (x,y) query order.
  auto theta2 = ParseUcq("Q(x,y) :- a(y,x).");
  auto gamma3 = ParseUC2rpq("Q(x,y) :- [a-](x,y).");
  ASSERT_TRUE(theta2.ok() && gamma3.ok());
  EXPECT_TRUE(*UcqContainedInUC2rpq(*theta2, *gamma3));
}

TEST(C2rpqTest, ValidateRejectsBadQueries) {
  auto unsafe = ParseUC2rpq("Q(w) :- [a](x,y).");
  EXPECT_FALSE(unsafe.ok());
  auto triple = ParseUC2rpq("Q() :- [a](x,y,z).");
  EXPECT_FALSE(triple.ok());
}

}  // namespace
}  // namespace qcont
