#include <gtest/gtest.h>

#include <random>

#include "cq/containment.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "parser/parser.h"
#include "tests/generators.h"

namespace qcont {
namespace {

ConjunctiveQuery Cq(const std::string& text) {
  auto ucq = ParseUcq(text);
  EXPECT_TRUE(ucq.ok()) << ucq.status().ToString();
  return ucq->disjuncts().front();
}

TEST(CqContainmentTest, PathInShorterPath) {
  // A 2-path (as a Boolean query) is contained in "there is an edge".
  ConjunctiveQuery two = Cq("Q() :- E(x,y), E(y,z).");
  ConjunctiveQuery one = Cq("Q() :- E(u,v).");
  EXPECT_TRUE(*CqContained(two, one));
  EXPECT_FALSE(*CqContained(one, two));
}

TEST(CqContainmentTest, FreeVariablesMustBePreserved) {
  ConjunctiveQuery q1 = Cq("Q(x,y) :- E(x,y).");
  ConjunctiveQuery q2 = Cq("Q(x,y) :- E(y,x).");
  EXPECT_FALSE(*CqContained(q1, q2));
  EXPECT_TRUE(*CqContained(q1, q1));
}

TEST(CqContainmentTest, SelfLoopContainedInEverything) {
  ConjunctiveQuery loop = Cq("Q() :- E(x,x).");
  ConjunctiveQuery cycle3 = Cq("Q() :- E(x,y), E(y,z), E(z,x).");
  EXPECT_TRUE(*CqContained(loop, cycle3));   // cycle maps onto the loop
  EXPECT_FALSE(*CqContained(cycle3, loop));  // no loop in a 3-cycle
}

TEST(CqContainmentTest, RepeatedHeadVariable) {
  ConjunctiveQuery diag = Cq("Q(x,x) :- E(x,x).");
  ConjunctiveQuery pair = Cq("Q(x,y) :- E(x,y).");
  EXPECT_TRUE(*CqContained(diag, pair));
  EXPECT_FALSE(*CqContained(pair, diag));
}

TEST(CqContainmentTest, ArityMismatchRejected) {
  ConjunctiveQuery q1 = Cq("Q(x) :- E(x,y).");
  ConjunctiveQuery q2 = Cq("Q(x,y) :- E(x,y).");
  EXPECT_FALSE(CqContained(q1, q2).ok());
}

// A variable and a constant of the same name are different terms: the left
// query is renamed apart before it is frozen into its canonical database.
TEST(CqContainmentTest, VariableAndConstantOfOneNameStayApart) {
  // Q() :- r(y) is not contained in Q() :- r('y').
  EXPECT_FALSE(*CqContained(Cq("Q() :- r(y)."), Cq("Q() :- r('y').")));
  EXPECT_TRUE(*CqContained(Cq("Q() :- r('y')."), Cq("Q() :- r(y).")));
  // A left query mentioning both: r(y,'y') does not force a loop.
  EXPECT_FALSE(*CqContained(Cq("Q() :- r(y,'y')."), Cq("Q() :- r(z,z).")));
  EXPECT_TRUE(*CqContained(Cq("Q() :- r('y','y')."), Cq("Q() :- r(z,z).")));
  // The query the old core computation returned for
  // Q(x) :- r(x,y), s('y',x), s(w,x) is strictly smaller than it.
  ConjunctiveQuery input = Cq("Q(x) :- r(x,y), s('y',x), s(w,x).");
  ConjunctiveQuery wrong = Cq("Q(x) :- r(x,y), s('y',x), s(y,x).");
  EXPECT_TRUE(*CqContained(wrong, input));
  EXPECT_FALSE(*CqContained(input, wrong));
  EXPECT_FALSE(*UcqEquivalent(UnionQuery({input}), UnionQuery({wrong})));
  // The grid path (threads > 1) renames apart the same way.
  HomSearchOptions parallel;
  parallel.exec.threads = 4;
  EXPECT_FALSE(*UcqContained(UnionQuery({input, Cq("Q(x) :- r(x,x).")}),
                             UnionQuery({wrong, Cq("Q(x) :- r(x,'x').")}),
                             nullptr, parallel));
}

TEST(UcqContainmentTest, SagivYannakakis) {
  auto lhs = ParseUcq("Q(x,y) :- a(x,y). Q(x,y) :- b(x,y).");
  auto rhs = ParseUcq("Q(x,y) :- a(x,y). Q(x,y) :- b(x,z), b(z,y). Q(x,y) :- b(x,y).");
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  EXPECT_TRUE(*UcqContained(*lhs, *rhs));
  EXPECT_FALSE(*UcqContained(*rhs, *lhs));  // the b-2-path disjunct escapes
}

TEST(UcqContainmentTest, EquivalenceOfReorderedUnion) {
  auto a = ParseUcq("Q(x) :- a(x,y). Q(x) :- b(x,y).");
  auto b = ParseUcq("Q(x) :- b(x,y). Q(x) :- a(x,y).");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*UcqEquivalent(*a, *b));
}

// Property (soundness of the Chandra-Merlin test against evaluation): if
// theta ⊆ theta' then theta(D) ⊆ theta'(D) on random databases, and the
// canonical database of theta must witness non-containment otherwise.
TEST(CqContainmentProperty, ConsistentWithEvaluation) {
  std::mt19937 rng(20140622);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  int contained_count = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ConjunctiveQuery q1 = testgen::RandomCq(&rng, schema, 3, 3, 1);
    ConjunctiveQuery q2 = testgen::RandomCq(&rng, schema, 2, 3, 1);
    if (!q1.Validate().ok() || !q2.Validate().ok()) continue;
    auto contained = CqContained(q1, q2);
    ASSERT_TRUE(contained.ok());
    if (*contained) ++contained_count;
    for (int d = 0; d < 3; ++d) {
      Database db = testgen::RandomDatabase(&rng, schema, 3, 8);
      std::vector<Tuple> r1 = EvaluateCq(q1, db);
      std::vector<Tuple> r2 = EvaluateCq(q2, db);
      if (*contained) {
        for (const Tuple& t : r1) {
          EXPECT_TRUE(std::find(r2.begin(), r2.end(), t) != r2.end())
              << q1.ToString() << " vs " << q2.ToString();
        }
      }
    }
    if (!*contained) {
      // The canonical database separates the queries.
      Database canonical = CanonicalDatabase(q1);
      std::vector<Tuple> r2 = EvaluateCq(q2, canonical);
      EXPECT_TRUE(std::find(r2.begin(), r2.end(), CanonicalHead(q1)) ==
                  r2.end());
    }
  }
  // Sanity: the generator should produce a mix of outcomes.
  EXPECT_GT(contained_count, 0);
}

}  // namespace
}  // namespace qcont
