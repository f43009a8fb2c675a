#include <gtest/gtest.h>

#include <random>

#include "cq/containment.h"
#include "cq/core.h"
#include "parser/parser.h"
#include "tests/generators.h"

namespace qcont {
namespace {

ConjunctiveQuery Cq(const std::string& text) {
  auto ucq = ParseUcq(text);
  EXPECT_TRUE(ucq.ok()) << ucq.status().ToString();
  return ucq->disjuncts().front();
}

TEST(CoreTest, FoldsRedundantPath) {
  // E(x,y) ∧ E(x,z): z folds onto y; the core is a single edge.
  ConjunctiveQuery cq = Cq("Q(x) :- E(x,y), E(x,z).");
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 1u);
  EXPECT_TRUE(*UcqEquivalent(UnionQuery({cq}), UnionQuery({*core})));
}

TEST(CoreTest, TriangleIsACore) {
  ConjunctiveQuery cq = Cq("Q() :- E(x,y), E(y,z), E(z,x).");
  auto is_core = IsCore(cq);
  ASSERT_TRUE(is_core.ok());
  EXPECT_TRUE(*is_core);
}

TEST(CoreTest, DirectedCycleIsACore) {
  // The directed 4-cycle has no 2-cycle substructure, so (unlike in the
  // undirected world) it does not retract: it is its own core.
  ConjunctiveQuery cq = Cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a).");
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 4u);
  EXPECT_TRUE(*IsCore(cq));
}

TEST(CoreTest, CycleWithChordlessLoopFolds) {
  // Adding a self-loop lets the whole cycle fold onto it.
  ConjunctiveQuery cq = Cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a), E(e,e).");
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 1u);
  EXPECT_TRUE(*UcqEquivalent(UnionQuery({cq}), UnionQuery({*core})));
}

TEST(CoreTest, FreeVariablesAreNeverFolded) {
  // Both endpoints free: nothing can fold.
  ConjunctiveQuery cq = Cq("Q(x,y,z) :- E(x,y), E(x,z).");
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 2u);
}

TEST(CoreTest, DuplicateAtomsAreRemoved) {
  ConjunctiveQuery cq({}, {Atom("E", {Term::Variable("x"), Term::Variable("y")}),
                           Atom("E", {Term::Variable("x"), Term::Variable("y")})});
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 1u);
}

TEST(CoreTest, ConstantsAndVariablesOfOneNameStayApart) {
  // s(w,x) folds onto s('y',x); the variable y is not the constant 'y'.
  ConjunctiveQuery cq = Cq("Q(x) :- r(x,y), s('y',x), s(w,x).");
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->ToString(), "(x) <- r(x,y), s('y',x)");
  EXPECT_TRUE(*UcqEquivalent(UnionQuery({cq}), UnionQuery({*core})));
  EXPECT_FALSE(*IsCore(cq));
  // r(y,'y') is no loop, so r(z,z) cannot fold onto it.
  EXPECT_TRUE(*IsCore(Cq("Q() :- r(y,'y'), r(z,z).")));
  auto minimized = MinimizeUnionQuery(
      UnionQuery({Cq("Q() :- r(y)."), Cq("Q() :- r('y').")}));
  ASSERT_TRUE(minimized.ok() && minimized->has_value());
  EXPECT_EQ((*minimized)->ToString(), "() <- r(y)");
}

// Properties: the core is equivalent to the original, is itself a core,
// and re-coring is idempotent.
TEST(CoreProperty, EquivalentIdempotentMinimal) {
  std::mt19937 rng(1978);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 40; ++trial) {
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 3, 1);
    if (!cq.Validate().ok()) continue;
    auto core = CoreOf(cq);
    ASSERT_TRUE(core.ok());
    EXPECT_TRUE(*UcqEquivalent(UnionQuery({cq}), UnionQuery({*core})))
        << cq.ToString() << " vs core " << core->ToString();
    auto is_core = IsCore(*core);
    ASSERT_TRUE(is_core.ok());
    EXPECT_TRUE(*is_core) << core->ToString();
    auto again = CoreOf(*core);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->atoms().size(), core->atoms().size());
  }
}

}  // namespace
}  // namespace qcont
