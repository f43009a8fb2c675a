// Tests for the paper's corollaries and propositions: routing (Corollary
// 1), equivalence (Corollary 2), and H(ACk) membership/normalization
// (Propositions 3 and 4).

#include <gtest/gtest.h>

#include "core/equivalence.h"
#include "core/hack.h"
#include "core/router.h"
#include "cq/containment.h"
#include "datalog/eval.h"
#include "parser/parser.h"

namespace qcont {
namespace {

TEST(RouterTest, AcyclicGoesToAckEngine) {
  auto program = ParseProgram(
      "buys(x,y) :- likes(x,y). buys(x,y) :- trendy(x), buys(z,y). "
      "goal buys.");
  auto ucq = ParseUcq("Q(x,y) :- likes(x,y). Q(x,y) :- trendy(x), likes(z,y).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto routed = DecideContainment(*program, *ucq);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->route, ContainmentRoute::kAckEngine);
  EXPECT_TRUE(routed->answer.contained);
  EXPECT_EQ(routed->ack_level, 1);
}

TEST(RouterTest, CyclicFallsBackToGeneralEngine) {
  auto program = ParseProgram("p() :- e(x,x). goal p.");
  auto ucq = ParseUcq("Q() :- e(x,y), e(y,z), e(z,x).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto routed = DecideContainment(*program, *ucq);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->route, ContainmentRoute::kGeneralEngine);
  EXPECT_TRUE(routed->answer.contained);
}

TEST(RouterTest, RouteNamesAreStable) {
  EXPECT_STREQ(RouteName(ContainmentRoute::kAckEngine),
               "ACk engine (EXPTIME)");
  EXPECT_STREQ(RouteName(ContainmentRoute::kGeneralEngine),
               "general type engine (2EXPTIME)");
}

TEST(EquivalenceTest, PaperExample2) {
  // The compulsive-consumers program is EQUIVALENT to the UCQ of Example 2.
  auto program = ParseProgram(
      "buys(x,y) :- likes(x,y). buys(x,y) :- trendy(x), buys(z,y). "
      "goal buys.");
  auto ucq = ParseUcq("Q(x,y) :- likes(x,y). Q(x,y) :- trendy(x), likes(z,y).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto answer = DatalogEquivalentToUcq(*program, *ucq);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->program_in_ucq);
  EXPECT_TRUE(answer->ucq_in_program);
  EXPECT_TRUE(answer->equivalent);
  EXPECT_EQ(answer->route, ContainmentRoute::kAckEngine);
}

TEST(EquivalenceTest, TrueRecursionIsNotBounded) {
  auto program = ParseProgram(
      "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.");
  auto ucq = ParseUcq("Q(x,y) :- e(x,y). Q(x,y) :- e(x,z), e(z,y).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto answer = DatalogEquivalentToUcq(*program, *ucq);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->program_in_ucq);  // 3-paths escape
  EXPECT_TRUE(answer->ucq_in_program);
  EXPECT_FALSE(answer->equivalent);
  ASSERT_TRUE(answer->witness.has_value());
  // The witness is an expansion escaping the UCQ.
  EXPECT_FALSE(*CqContainedInUcq(*answer->witness, *ucq));
}

TEST(EquivalenceTest, UcqNotInProgramDirection) {
  auto program = ParseProgram("t(x,y) :- e(x,y). goal t.");
  auto ucq = ParseUcq("Q(x,y) :- e(x,y). Q(x,y) :- f(x,y).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto answer = DatalogEquivalentToUcq(*program, *ucq);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->program_in_ucq);
  EXPECT_FALSE(answer->ucq_in_program);  // the f-disjunct is not derivable
  ASSERT_TRUE(answer->witness.has_value());
}

TEST(UcqInDatalogTest, CanonicalDatabaseCriterion) {
  auto program = ParseProgram(
      "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.");
  ASSERT_TRUE(program.ok());
  auto three_path = ParseUcq("Q(x,y) :- e(x,a), e(a,b), e(b,y).");
  ASSERT_TRUE(three_path.ok());
  EXPECT_TRUE(*UcqContainedInDatalog(*three_path, *program));
  auto backwards = ParseUcq("Q(x,y) :- e(y,x).");
  ASSERT_TRUE(backwards.ok());
  EXPECT_FALSE(*UcqContainedInDatalog(*backwards, *program));
}

// The disjunct's variable `c` and its constant 'c' freeze apart, so the
// f-fact does not join the e-fact.
TEST(UcqInDatalogTest, VariableAndConstantOfOneNameStayApart) {
  auto program = ParseProgram("g(x) :- e(x,y), f(y). goal g.");
  auto ucq = ParseUcq("Q(x) :- e(x,c), f('c').");
  ASSERT_TRUE(program.ok() && ucq.ok());
  EXPECT_FALSE(*UcqContainedInDatalog(*ucq, *program));
  auto joined = ParseUcq("Q(x) :- e(x,'c'), f('c').");
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(*UcqContainedInDatalog(*joined, *program));
}

TEST(HAckTest, CyclicButEquivalentToAcyclic) {
  // E(x,y) ∧ E(y,z) ∧ E(x,w) ∧ E(w,z): the core is the 2-path (fold w onto
  // y), so the query is in H(AC1) even though... (this one is acyclic
  // already). Use a genuinely cyclic-but-foldable query: a triangle with a
  // pendant self-loop dominating it.
  auto ucq = ParseUcq("Q() :- E(x,y), E(y,z), E(z,x), E(w,w).");
  ASSERT_TRUE(ucq.ok());
  auto norm = NormalizeIntoAck(*ucq);
  ASSERT_TRUE(norm.ok());
  ASSERT_TRUE(norm->in_hack);  // everything folds onto the self-loop
  EXPECT_EQ(norm->normalized->disjuncts().front().atoms().size(), 1u);
  EXPECT_TRUE(*UcqEquivalent(*ucq, *norm->normalized));
}

TEST(HAckTest, TriangleIsNotInHAck) {
  auto ucq = ParseUcq("Q() :- E(x,y), E(y,z), E(z,x).");
  ASSERT_TRUE(ucq.ok());
  auto norm = NormalizeIntoAck(*ucq);
  ASSERT_TRUE(norm.ok());
  EXPECT_FALSE(norm->in_hack);
  auto program = ParseProgram("p() :- E(x,x). goal p.");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(DatalogContainedInHAck(*program, *ucq).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HAckTest, SubsumedDisjunctsAreDropped) {
  // The second disjunct is contained in the first; dropping it leaves an
  // acyclic UCQ even though the second is cyclic.
  auto ucq = ParseUcq(
      "Q() :- E(x,y). Q() :- E(x,y), E(y,z), E(z,x).");
  ASSERT_TRUE(ucq.ok());
  auto norm = NormalizeIntoAck(*ucq);
  ASSERT_TRUE(norm.ok());
  ASSERT_TRUE(norm->in_hack);
  EXPECT_EQ(norm->level, 1);
  EXPECT_EQ(norm->normalized->disjuncts().size(), 1u);
  EXPECT_TRUE(*UcqEquivalent(*ucq, *norm->normalized));
}

TEST(HAckTest, ContainmentThroughNormalization) {
  auto program = ParseProgram(
      "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.");
  ASSERT_TRUE(program.ok());
  // Equivalent-to-acyclic UCQ (the existential triangle folds onto the
  // self-loop) that does NOT contain transitive closure.
  auto ucq = ParseUcq(
      "Q(x,y) :- e(x,y), e(a,b), e(b,c), e(c,a), e(d,d).");
  ASSERT_TRUE(ucq.ok());
  auto answer = DatalogContainedInHAck(*program, *ucq);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->contained);
}

}  // namespace
}  // namespace qcont
