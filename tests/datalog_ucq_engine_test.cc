#include <gtest/gtest.h>

#include <random>

#include "core/datalog_ucq.h"
#include "parser/parser.h"
#include "tests/engine_validation.h"
#include "tests/generators.h"

namespace qcont {
namespace {

struct Case {
  const char* name;
  const char* program;
  const char* ucq;
  bool contained;
};

class GeneralEngineCases : public ::testing::TestWithParam<Case> {};

TEST_P(GeneralEngineCases, DecidesAndValidates) {
  const Case& c = GetParam();
  auto program = ParseProgram(c.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto ucq = ParseUcq(c.ucq);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  TypeEngineStats stats;
  auto answer = DatalogContainedInUcq(*program, *ucq, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->contained, c.contained);
  EXPECT_EQ(testval::ValidateAnswer(*program, *ucq, *answer), "");
  EXPECT_GT(stats.types, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperAndClassics, GeneralEngineCases,
    ::testing::Values(
        // Example 1/2 of the paper: the compulsive-consumers program is
        // contained in (indeed equivalent to) the two-disjunct UCQ.
        Case{"consumers_yes",
             "buys(x,y) :- likes(x,y). buys(x,y) :- trendy(x), buys(z,y). "
             "goal buys.",
             "Q(x,y) :- likes(x,y). Q(x,y) :- trendy(x), likes(z,y).", true},
        Case{"consumers_partial",
             "buys(x,y) :- likes(x,y). buys(x,y) :- trendy(x), buys(z,y). "
             "goal buys.",
             "Q(x,y) :- likes(x,y).", false},
        Case{"tc_not_in_single_edge",
             "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.",
             "Q(x,y) :- e(x,y).", false},
        Case{"tc_not_in_two_steps",
             "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.",
             "Q(x,y) :- e(x,y). Q(x,y) :- e(x,z), e(z,y).", false},
        // Every expansion starts with an edge out of x.
        Case{"tc_first_step",
             "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.",
             "Q(x,y) :- e(x,u), e(u,y). Q(x,y) :- e(x,y).", false},
        Case{"reach_bool_yes",
             "g() :- p(x). p(x) :- a(x,y), p(y). p(x) :- b(x). goal g.",
             "Q() :- b(u).", true},
        Case{"reach_bool_no",
             "g() :- p(x). p(x) :- a(x,y), p(y). p(x) :- b(x). goal g.",
             "Q() :- a(u,v).", false},
        // Cyclic right-hand sides (the general engine's raison d'être).
        Case{"cyclic_rhs_yes",
             "p() :- e(x,y), e(y,z), e(z,x). goal p.",
             "Q() :- e(x,y), e(y,z), e(z,x).", true},
        Case{"cyclic_rhs_fold",
             "p() :- e(x,x). goal p.",
             "Q() :- e(x,y), e(y,z), e(z,x).", true},
        Case{"cyclic_rhs_no",
             "p() :- e(x,y), e(y,x). goal p.",
             "Q() :- e(x,y), e(y,z), e(z,x).", false},
        // Nonlinear recursion (two intensional atoms in one body).
        Case{"nonlinear",
             "t(x,y) :- e(x,y). t(x,y) :- t(x,z), t(z,y). goal t.",
             "Q(x,y) :- e(x,y).", false},
        Case{"mutual_recursion",
             "p(x) :- b(x). p(x) :- a(x,y), q(y). q(x) :- a(x,y), p(y). "
             "goal p.",
             "Q(x) :- b(x). Q(x) :- a(x,y), b(y).", false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

TEST(GeneralEngineTest, NonlinearDoublingContained) {
  // t = e+ computed by doubling; contained in "starts with an edge".
  auto program = ParseProgram(
      "t(x,y) :- e(x,y). t(x,y) :- t(x,z), t(z,y). goal t.");
  auto ucq = ParseUcq("Q(x,y) :- e(x,u), e(w,y). Q(x,y) :- e(x,y).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto answer = DatalogContainedInUcq(*program, *ucq);
  ASSERT_TRUE(answer.ok());
  // Paths of length >= 2 match the first disjunct; single edges the second.
  EXPECT_TRUE(answer->contained);
  EXPECT_EQ(testval::ValidateAnswer(*program, *ucq, *answer), "");
}

TEST(GeneralEngineTest, RejectsAritiesAndIdbPredicates) {
  auto program = ParseProgram("t(x,y) :- e(x,y). goal t.");
  ASSERT_TRUE(program.ok());
  auto wrong_arity = ParseUcq("Q(x) :- e(x,y).");
  ASSERT_TRUE(wrong_arity.ok());
  EXPECT_FALSE(DatalogContainedInUcq(*program, *wrong_arity).ok());
  auto uses_idb = ParseUcq("Q(x,y) :- t(x,y).");
  ASSERT_TRUE(uses_idb.ok());
  EXPECT_FALSE(DatalogContainedInUcq(*program, *uses_idb).ok());
}

TEST(GeneralEngineTest, UnproductiveProgramIsContainedInAnything) {
  // The goal has no base case: Π(D) is empty for every D.
  auto program = ParseProgram("p(x) :- a(x,y), p(y). goal p.");
  auto ucq = ParseUcq("Q(x) :- b(x,x).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  auto answer = DatalogContainedInUcq(*program, *ucq);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->contained);
}

TEST(GeneralEngineTest, ResourceLimitsReported) {
  auto program = ParseProgram(
      "t(x,y) :- e(x,y). t(x,y) :- t(x,z), t(z,y). goal t.");
  auto ucq = ParseUcq("Q(x,y) :- e(x,y), e(y,z), e(z,w).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  TypeEngineOptions limits;
  limits.max_types = 1;
  auto answer = DatalogContainedInUcq(*program, *ucq, nullptr, limits);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
}

// Property: on random linear programs and random UCQs, answers validate
// against bounded expansion enumeration / witness certificates.
TEST(GeneralEngineProperty, RandomizedCrossValidation) {
  std::mt19937 rng(20140623);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  int yes = 0, no = 0;
  for (int trial = 0; trial < 25; ++trial) {
    int arity = 1;
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, arity);
    if (!program.Validate().ok()) continue;
    std::vector<ConjunctiveQuery> disjuncts;
    int nd = 1 + rng() % 2;
    for (int d = 0; d < nd; ++d) {
      ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 2, 2, arity);
      if (cq.Validate().ok()) disjuncts.push_back(cq);
    }
    if (disjuncts.empty()) continue;
    UnionQuery ucq(std::move(disjuncts));
    auto answer = DatalogContainedInUcq(program, ucq);
    ASSERT_TRUE(answer.ok()) << program.ToString();
    EXPECT_EQ(testval::ValidateAnswer(program, ucq, *answer), "")
        << program.ToString() << "\n"
        << ucq.ToString();
    (answer->contained ? yes : no)++;
  }
  EXPECT_GT(no, 0);
}

}  // namespace
}  // namespace qcont
