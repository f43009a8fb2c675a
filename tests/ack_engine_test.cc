#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/ack_containment.h"
#include "core/datalog_ucq.h"
#include "core/program_artifact_cache.h"
#include "core/router.h"
#include "parser/parser.h"
#include "structure/classify.h"
#include "tests/engine_parity_cases.h"
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

class AckEngineCases : public ::testing::TestWithParam<Case> {};

TEST_P(AckEngineCases, AgreesWithGeneralEngineAndValidates) {
  const Case& c = GetParam();
  auto program = ParseProgram(c.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto ucq = ParseUcq(c.ucq);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  AckEngineStats stats;
  auto answer = DatalogContainedInAcyclicUcq(*program, *ucq, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->contained, c.contained);
  EXPECT_EQ(testval::ValidateAnswer(*program, *ucq, *answer), "");
  auto general = DatalogContainedInUcq(*program, *ucq);
  ASSERT_TRUE(general.ok());
  EXPECT_EQ(answer->contained, general->contained);
  EXPECT_GT(stats.summaries, 0u);
  EXPECT_GE(stats.ack_level, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AcyclicCases, AckEngineCases,
    ::testing::Values(
        Case{"consumers_yes",
             "buys(x,y) :- likes(x,y). buys(x,y) :- trendy(x), buys(z,y). "
             "goal buys.",
             "Q(x,y) :- likes(x,y). Q(x,y) :- trendy(x), likes(z,y).", true},
        Case{"consumers_no",
             "buys(x,y) :- likes(x,y). buys(x,y) :- trendy(x), buys(z,y). "
             "goal buys.",
             "Q(x,y) :- likes(x,y).", false},
        Case{"tc_single_edge",
             "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.",
             "Q(x,y) :- e(x,y).", false},
        Case{"sg_two_levels",
             "sg(x,y) :- flat(x,y). "
             "sg(x,y) :- up(x,u), sg(u,v), down(v,y). goal sg.",
             "Q(x,y) :- flat(x,y). "
             "Q(x,y) :- up(x,u), flat(u,v), down(v,y).", false},
        Case{"fold_to_edge",
             "p(x,y) :- e(x,y), e(y,x). goal p.",
             "Q(x,y) :- e(x,y).", true},
        Case{"repeated_head",
             "s(x,x) :- n(x). goal s.",
             "Q(x,y) :- n(x), n(y).", true},
        Case{"wide_atom_ac2",
             "p(x) :- t(x,y,z), e(y,z). p(x) :- t(x,y,z), e(y,w), p(w). "
             "goal p.",
             "Q(x) :- t(x,u,v).", true},
        Case{"boolean_goal",
             "g() :- p(x). p(x) :- a(x,y), p(y). p(x) :- b(x). goal g.",
             "Q() :- b(u).", true},
        Case{"nonlinear_fib",
             "t(x,y) :- e(x,y). t(x,y) :- t(x,z), t(z,y). goal t.",
             "Q(x,y) :- e(x,u), e(w,y). Q(x,y) :- e(x,y).", true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

TEST(AckEngineTest, RejectsCyclicUcq) {
  auto program = ParseProgram("t(x,y) :- e(x,y). goal t.");
  auto cyclic = ParseUcq("Q(x,y) :- e(x,y), e(y,z), e(z,x).");
  ASSERT_TRUE(program.ok() && cyclic.ok());
  EXPECT_EQ(DatalogContainedInAcyclicUcq(*program, *cyclic).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AckEngineTest, ReportsAckLevel) {
  auto program = ParseProgram("p(x) :- t(x,y,z), e(y,z). goal p.");
  auto ucq = ParseUcq("Q(x) :- t(x,u,v), e(u,v).");
  ASSERT_TRUE(program.ok() && ucq.ok());
  AckEngineStats stats;
  auto answer = DatalogContainedInAcyclicUcq(*program, *ucq, &stats);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->contained);
  EXPECT_EQ(stats.ack_level, 2);  // t and e share {u, v}
}

// The central property test of the repository: on random acyclic UCQs the
// EXPTIME ACk engine and the 2EXPTIME general engine must agree, and both
// answers must validate against expansion/witness certificates.
TEST(AckEngineProperty, AgreesWithGeneralEngineRandomized) {
  std::mt19937 rng(61803398);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  int yes = 0, no = 0;
  for (int trial = 0; trial < 30; ++trial) {
    int arity = 1;
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, arity);
    if (!program.Validate().ok()) continue;
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 1 + rng() % 2, 3,
                                               arity);
    if (!ucq.Validate().ok()) continue;
    auto acyclic = IsAcyclicUcq(ucq);
    ASSERT_TRUE(acyclic.ok() && *acyclic);
    auto ack = DatalogContainedInAcyclicUcq(program, ucq);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString() << program.ToString();
    auto general = DatalogContainedInUcq(program, ucq);
    ASSERT_TRUE(general.ok());
    EXPECT_EQ(ack->contained, general->contained)
        << program.ToString() << "\n"
        << ucq.ToString();
    EXPECT_EQ(testval::ValidateAnswer(program, ucq, *ack), "")
        << program.ToString() << "\n"
        << ucq.ToString();
    (ack->contained ? yes : no)++;
  }
  EXPECT_GT(no, 0);
}

// Π whose IDB p carries `n` wide head positions before Z, so Z sits at
// head position n (past the range of a signed byte for n >= 128). `extra`
// is appended to q's body.
std::string WideHeadProgram(int n, const std::string& extra) {
  std::string vars;
  for (int i = 0; i < n; ++i) {
    vars += 'A';
    vars += std::to_string(i);
    vars += ',';
  }
  std::string text = "p(";
  text += vars;
  text += "Z) :- w(";
  text += vars;
  text += "Z), r(Z). q(Z) :- p(";
  text += vars;
  text += "Z), s(Z)";
  text += extra;
  text += ". goal q.";
  return text;
}

// Every expansion puts r(Z) and s(Z) on the goal variable, whatever the
// width of p's head: contained at 127, 128 and 200 wide positions, by the
// ACk engine and — with a triangle added to both sides, which makes Θ
// cyclic — by the type engine the router then picks.
TEST(AckEngineTest, WideHeadsKeepCorrectVerdicts) {
  const std::string triangle = ", e(Z,Y), e(Y,U), e(U,Z)";
  for (int n : {127, 128, 200}) {
    auto program = ParseProgram(WideHeadProgram(n, ""));
    auto ucq = ParseUcq("Q(Z) :- r(Z), s(Z).");
    ASSERT_TRUE(program.ok() && ucq.ok()) << n;
    auto ack = DatalogContainedInAcyclicUcq(*program, *ucq);
    ASSERT_TRUE(ack.ok()) << n << ": " << ack.status().ToString();
    EXPECT_TRUE(ack->contained) << n;

    auto cyclic_program = ParseProgram(WideHeadProgram(n, triangle));
    std::string cyclic_text = "Q(Z) :- r(Z), s(Z)";
    cyclic_text += triangle;
    cyclic_text += '.';
    auto cyclic_ucq = ParseUcq(cyclic_text);
    ASSERT_TRUE(cyclic_program.ok() && cyclic_ucq.ok()) << n;
    auto routed = DecideContainment(*cyclic_program, *cyclic_ucq);
    ASSERT_TRUE(routed.ok()) << n << ": " << routed.status().ToString();
    EXPECT_EQ(routed->route, ContainmentRoute::kGeneralEngine) << n;
    EXPECT_TRUE(routed->answer.contained) << n;
  }
}

struct ParityLiteral {
  const char* name;
  const char* record;
};

constexpr ParityLiteral kAckParity[] = {
#include "tests/ack_parity_records.inc"
};

std::string AckRecord(const DatalogProgram& program, const UnionQuery& ucq,
                      const AckEngineLimits& limits) {
  AckEngineStats stats;
  auto answer = DatalogContainedInAcyclicUcq(program, ucq, &stats, limits);
  return parity::ParityRecord(answer, stats.kinds, stats.summaries,
                              stats.combos, stats.game_states,
                              stats.antichain_sets, stats.ack_level);
}

// Pins verdicts, every counter, the level and the witness text of ~200
// fixed instances to the records of the reference engine, both with a
// private artifact per call and through a shared artifact cache.
TEST(AckEngineParity, MatchesReferenceRecords) {
  const std::vector<parity::AckCase> cases = parity::AckCases();
  ASSERT_EQ(cases.size(), std::size(kAckParity));
  ProgramArtifactCache cache;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kAckParity[i].name);
    AckEngineLimits limits;
    EXPECT_EQ(AckRecord(cases[i].program, cases[i].ucq, limits),
              kAckParity[i].record)
        << cases[i].name;
    limits.artifact_cache = &cache;
    EXPECT_EQ(AckRecord(cases[i].program, cases[i].ucq, limits),
              kAckParity[i].record)
        << cases[i].name << " (cached artifact)";
  }
}

// Low budgets trip at the reference engine's counter values; the snapshot
// counters stay unpublished when the fixpoint does not complete.
TEST(AckEngineParity, BudgetsTripAtReferenceCounters) {
  struct Budget {
    const char* name;
    std::uint64_t max_combos;
    std::uint64_t max_summaries;
    const char* record;
  };
  const Budget budgets[] = {
      {"nonlinear_tc/4", 3, 1000,
       "error ResourceExhausted: ACk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=4 game_states=98 antichain_sets=0 level=1"},
      {"nonlinear_tc/4", 1000, 2,
       "error ResourceExhausted: ACk-engine summary budget exceeded kinds=0 "
       "summaries=0 combos=3 game_states=98 antichain_sets=0 level=1"},
      {"nonlinear_tc/4", 6, 4,
       "error ResourceExhausted: ACk-engine summary budget exceeded kinds=0 "
       "summaries=0 combos=5 game_states=164 antichain_sets=0 level=1"},
      {"nonlinear_tc/4", 1, 1,
       "error ResourceExhausted: ACk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=2 game_states=24 antichain_sets=0 level=1"},
      {"nonlinear_tc/4", 1000, 1,
       "error ResourceExhausted: ACk-engine summary budget exceeded kinds=0 "
       "summaries=0 combos=2 game_states=62 antichain_sets=0 level=1"},
      {"nonlinear_tc/4", 2, 1000,
       "error ResourceExhausted: ACk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=3 game_states=62 antichain_sets=0 level=1"},
      {"star_fanout/6", 1, 1,
       "error ResourceExhausted: ACk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=2 game_states=15 antichain_sets=0 level=1"},
  };
  const std::vector<parity::AckCase> cases = parity::AckCases();
  for (const Budget& budget : budgets) {
    auto it = std::find_if(cases.begin(), cases.end(), [&](const auto& c) {
      return c.name == budget.name;
    });
    ASSERT_NE(it, cases.end()) << budget.name;
    AckEngineLimits limits;
    limits.max_combos = budget.max_combos;
    limits.max_summaries = budget.max_summaries;
    EXPECT_EQ(AckRecord(it->program, it->ucq, limits), budget.record)
        << budget.name << " combos<=" << budget.max_combos
        << " summaries<=" << budget.max_summaries;
  }
}

}  // namespace
}  // namespace qcont
