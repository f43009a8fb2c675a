#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/acrk_containment.h"
#include "core/datalog_ucq.h"
#include "core/datalog_uc2rpq.h"
#include "datalog/expansion.h"
#include "graphdb/c2rpq.h"
#include "parser/parser.h"
#include "tests/engine_parity_cases.h"
#include "tests/generators.h"

namespace qcont {
namespace {

struct Case {
  const char* name;
  const char* program;
  const char* gamma;
  bool contained;
};

class AcrkEngineCases : public ::testing::TestWithParam<Case> {};

TEST_P(AcrkEngineCases, DecidesAndCertifiesWitnesses) {
  const Case& c = GetParam();
  auto program = ParseProgram(c.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto gamma = ParseUC2rpq(c.gamma);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  AcrkEngineStats stats;
  auto answer = DatalogContainedInAcyclicUC2rpq(*program, *gamma, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->contained, c.contained);
  if (!answer->contained) {
    // The witness expansion must escape Γ yet be derivable (it is an
    // expansion by construction; check the escape half).
    ASSERT_TRUE(answer->witness.has_value());
    UnionQuery single({*answer->witness});
    auto escapes = UcqContainedInUC2rpq(single, *gamma);
    ASSERT_TRUE(escapes.ok());
    EXPECT_FALSE(*escapes) << answer->witness->ToString();
  }
  EXPECT_GT(stats.summaries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GraphCases, AcrkEngineCases,
    ::testing::Values(
        Case{"tc_in_aplus",
             "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.",
             "Q(x,y) :- [a+](x,y).", true},
        Case{"tc_not_in_a",
             "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.",
             "Q(x,y) :- [a](x,y).", false},
        Case{"union_labels",
             "t(x,y) :- a(x,y). t(x,y) :- b(x,y). "
             "t(x,y) :- a(x,z), t(z,y). t(x,y) :- b(x,z), t(z,y). goal t.",
             "Q(x,y) :- [(a|b)+](x,y).", true},
        Case{"inverse_direction",
             "r(x,y) :- a(y,x). goal r.", "Q(x,y) :- [a-](x,y).", true},
        Case{"multiedge_both",
             "p(x,y) :- a(x,y), b(x,y). goal p.",
             "Q(x,y) :- [a](x,y), [b](x,y).", true},
        Case{"multiedge_missing",
             "p(x,y) :- a(x,y). goal p.",
             "Q(x,y) :- [a](x,y), [b](x,y).", false},
        Case{"loop_atom",
             "p(x,y) :- a(x,y), s(y,y). goal p.",
             "Q(x,y) :- [a](x,y), [s](y,y).", true},
        Case{"boolean_path",
             "g() :- a(x,y), b(y,z). goal g.", "Q() :- [a b](u,v).", true},
        Case{"boolean_path_wrong_direction",
             "g() :- a(x,y), b(z,y). goal g.", "Q() :- [a b](u,v).", false},
        Case{"even_paths",
             "e(x,y) :- a(x,z), a(z,y). "
             "e(x,y) :- a(x,z), a(z,w), e(w,y). goal e.",
             "Q(x,y) :- [a a (a a)*](x,y).", true},
        Case{"odd_escapes_even",
             "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.",
             "Q(x,y) :- [a a (a a)*](x,y).", false},
        // Opposing multiedges (the x<->y bundle of Examples 5/6).
        Case{"opposing_pair",
             "p(x,y) :- a(x,y), c(y,x). goal p.",
             "Q(x,y) :- [a](x,y), [c-](x,y).", true},
        // A star shape: center with two leaf constraints.
        Case{"star",
             "p(x) :- a(x,y), b(x,z), m(z,z). p(x) :- a(x,y), b(x,z), "
             "m(w,w), p(w). goal p.",
             "Q(x) :- [a](x,u), [b](x,v).", true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

TEST(AcrkEngineTest, RejectsCyclicGamma) {
  auto program = ParseProgram("t(x,y) :- a(x,y). goal t.");
  auto cyclic = ParseUC2rpq("Q(x,y) :- [a](x,y), [a](y,z), [a](z,x).");
  ASSERT_TRUE(program.ok() && cyclic.ok());
  EXPECT_EQ(
      DatalogContainedInAcyclicUC2rpq(*program, *cyclic).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(AcrkEngineTest, RejectsNonBinarySchema) {
  auto program = ParseProgram("t(x,y) :- r(x,y,z). goal t.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  EXPECT_EQ(
      DatalogContainedInAcyclicUC2rpq(*program, *gamma).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(AcrkEngineTest, ReportsAcrkLevel) {
  auto program = ParseProgram("p(x,y) :- a(x,y). goal p.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y), [a*](x,y).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  AcrkEngineStats stats;
  auto answer = DatalogContainedInAcyclicUC2rpq(*program, *gamma, &stats);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->contained);
  EXPECT_EQ(stats.acrk_level, 2);
}

// Property: on UC2RPQs whose regexes are single symbols, the ACRk engine
// must agree with the relational UCQ engines (the two semantics coincide).
TEST(AcrkEngineProperty, AgreesWithUcqEngineOnSingleSymbolQueries) {
  std::mt19937 rng(271828);
  testgen::SchemaSpec schema = testgen::BinarySchema();
  int yes = 0, no = 0;
  for (int trial = 0; trial < 25; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    // Random acyclic UCQ over binary atoms -> mirrored UC2RPQ.
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 1, 3, 1);
    if (!ucq.Validate().ok()) continue;
    std::vector<C2rpq> disjuncts;
    bool convertible = true;
    for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
      std::vector<RpqAtom> atoms;
      for (const Atom& a : cq.atoms()) {
        auto atom = MakeRpqAtom(a.predicate(), a.terms()[0], a.terms()[1]);
        if (!atom.ok()) {
          convertible = false;
          break;
        }
        atoms.push_back(std::move(*atom));
      }
      disjuncts.emplace_back(cq.head(), std::move(atoms));
    }
    if (!convertible) continue;
    UC2rpq gamma(std::move(disjuncts));
    auto acyclic = IsAcyclicUC2rpq(gamma);
    if (!acyclic.ok() || !*acyclic) continue;
    auto rpq_answer = DatalogContainedInAcyclicUC2rpq(program, gamma);
    ASSERT_TRUE(rpq_answer.ok()) << rpq_answer.status().ToString();
    auto ucq_answer = DatalogContainedInUcq(program, ucq);
    ASSERT_TRUE(ucq_answer.ok());
    EXPECT_EQ(rpq_answer->contained, ucq_answer->contained)
        << program.ToString() << "\n"
        << gamma.ToString();
    (rpq_answer->contained ? yes : no)++;
  }
  EXPECT_GT(yes + no, 5);
  EXPECT_GT(no, 0);
}

// Property: on random binary-schema programs and random acyclic UC2RPQs
// with genuinely regular atoms, engine answers validate against bounded
// expansion enumeration (complete C2RPQ evaluation on each expansion).
TEST(AcrkEngineProperty, RandomRegexCrossValidation) {
  std::mt19937 rng(99991);
  testgen::SchemaSpec schema = testgen::BinarySchema();
  const std::vector<std::string> patterns = {"a",      "b",        "a b",
                                             "a+",     "(a|b)*",   "a- ",
                                             "b a*",   "a|b",      "b-"};
  int yes = 0, no = 0;
  for (int trial = 0; trial < 25; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    // Random chain-shaped gamma of 1-2 atoms (strongly acyclic).
    int m = 1 + rng() % 2;
    std::vector<RpqAtom> atoms;
    for (int i = 0; i < m; ++i) {
      auto atom = MakeRpqAtom(patterns[rng() % patterns.size()],
                              Term::Variable(testgen::Numbered("x", i)),
                              Term::Variable(testgen::Numbered("x", i + 1)));
      ASSERT_TRUE(atom.ok());
      atoms.push_back(std::move(*atom));
    }
    UC2rpq gamma({C2rpq({Term::Variable("x0")}, std::move(atoms))});
    auto answer = DatalogContainedInAcyclicUC2rpq(program, gamma);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    if (answer->contained) {
      auto exps = EnumerateExpansions(program, 4, 150);
      ASSERT_TRUE(exps.ok());
      for (const ConjunctiveQuery& e : *exps) {
        UnionQuery single({e});
        auto contained = UcqContainedInUC2rpq(single, gamma);
        ASSERT_TRUE(contained.ok());
        EXPECT_TRUE(*contained)
            << program.ToString() << gamma.ToString() << "\n"
            << e.ToString();
      }
      ++yes;
    } else {
      ASSERT_TRUE(answer->witness.has_value());
      UnionQuery single({*answer->witness});
      auto contained = UcqContainedInUC2rpq(single, gamma);
      ASSERT_TRUE(contained.ok());
      EXPECT_FALSE(*contained)
          << program.ToString() << gamma.ToString() << "\n"
          << answer->witness->ToString();
      ++no;
    }
  }
  EXPECT_GT(yes + no, 10);
  EXPECT_GT(no, 0);
}

TEST(GeneralUc2rpqTest, RoutesAcyclicToExactEngine) {
  auto program = ParseProgram(
      "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a+](x,y).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  auto answer = DatalogContainedInUC2rpq(*program, *gamma);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->used_exact_engine);
  EXPECT_EQ(answer->verdict, Uc2rpqVerdict::kContained);
}

TEST(GeneralUc2rpqTest, CyclicGammaRefutationSearch) {
  auto program = ParseProgram("p(x,y) :- a(x,y). goal p.");
  // A cyclic Γ (triangle); a single a-edge cannot satisfy it.
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y), [a](y,z), [a](z,x).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  auto answer = DatalogContainedInUC2rpq(*program, *gamma);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->used_exact_engine);
  EXPECT_EQ(answer->verdict, Uc2rpqVerdict::kNotContained);
  EXPECT_TRUE(answer->witness.has_value());
}

TEST(GeneralUc2rpqTest, CyclicGammaUnknownWhenExhausted) {
  // Self-loop program satisfies the triangle query (fold), so no refutation
  // exists and the bounded search must report kUnknown.
  auto program = ParseProgram("p(x,y) :- a(x,y), a(y,x), a(x,x). goal p.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y), [a](y,z), [a](z,x).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  auto answer = DatalogContainedInUC2rpq(*program, *gamma);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->verdict, Uc2rpqVerdict::kUnknown);
}

// The binary-schema version of the wide-head regression: p carries `n`
// head positions before Z, each tied to Z by a w edge; every expansion has
// r and s loops on the goal variable, for n = 127, 128 and 200.
TEST(AcrkEngineTest, WideHeadsKeepCorrectVerdicts) {
  for (int n : {127, 128, 200}) {
    std::string vars;
    std::string edges;
    for (int i = 0; i < n; ++i) {
      vars += 'A';
      vars += std::to_string(i);
      vars += ',';
      edges += ", w(A";
      edges += std::to_string(i);
      edges += ",Z)";
    }
    std::string text = "p(";
    text += vars;
    text += "Z) :- r(Z,Z)";
    text += edges;
    text += ". q(Z) :- p(";
    text += vars;
    text += "Z), s(Z,Z). goal q.";
    auto program = ParseProgram(text);
    auto gamma = ParseUC2rpq("Q(Z) :- [r](Z,Z), [s](Z,Z).");
    ASSERT_TRUE(program.ok() && gamma.ok()) << n;
    auto answer = DatalogContainedInAcyclicUC2rpq(*program, *gamma);
    ASSERT_TRUE(answer.ok()) << n << ": " << answer.status().ToString();
    EXPECT_TRUE(answer->contained) << n;
  }
}

struct ParityLiteral {
  const char* name;
  const char* record;
};

constexpr ParityLiteral kAcrkParity[] = {
#include "tests/acrk_parity_records.inc"
};

std::string AcrkRecord(const DatalogProgram& program, const UC2rpq& gamma,
                       const AcrkEngineLimits& limits) {
  AcrkEngineStats stats;
  auto answer = DatalogContainedInAcyclicUC2rpq(program, gamma, &stats, limits);
  return parity::ParityRecord(answer, stats.kinds, stats.summaries,
                              stats.combos, stats.game_states,
                              stats.antichain_sets, stats.acrk_level);
}

// Pins verdicts, every counter, the level and the witness text of ~200
// fixed instances to the records of the reference engine.
TEST(AcrkEngineParity, MatchesReferenceRecords) {
  const std::vector<parity::AcrkCase> cases = parity::AcrkCases();
  ASSERT_EQ(cases.size(), std::size(kAcrkParity));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kAcrkParity[i].name);
    EXPECT_EQ(AcrkRecord(cases[i].program, cases[i].gamma, AcrkEngineLimits()),
              kAcrkParity[i].record)
        << cases[i].name;
  }
}

// Low budgets trip at the reference engine's counter values.
TEST(AcrkEngineParity, BudgetsTripAtReferenceCounters) {
  struct Budget {
    const char* name;
    std::uint64_t max_combos;
    std::uint64_t max_summaries;
    const char* record;
  };
  const Budget budgets[] = {
      {"stride_in_star/3", 1, 1,
       "error ResourceExhausted: ACRk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=2 game_states=21 antichain_sets=0 level=1"},
      {"stride_in_star/3", 1000, 1,
       "error ResourceExhausted: ACRk-engine summary budget exceeded kinds=0 "
       "summaries=0 combos=2 game_states=72 antichain_sets=0 level=1"},
      {"stride_in_star/3", 2, 1000,
       "error ResourceExhausted: ACRk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=3 game_states=72 antichain_sets=0 level=1"},
      {"stride_in_star/3", 3, 1000,
       "contained kinds=1 summaries=2 combos=3 game_states=123 "
       "antichain_sets=96 level=1"},
      {"deep_variable_tree/3", 1, 1,
       "error ResourceExhausted: ACRk-engine combination budget exceeded "
       "kinds=0 summaries=0 combos=2 game_states=37 antichain_sets=0 level=1"},
  };
  const std::vector<parity::AcrkCase> cases = parity::AcrkCases();
  for (const Budget& budget : budgets) {
    auto it = std::find_if(cases.begin(), cases.end(), [&](const auto& c) {
      return c.name == budget.name;
    });
    ASSERT_NE(it, cases.end()) << budget.name;
    AcrkEngineLimits limits;
    limits.max_combos = budget.max_combos;
    limits.max_summaries = budget.max_summaries;
    EXPECT_EQ(AcrkRecord(it->program, it->gamma, limits), budget.record)
        << budget.name << " combos<=" << budget.max_combos
        << " summaries<=" << budget.max_summaries;
  }
}

}  // namespace
}  // namespace qcont
