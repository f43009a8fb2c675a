// Tests for the static analyzer (src/analysis): every diagnostic code, the
// Validate()/analyzer agreement, and the Theorem 5 safety story.

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/report.h"
#include "core/hardness.h"
#include "parser/parser.h"
#include "tests/generators.h"

namespace qcont {
namespace {

using analysis::AnalysisOptions;
using analysis::AnalyzeProgram;
using analysis::AnalyzeUC2rpq;
using analysis::AnalyzeUcq;
using analysis::CheckContainmentPair;
using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::HasErrors;

int CountCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.code == code) ++n;
  }
  return n;
}

const Diagnostic* FindCode(const std::vector<Diagnostic>& diags,
                           DiagCode code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::vector<Diagnostic> LintProgram(const std::string& text) {
  SourceLines lines;
  auto program = ParseProgramUnvalidated(text, &lines);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  AnalysisOptions options;
  options.rule_lines = lines.rule_lines;
  return AnalyzeProgram(*program, options);
}

std::vector<Diagnostic> LintUcq(const std::string& text) {
  SourceLines lines;
  auto ucq = ParseUcqUnvalidated(text, &lines);
  EXPECT_TRUE(ucq.ok()) << ucq.status().ToString();
  AnalysisOptions options;
  options.rule_lines = lines.rule_lines;
  return AnalyzeUcq(*ucq, options);
}

// --- Program errors (QC001..QC005) -----------------------------------------

TEST(AnalyzeProgramTest, EmptyProgramIsQc001) {
  DatalogProgram empty({}, "g");
  auto diags = AnalyzeProgram(empty);
  EXPECT_EQ(CountCode(diags, DiagCode::kEmptyInput), 1);
  EXPECT_TRUE(HasErrors(diags));
}

TEST(AnalyzeProgramTest, UnsafeRuleIsQc002WithLine) {
  auto diags = LintProgram(
      "p(x, y) :- e(x, z).\n"
      "goal p.\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kUnsafeRule);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 1);
  EXPECT_EQ(d->index, 0);
  EXPECT_NE(d->message.find("'y'"), std::string::npos);
  EXPECT_EQ(analysis::DiagSeverity(d->code), analysis::Severity::kError);
}

TEST(AnalyzeProgramTest, ConstantInRuleIsQc003) {
  auto diags = LintProgram("p(x) :- e(x, 'c').\ngoal p.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kConstant), 1);
}

TEST(AnalyzeProgramTest, InconsistentArityIsQc004) {
  auto diags = LintProgram(
      "p(x) :- e(x, y).\n"
      "q(x) :- e(x), p(x).\n"
      "goal p.\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kArityMismatch);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 2);
}

TEST(AnalyzeProgramTest, ExtensionalGoalIsQc005) {
  auto diags = LintProgram("p(x) :- e(x, x).\ngoal e.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kGoalNotIntensional), 1);
}

// --- UCQ errors (QC004, QC006, QC007) --------------------------------------

TEST(AnalyzeUcqTest, EmptyUnionIsQc001) {
  UnionQuery empty{std::vector<ConjunctiveQuery>{}};
  EXPECT_EQ(CountCode(AnalyzeUcq(empty), DiagCode::kEmptyInput), 1);
}

TEST(AnalyzeUcqTest, UnboundFreeVariableIsQc006) {
  auto diags = LintUcq("Q(x, y) :- a(x, x).\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kInvalidHead);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'y'"), std::string::npos);
}

TEST(AnalyzeUcqTest, ConstantHeadTermIsQc006) {
  ConjunctiveQuery cq({Term::Constant("c")},
                      {Atom("a", {Term::Variable("x"), Term::Variable("x")})});
  UnionQuery ucq({cq});
  EXPECT_EQ(CountCode(AnalyzeUcq(ucq), DiagCode::kInvalidHead), 1);
}

TEST(AnalyzeUcqTest, DisjunctArityDisagreementIsQc007) {
  ConjunctiveQuery unary({Term::Variable("x")},
                         {Atom("u", {Term::Variable("x")})});
  ConjunctiveQuery binary(
      {Term::Variable("x"), Term::Variable("y")},
      {Atom("a", {Term::Variable("x"), Term::Variable("y")})});
  UnionQuery ucq({unary, binary});
  EXPECT_EQ(CountCode(AnalyzeUcq(ucq), DiagCode::kUnionArityMismatch), 1);
}

TEST(AnalyzeUcqTest, InconsistentPredicateArityIsQc004) {
  auto diags = LintUcq("Q(x) :- a(x, y), a(x).\n");
  EXPECT_GE(CountCode(diags, DiagCode::kArityMismatch), 1);
}

// --- Containment-pair preconditions (QC003, QC004, QC007, QC008, QC009) ----

TEST(CheckContainmentPairTest, ArityDisagreementIsQc007) {
  auto program = ParseProgram("p(x, y) :- e(x, y).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("Q(x) :- e(x, x).\n");
  ASSERT_TRUE(ucq.ok());
  auto diags = CheckContainmentPair(*program, *ucq);
  EXPECT_EQ(CountCode(diags, DiagCode::kUnionArityMismatch), 1);
}

TEST(CheckContainmentPairTest, IntensionalPredicateInQueryIsQc008) {
  auto program = ParseProgram("p(x, y) :- e(x, y).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("Q(x, y) :- p(x, y).\n");
  ASSERT_TRUE(ucq.ok());
  auto diags = CheckContainmentPair(*program, *ucq);
  EXPECT_EQ(CountCode(diags, DiagCode::kIntensionalInQuery), 1);
}

TEST(CheckContainmentPairTest, QueryConstantIsQc003) {
  auto program = ParseProgram("p(x, y) :- e(x, y).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("Q(x, y) :- e(x, y), u('c').\n");
  ASSERT_TRUE(ucq.ok());
  auto diags = CheckContainmentPair(*program, *ucq);
  EXPECT_EQ(CountCode(diags, DiagCode::kConstant), 1);
}

TEST(CheckContainmentPairTest, CrossArityMismatchIsQc004) {
  auto program = ParseProgram("p(x, y) :- e(x, y).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  auto ucq = ParseUcq("Q(x, y) :- e(x, y, y).\n");
  ASSERT_TRUE(ucq.ok());
  auto diags = CheckContainmentPair(*program, *ucq);
  EXPECT_EQ(CountCode(diags, DiagCode::kArityMismatch), 1);
}

TEST(CheckContainmentPairTest, TernarySchemaIsQc009ForGraphContainment) {
  auto program = ParseProgram("p(x, y) :- e(x, y, z), u(z).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  auto gamma = ParseUC2rpq("Q(x, y) :- [a](x, y).\n");
  ASSERT_TRUE(gamma.ok());
  auto diags = CheckContainmentPair(*program, *gamma);
  // 'e' (arity 3) and 'u' (arity 1) each reported once.
  EXPECT_EQ(CountCode(diags, DiagCode::kNonBinarySchema), 2);
}

// --- Program warnings (QC101..QC105) ---------------------------------------

TEST(AnalyzeProgramTest, DeadRuleIsQc101) {
  auto diags = LintProgram(
      "p(x) :- e(x, y).\n"
      "dead(x) :- e(x, x).\n"
      "goal p.\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kUnreachablePredicate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->index, 1);
  EXPECT_EQ(d->line, 2);
  EXPECT_EQ(analysis::DiagSeverity(d->code), analysis::Severity::kWarning);
}

TEST(AnalyzeProgramTest, MutualRecursionThroughGoalIsNotDead) {
  auto diags = LintProgram(
      "p(x) :- e(x, y), q(y).\n"
      "q(x) :- e(x, y), p(y).\n"
      "goal p.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kUnreachablePredicate), 0);
}

TEST(AnalyzeProgramTest, SingletonVariableIsQc102AndUnderscoreSilences) {
  auto diags = LintProgram("p(x) :- e(x, y).\ngoal p.\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kSingletonVariable);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'y'"), std::string::npos);

  auto silenced = LintProgram("p(x) :- e(x, _y).\ngoal p.\n");
  EXPECT_EQ(CountCode(silenced, DiagCode::kSingletonVariable), 0);
}

TEST(AnalyzeProgramTest, HeadUseCountsTowardOccurrences) {
  // 'y' occurs once in the body but is projected by the head: not a
  // singleton.
  auto diags = LintProgram("p(x, y) :- e(x, y).\ngoal p.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kSingletonVariable), 0);
}

TEST(AnalyzeProgramTest, DisconnectedBodyIsQc103) {
  // The second component ('y') is disjoint from the head: a genuine cross
  // join.
  auto diags = LintProgram("p(x) :- e(x, x), e(y, y).\ngoal p.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kCartesianProduct), 1);
}

TEST(AnalyzeProgramTest, HeadConnectedComponentsAreNotQc103) {
  // Regression: both parts feed distinct answer variables — the product of
  // answer dimensions is intentional, not an accidental cross join.
  auto diags = LintProgram("p(x, y) :- e(x, x), e(y, y).\ngoal p.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kCartesianProduct), 0);
}

TEST(AnalyzeUcqTest, HeadConnectedDisjunctIsNotQc103) {
  // Same false-positive fix on the UCQ side.
  UnionQuery ucq({ConjunctiveQuery(
      {Term::Variable("x"), Term::Variable("y")},
      {Atom("e", {Term::Variable("x"), Term::Variable("x")}),
       Atom("e", {Term::Variable("y"), Term::Variable("y")})})});
  auto diags = AnalyzeUcq(ucq);
  EXPECT_EQ(CountCode(diags, DiagCode::kCartesianProduct), 0);
}

TEST(AnalyzeUcqTest, ExistentialDisconnectedDisjunctIsQc103) {
  UnionQuery ucq({ConjunctiveQuery(
      {Term::Variable("x")},
      {Atom("e", {Term::Variable("x"), Term::Variable("x")}),
       Atom("e", {Term::Variable("y"), Term::Variable("y")})})});
  auto diags = AnalyzeUcq(ucq);
  EXPECT_EQ(CountCode(diags, DiagCode::kCartesianProduct), 1);
}

TEST(AnalyzeProgramTest, RepeatedRuleIsQc104) {
  auto diags = LintProgram(
      "p(x) :- e(x, x).\n"
      "p(x) :- e(x, x).\n"
      "goal p.\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kDuplicateRule);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->index, 1);
}

TEST(AnalyzeProgramTest, RepeatedBodyAtomIsQc105) {
  auto diags = LintProgram("p(x) :- e(x, x), e(x, x).\ngoal p.\n");
  EXPECT_EQ(CountCode(diags, DiagCode::kDuplicateAtom), 1);
}

TEST(AnalyzeProgramTest, StyleWarningsCanBeDisabled) {
  AnalysisOptions options;
  options.style_warnings = false;
  options.tractability_advisor = false;
  auto program =
      ParseProgramUnvalidated("p(x) :- e(x, y).\ndead(x) :- e(x, x).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(AnalyzeProgram(*program, options).empty());
}

// --- UC2RPQ diagnostics (QC001, QC006, QC104..QC106, QC203) -----------------

TEST(AnalyzeUc2rpqTest, EmptyDisjunctIsQc001) {
  C2rpq no_atoms({}, {});
  UC2rpq query({no_atoms});
  EXPECT_EQ(CountCode(AnalyzeUC2rpq(query), DiagCode::kEmptyInput), 1);
}

TEST(AnalyzeUc2rpqTest, ConstantEndpointIsQc006) {
  auto atom = MakeRpqAtom("a", Term::Variable("x"), Term::Constant("c"));
  ASSERT_TRUE(atom.ok());
  C2rpq cq({Term::Variable("x")}, {*atom});
  UC2rpq query({cq});
  EXPECT_GE(CountCode(AnalyzeUC2rpq(query), DiagCode::kInvalidHead), 1);
}

TEST(AnalyzeUc2rpqTest, EmptyLanguageAtomIsQc106) {
  // An NFA whose accepting state is unreachable: L = ∅. Not expressible in
  // the regex syntax, so build it by hand.
  Nfa nfa;
  int start = nfa.AddState();
  int final_state = nfa.AddState();
  nfa.set_initial(start);
  nfa.AddAccepting(final_state);
  RpqAtom atom{"empty", nfa, Term::Variable("x"), Term::Variable("y")};
  C2rpq cq({Term::Variable("x"), Term::Variable("y")}, {atom});
  UC2rpq query({cq});
  auto diags = AnalyzeUC2rpq(query);
  EXPECT_EQ(CountCode(diags, DiagCode::kEmptyRegexLanguage), 1);
  EXPECT_FALSE(HasErrors(diags));  // a warning, not an error
}

TEST(AnalyzeUc2rpqTest, RepeatedAtomAndDisjunctAreQc105AndQc104) {
  auto atom = MakeRpqAtom("a", Term::Variable("x"), Term::Variable("y"));
  ASSERT_TRUE(atom.ok());
  C2rpq cq({Term::Variable("x"), Term::Variable("y")}, {*atom, *atom});
  UC2rpq query({cq, cq});
  auto diags = AnalyzeUC2rpq(query);
  EXPECT_EQ(CountCode(diags, DiagCode::kDuplicateAtom), 2);
  EXPECT_EQ(CountCode(diags, DiagCode::kDuplicateRule), 1);
}

TEST(AnalyzeUc2rpqTest, AcyclicQueryGetsAcrAdvisorNote) {
  auto gamma = ParseUC2rpq("Q(x, y) :- [a (b|c)*](x, y).\n");
  ASSERT_TRUE(gamma.ok());
  auto diags = AnalyzeUC2rpq(*gamma);
  const Diagnostic* d = FindCode(diags, DiagCode::kRpqTractability);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("ACR1"), std::string::npos);
  EXPECT_NE(d->message.find("Theorem 9"), std::string::npos);
}

// --- Tractability advisor (QC201, QC202) -----------------------------------

TEST(AdvisorTest, RecursiveLinearProgramIsReported) {
  auto diags = LintProgram(
      "buys(x, y) :- likes(x, y).\n"
      "buys(x, y) :- trendy(x), buys(z, y).\n"
      "goal buys.\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kProgramFragment);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("recursive, linear"), std::string::npos);
  EXPECT_NE(d->message.find("Theorem 2"), std::string::npos);
}

TEST(AdvisorTest, PaperAcyclicUcqRoutesToAckEngine) {
  // The paper's Example 1/2 query: acyclic, so the single-exponential ACk
  // engine of Theorem 6 applies.
  auto diags = LintUcq(
      "Q(x, y) :- likes(x, y).\n"
      "Q(x, y) :- trendy(x), likes(z, y).\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kQueryTractability);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("acyclic UCQ in AC"), std::string::npos);
  EXPECT_NE(d->message.find("ACk engine"), std::string::npos);
  EXPECT_NE(d->message.find("Theorem 6"), std::string::npos);
}

TEST(AdvisorTest, CyclicUcqRoutesToTypeEngine) {
  auto diags = LintUcq("Q(x) :- a(x, y), a(y, z), a(z, x).\n");
  const Diagnostic* d = FindCode(diags, DiagCode::kQueryTractability);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("cyclic"), std::string::npos);
  EXPECT_NE(d->message.find("Theorem 2"), std::string::npos);
}

TEST(AdvisorTest, SilentOnErrorsAndWhenDisabled) {
  auto broken = LintProgram("p(x, y) :- e(x).\ngoal p.\n");
  EXPECT_EQ(CountCode(broken, DiagCode::kProgramFragment), 0);

  AnalysisOptions options;
  options.tractability_advisor = false;
  auto program = ParseProgram("p(x) :- e(x, x).\ngoal p.\n");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(
      CountCode(AnalyzeProgram(*program, options), DiagCode::kProgramFragment),
      0);
}

// --- Theorem 5 safety (the §4.1 hardness construction) ----------------------

TEST(HardnessAnalysisTest, UndomesticatedAddressRulesAreUnsafe) {
  // Without the bitv guard, the address-modification rules of the reduction
  // use head variables not bound in the body — the exact illegality the
  // paper domesticates in §4.1.
  Theorem5Options raw;
  raw.domesticate_addresses = false;
  auto instance = BuildTheorem5Instance(AtmSpec::Tiny(), 2, raw);
  ASSERT_TRUE(instance.ok());
  auto diags = AnalyzeProgram(instance->program);
  EXPECT_GE(CountCode(diags, DiagCode::kUnsafeRule), 1);
  EXPECT_TRUE(HasErrors(diags));
  EXPECT_FALSE(instance->program.Validate().ok());
}

TEST(HardnessAnalysisTest, DomesticatedInstanceIsErrorFree) {
  auto instance = BuildTheorem5Instance(AtmSpec::Tiny(), 2);
  ASSERT_TRUE(instance.ok());
  auto diags = AnalyzeProgram(instance->program);
  EXPECT_FALSE(HasErrors(diags));
  EXPECT_TRUE(instance->program.Validate().ok());
}

// --- Validate() is FirstError of the analyzer -------------------------------

TEST(RegressionTest, ValidateAgreesWithAnalyzerOnRandomUcqs) {
  std::mt19937 rng(20140622);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ConjunctiveQuery> disjuncts;
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      disjuncts.push_back(testgen::RandomCq(&rng, testgen::SmallSchema(),
                                            1 + rng() % 3, 1 + rng() % 4,
                                            rng() % 3));
    }
    UnionQuery ucq(std::move(disjuncts));
    EXPECT_EQ(ucq.Validate().ok(), !HasErrors(AnalyzeUcq(ucq)))
        << ucq.ToString();
  }
}

TEST(RegressionTest, ValidateAgreesWithAnalyzerOnRandomPrograms) {
  std::mt19937 rng(20140623);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Rule> rules;
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      // Random bodies; heads draw from a pool that sometimes includes a
      // variable absent from the body, so ~half the programs are unsafe.
      ConjunctiveQuery cq = testgen::RandomCq(&rng, testgen::SmallSchema(),
                                              1 + rng() % 3, 1 + rng() % 4, 0);
      std::vector<Term> head_terms;
      const int arity = 1 + static_cast<int>(rng() % 2);
      for (int j = 0; j < arity; ++j) {
        head_terms.push_back(Term::Variable(
            rng() % 2 == 0 ? testgen::Numbered("x", rng() % 4) : "fresh"));
      }
      rules.push_back(
          Rule{Atom(testgen::Numbered("p", rng() % 2), std::move(head_terms)),
               cq.atoms()});
    }
    const std::string goal = rules.front().head.predicate();
    DatalogProgram program(std::move(rules), goal);
    EXPECT_EQ(program.Validate().ok(), !HasErrors(AnalyzeProgram(program)))
        << program.ToString();
  }
}

// --- Parser line numbers (errors and SourceLines) ---------------------------

TEST(SourceLineTest, ParseErrorsCarryLineNumbers) {
  auto bad = ParseProgram("p(x) :- e(x, x).\nq(x :- e(x, x).\ngoal p.\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

TEST(SourceLineTest, SourceLinesTrackRuleStarts) {
  SourceLines lines;
  auto program = ParseProgramUnvalidated(
      "# comment\n"
      "p(x) :- e(x, x).\n"
      "\n"
      "q(x) :- e(x, x), p(x).\n"
      "goal p.\n",
      &lines);
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(lines.rule_lines.size(), 2u);
  EXPECT_EQ(lines.LineOf(0), 2);
  EXPECT_EQ(lines.LineOf(1), 4);
  EXPECT_EQ(lines.LineOf(7), 0);  // out of range
}

// --- Formatting -------------------------------------------------------------

TEST(DiagnosticTest, FormatIncludesCodeSeverityAndLocation) {
  Diagnostic d{DiagCode::kUnsafeRule, "boom", analysis::Subject::kRule, 3, 7};
  EXPECT_EQ(analysis::FormatDiagnostic(d), "QC002 error: boom (rule 3, line 7)");
  Diagnostic whole{DiagCode::kEmptyInput, "no rules"};
  EXPECT_EQ(analysis::FormatDiagnostic(whole), "QC001 error: no rules");
}

TEST(DiagnosticTest, FirstErrorSkipsWarningsAndCarriesCode) {
  std::vector<Diagnostic> diags = {
      Diagnostic{DiagCode::kSingletonVariable, "w"},
      Diagnostic{DiagCode::kUnsafeRule, "bad rule"},
  };
  Status s = analysis::FirstError(diags);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("QC002"), std::string::npos);
  EXPECT_TRUE(analysis::FirstError({}).ok());
}

// The canonical hashes are cache keys: their values are pinned so a change
// in how they are computed (here: variables numbered by name, not by a
// digest of the name) cannot silently move every key. The 40-variable
// query takes the name table past its linear-scan range.
TEST(CanonicalHashTest, PinnedValues) {
  std::string wide = "Q(v0, v5) :- ";
  for (int i = 0; i < 40; ++i) {
    if (i > 0) wide += ", ";
    wide += "e(v" + std::to_string(i) + ", v" +
            std::to_string((i * 7 + 3) % 40) + ")";
  }
  wide += ".";
  const std::vector<std::pair<std::string, std::uint64_t>> queries = {
      {"Q(x, y) :- e(x, y).", 0xfe7a2f5bd36ca48fULL},
      {"Q(a, b) :- e(a, b).", 0xfe7a2f5bd36ca48fULL},
      {"Q(x, y) :- e(x, z), e(z, y).", 0xb7159ffefd1dc8d1ULL},
      {"Q(x, y) :- e(x, z), f(z, y).\nQ(x, y) :- g(y, x).",
       0x2f0c37e2127f02b3ULL},
      {"Q() :- e(x, x).", 0x4ee76fcbd77cefd4ULL},
      {"Q(x) :- r(x, 'c'), s('c', x, y).", 0x9d0af5ebc269acdaULL},
      {wide, 0x4250ee8c4a37b9f9ULL},
  };
  for (const auto& [text, hash] : queries) {
    auto ucq = ParseUcq(text);
    ASSERT_TRUE(ucq.ok()) << text;
    EXPECT_EQ(analysis::CanonicalQueryHash(*ucq), hash) << text;
  }
  const std::vector<std::pair<std::string, std::uint64_t>> programs = {
      {"t(x, y) :- e(x, y). t(x, y) :- e(x, z), t(z, y). goal t.",
       0xa917021b3b72ce02ULL},
      {"t(p, q) :- e(p, q). t(p, q) :- e(p, r), t(r, q). goal t.",
       0xa917021b3b72ce02ULL},
      {"buys(x, y) :- likes(x, y). buys(x, y) :- trendy(x), buys(z, y).",
       0x442a86b47bccdbbdULL},
      {"p(x) :- e(x, y), q(y). q(y) :- f(y). goal p.", 0x00cb3a6ee4d42b74ULL},
  };
  for (const auto& [text, hash] : programs) {
    auto program = ParseProgram(text);
    ASSERT_TRUE(program.ok()) << text;
    EXPECT_EQ(analysis::CanonicalProgramHash(*program), hash) << text;
  }
  const std::vector<std::pair<std::string, std::uint64_t>> databases = {
      {"e(a, b). e(b, c). f(c, a).", 0xb94a686ff5530304ULL},
      {"f(c, a). e(b, c). e(a, b). e(a, b).", 0xb94a686ff5530304ULL},
      {"likes('ann', 'beer'). trendy('ann').", 0x5ed130318db19151ULL},
      {"p(). q(x, y, z).", 0x84fc5452d653abbfULL},
  };
  for (const auto& [text, hash] : databases) {
    auto db = ParseDatabase(text);
    ASSERT_TRUE(db.ok()) << text;
    EXPECT_EQ(analysis::CanonicalDatabaseHash(*db), hash) << text;
  }
}

}  // namespace
}  // namespace qcont
