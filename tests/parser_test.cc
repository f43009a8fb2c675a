#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "parser/parser.h"
#include "tests/parser_oracle.h"

namespace qcont {
namespace {

TEST(ParserTest, ProgramWithGoalDirective) {
  auto p = ParseProgram(R"(
    # transitive closure
    t(x, y) :- e(x, y).
    t(x, y) :- e(x, z), t(z, y).
    goal t.
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->rules().size(), 2u);
  EXPECT_EQ(p->goal_predicate(), "t");
}

TEST(ParserTest, GoalDefaultsToFirstHead) {
  auto p = ParseProgram("p(x) :- e(x,y).");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->goal_predicate(), "p");
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto p = ParseProgram(
      "% leading comment\np(x) :- e(x,y). # trailing\n% another\ngoal p.");
  ASSERT_TRUE(p.ok());
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto p = ParseProgram("p(x) :- e(x,y)");  // missing period
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(p.status().message().find("'.'"), std::string::npos);
}

TEST(ParserTest, RejectsUnsafeProgram) {
  EXPECT_FALSE(ParseProgram("p(x,y) :- e(x,x). goal p.").ok());
}

TEST(ParserTest, UcqWithConstantsAndBoolean) {
  auto u = ParseUcq("Q() :- r(x, 'alice').");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->arity(), 0u);
  const Atom& atom = u->disjuncts().front().atoms().front();
  EXPECT_TRUE(atom.terms()[1].is_constant());
  EXPECT_EQ(atom.terms()[1].name(), "alice");
}

TEST(ParserTest, UcqRequiresConsistentHeads) {
  EXPECT_FALSE(ParseUcq("Q(x) :- e(x,y). R(x) :- e(x,y).").ok());
  EXPECT_FALSE(ParseUcq("Q(x) :- e(x,y). Q(x,y) :- e(x,y).").ok());
}

TEST(ParserTest, UC2rpqRegexAtoms) {
  auto g = ParseUC2rpq("Q(x,y) :- [a (b|c)* d-](x, y), [e+](y, z).");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const C2rpq& q = g->disjuncts().front();
  EXPECT_EQ(q.atoms().size(), 2u);
  EXPECT_EQ(q.atoms()[0].pattern, "a (b|c)* d-");
  EXPECT_TRUE(q.atoms()[0].nfa.AcceptsWord({"a", "b", "c", "d-"}));
}

TEST(ParserTest, UC2rpqRejectsRelationalAtoms) {
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- e(x,y).").ok());
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- [a](x,y,z).").ok());
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- [a](x,y").ok());
}

TEST(ParserTest, DatabaseFacts) {
  auto db = ParseDatabase("likes('ann','beer'). trendy('ann'). e(x, y).");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->HasFact("likes", {"ann", "beer"}));
  EXPECT_TRUE(db->HasFact("trendy", {"ann"}));
  EXPECT_TRUE(db->HasFact("e", {"x", "y"}));  // bare idents become values
  EXPECT_EQ(db->NumFacts(), 3u);
}

TEST(ParserTest, DatabaseRejectsRules) {
  EXPECT_FALSE(ParseDatabase("p(x) :- e(x,y).").ok());
}

TEST(ParserTest, DatabaseRejectsMixedArities) {
  auto db = ParseDatabase("e(a,b).\ne(a,b,c).");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = db.status().message();
  EXPECT_NE(msg.find("'e'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3 here, 2 before"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(ParserTest, RegexUnterminated) {
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- [a (x,y).").ok());
}

TEST(ParserTest, ConstantsRejectedInPrograms) {
  EXPECT_FALSE(ParseProgram("p(x) :- e(x,'c'). goal p.").ok());
}

// ---------------------------------------------------------------------------
// Differential tests against the string parser kept in tests/parser_oracle.h:
// seeded valid texts of every input kind, mutated towards every error the
// grammar and the entry points report, go through all seven entry points
// of both parsers.

constexpr const char* kPredicates[] = {"e", "f", "r7", "t", "Q", "p_1", "goal"};
constexpr const char* kVariables[] = {"x", "y", "z", "x1", "_v", "goal", "Q"};
constexpr const char* kConstants[] = {"c", "ann beer", "", "n0", "x"};
constexpr const char* kRegexes[] = {"a", "a (b|c)*", "d-", "e+", "a b-"};
constexpr const char* kBadRegexes[] = {"a [b]", "(a", "a||"};
constexpr const char* kSpaces[] = {" ",  "",  "\n", "  ", "\t",
                                   " # note\n", " % e(x).\n", "\r\n"};
// Inserted at a random place by Mutate: stray characters, unterminated
// constants and regexes, comments, goal directives, bodies, regex atoms
// and arities the text's kind does not allow.
constexpr const char* kFragments[] = {
    "!",          ";",           "{",           "@",          ":",
    "'",          "[",           "]",           ")",          "(",
    ",",          ".",           "-",           "'unclosed",  "[a (b",
    "# x(y).\n",  "% t(x) :-\n", "goal.",       "goal p",     "goal goal.",
    "goal(x).",   "goal p q.",   " goal t. ",   "goal e.\n",  "\n\n",
    " :- e(x, y)", ", [a](x, y)", ", e(x, y, z)", "e(a, b, c).", "t(x) :- e(x).",
    "Q(x, y) :- f(y, x).",       "e('a', 'b').", "Q() :- e(x, x)."};

class TextGen {
 public:
  explicit TextGen(std::uint32_t seed) : rng_(seed) {}

  int Below(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool OneIn(int n) { return Below(n) == 0; }
  template <std::size_t N>
  const char* Pick(const char* const (&options)[N]) {
    return options[Below(static_cast<int>(N))];
  }

  // A text of one of the four input kinds (0 program, 1 UCQ, 2 UC2RPQ,
  // 3 database), laid out with random spaces and comments. Most texts are
  // valid for their kind: rules are safe, every predicate keeps one arity
  // and a goal names a head.
  std::string Valid(int kind) {
    std::string out;
    const int rules = 1 + Below(kind == 3 ? 8 : 3);
    const int ucq_arity = Below(3);
    std::string goal;
    for (int r = 0; r < rules; ++r) {
      out += Pick(kSpaces);
      std::vector<std::string> vars;  // the body's variables
      std::string body;
      switch (kind) {
        case 0:
        case 1:
          body = Body(/*constants=*/kind == 1, &vars);
          break;
        case 2:
          for (int a = 0, n = 1 + Below(2); a < n; ++a) {
            if (a > 0) body.append(",").append(Pick(kSpaces));
            vars.push_back(Pick(kVariables));
            vars.push_back(Pick(kVariables));
            body.append("[")
                .append(OneIn(12) ? Pick(kBadRegexes) : Pick(kRegexes))
                .append("](");
            body.append(vars[vars.size() - 2]).append(", ").append(vars.back());
            body += ')';
          }
          break;
        default: {
          const int p = Below(3);
          out += Atom(kPredicates[p], HeadTerms(p, nullptr));
          out += '.';
          continue;
        }
      }
      const int p = kind == 0 ? Below(3) : -1;
      if (kind == 0) goal = kPredicates[p];
      const int arity = kind == 0 ? Arity(p) : kind == 1 ? ucq_arity : 2;
      std::vector<std::string> head;
      for (int i = 0; i < arity; ++i) {
        head.push_back(OneIn(8) ? Pick(kVariables) : vars[Below(vars.size())]);
      }
      out += Atom(kind == 0 ? goal : OneIn(12) ? "R" : "Q", head);
      out.append(Pick(kSpaces)).append(":-").append(Pick(kSpaces));
      out.append(body).append(".");
    }
    if (kind == 0 && OneIn(2)) out.append(" goal ").append(goal).append(".");
    if (kind == 3 && OneIn(4)) out += "goal e.";
    return out + Pick(kSpaces);
  }

  // `text` cut short, or with fragments inserted at random places.
  std::string Mutate(std::string text) {
    if (OneIn(5)) return text.substr(0, Below(static_cast<int>(text.size()) + 1));
    for (int m = 0, n = 1 + Below(2); m < n; ++m) {
      text.insert(Below(static_cast<int>(text.size()) + 1), Pick(kFragments));
    }
    return text;
  }

 private:
  // Every predicate has one arity, so valid texts stay consistent.
  static int Arity(int predicate) { return 1 + predicate % 2; }

  // Facts mostly hold constants, rule atoms mostly variables.
  std::vector<std::string> HeadTerms(int predicate, std::vector<std::string>* vars) {
    std::vector<std::string> terms;
    for (int i = 0; i < Arity(predicate); ++i) {
      const bool constant = vars == nullptr ? !OneIn(3) : OneIn(6);
      std::string term = constant ? std::string("'") : std::string();
      term += constant ? Pick(kConstants) : Pick(kVariables);
      if (constant) {
        term += '\'';
      } else if (vars != nullptr) {
        vars->push_back(term);
      }
      terms.push_back(std::move(term));
    }
    return terms;
  }
  std::string Atom(const std::string& predicate,
                   const std::vector<std::string>& terms) {
    std::string out = predicate;
    out += '(';
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) out.append(",").append(Pick(kSpaces));
      out += terms[i];
    }
    out += ')';
    return out;
  }
  std::string Body(bool constants, std::vector<std::string>* vars) {
    std::string out;
    for (int a = 0, n = 1 + Below(3); a < n; ++a) {
      if (a > 0) out.append(",").append(Pick(kSpaces));
      const int p = Below(static_cast<int>(std::size(kPredicates)));
      std::vector<std::string> terms = HeadTerms(p, vars);
      if (!constants) {
        for (std::string& t : terms) {
          if (t[0] == '\'') t = Pick(kVariables), vars->push_back(t);
        }
      }
      out += Atom(kPredicates[p], terms);
    }
    if (vars->empty()) vars->push_back("x");
    return out;
  }

  std::mt19937 rng_;
};

template <typename T>
std::string Rendered(const Result<T>& result) {
  return result.ok() ? "ok: " + result->ToString()
                     : "error: " + result.status().ToString();
}

// Runs `text` through one entry point of both parsers: the same status
// text, or the same object; and the same SourceLines, written or not.
// Returns whether the text parsed.
template <typename T>
bool ExpectSameParse(const std::string& text, const char* entry,
                     Result<T> (*parse)(const std::string&, SourceLines*),
                     Result<T> (*reference)(const std::string&, SourceLines*)) {
  SourceLines got{{-1}}, want{{-1}};
  const Result<T> a = parse(text, &got);
  const Result<T> b = reference(text, &want);
  EXPECT_EQ(Rendered(a), Rendered(b)) << entry << " on: " << text;
  EXPECT_EQ(got.rule_lines, want.rule_lines) << entry << " on: " << text;
  return b.ok();
}

// ParseDatabase into a fresh pool and into `shared`, against the string
// parser. Returns whether the text parsed.
bool ExpectSameDatabase(const std::string& text,
                        const std::shared_ptr<Interner>& shared) {
  const std::size_t names_before = shared->size();
  const Result<Database> fresh = ParseDatabase(text);
  const Result<Database> pooled = ParseDatabase(text, shared);
  const Result<Database> want = oracle::ParseDatabase(text);
  EXPECT_EQ(fresh.status().ToString(), want.status().ToString()) << text;
  EXPECT_EQ(pooled.status().ToString(), want.status().ToString()) << text;
  if (!want.ok()) {
    EXPECT_EQ(shared->size(), names_before) << "interned on error: " << text;
    return false;
  }
  if (!fresh.ok() || !pooled.ok()) return false;
  EXPECT_EQ(pooled->pool(), shared);
  EXPECT_EQ(fresh->ToString(), want->ToString()) << text;
  EXPECT_EQ(fresh->Relations(), want->Relations()) << text;
  for (const std::string& relation : want->Relations()) {
    EXPECT_EQ(fresh->Facts(relation), want->Facts(relation)) << text;
    EXPECT_EQ(pooled->Facts(relation), fresh->Facts(relation)) << text;
    EXPECT_EQ(pooled->NumRows(pooled->RelationIdOf(relation)),
              fresh->NumRows(fresh->RelationIdOf(relation)))
        << text;
  }
  EXPECT_EQ(pooled->ActiveDomain(), fresh->ActiveDomain()) << text;
  EXPECT_EQ(pooled->NumFacts(), want->NumFacts()) << text;
  // A fresh pool draws the ids the string parser's AddFact loop did.
  EXPECT_EQ(fresh->pool()->size(), want->pool()->size()) << text;
  for (SymbolId id = 0; id < want->pool()->size(); ++id) {
    EXPECT_EQ(fresh->pool()->NameOf(id), want->pool()->NameOf(id)) << text;
  }
  const std::uint64_t hash = analysis::CanonicalDatabaseHash(*want);
  EXPECT_EQ(analysis::CanonicalDatabaseHash(*fresh), hash) << text;
  EXPECT_EQ(analysis::CanonicalDatabaseHash(*pooled), hash) << text;
  return true;
}

TEST(ParserDifferentialTest, SeededTextsMatchTheStringParser) {
  TextGen gen(20260520);
  auto shared = std::make_shared<Interner>();
  // Per entry point: how many texts parsed, so neither outcome goes
  // untested.
  int ok[7] = {0, 0, 0, 0, 0, 0, 0};
  constexpr int kTexts = 3000;
  for (int i = 0; i < kTexts; ++i) {
    const int kind = i % 4;
    std::string text = gen.Valid(kind);
    if (gen.OneIn(2)) text = gen.Mutate(std::move(text));
    ok[0] += ExpectSameParse(text, "ParseProgram", &ParseProgram,
                             &oracle::ParseProgram);
    ok[1] += ExpectSameParse(text, "ParseProgramUnvalidated",
                             &ParseProgramUnvalidated,
                             &oracle::ParseProgramUnvalidated);
    ok[2] += ExpectSameParse(text, "ParseUcq", &ParseUcq, &oracle::ParseUcq);
    ok[3] += ExpectSameParse(text, "ParseUcqUnvalidated", &ParseUcqUnvalidated,
                             &oracle::ParseUcqUnvalidated);
    ok[4] += ExpectSameParse(text, "ParseUC2rpq", &ParseUC2rpq,
                             &oracle::ParseUC2rpq);
    ok[5] += ExpectSameParse(text, "ParseUC2rpqUnvalidated",
                             &ParseUC2rpqUnvalidated,
                             &oracle::ParseUC2rpqUnvalidated);
    ok[6] += ExpectSameDatabase(text, shared);
    if (HasFailure()) break;
  }
  for (int count : ok) {
    EXPECT_GT(count, kTexts / 20);
    EXPECT_LT(count, kTexts - kTexts / 20);
  }
}

TEST(ParserDifferentialTest, ErrorPrecedenceMatchesTheStringParser) {
  // A lexing error anywhere wins over an earlier syntax error, a syntax
  // error over an earlier semantic one, and the first semantic error in
  // rule order wins over later ones.
  const std::vector<std::string> texts = {
      "p(x :- e(x). q(y) :- 'unterminated",
      "p(x) :- [a](x, y). q(x :- e(x).",
      "Q(x) :- e(x). R(x) :- [a](x, y). S(x) :- e(x)",
      "Q(x) :- [a](x, y). R(x) :- e(x).",
      "Q(x,y) :- e(x, y). Q(x,y) :- [a](x,y,z). Q(x,y) :- [(a](x,y).",
      "Q(x,y) :- [(a](x,y). Q(x,y) :- e(x,y).",
      "e(a). e(a, b) :- f(a). e(a, b, c).",
      "e(a). e(a, b). f(c) :- e(c).",
      "e(a). goal e. e(b). goal",
      "Q(x) :- e(x). goal.",
      "",
      "  # only a comment",
      "goal t.",
  };
  auto shared = std::make_shared<Interner>();
  for (const std::string& text : texts) {
    ExpectSameParse(text, "ParseProgram", &ParseProgram, &oracle::ParseProgram);
    ExpectSameParse(text, "ParseProgramUnvalidated", &ParseProgramUnvalidated,
                    &oracle::ParseProgramUnvalidated);
    ExpectSameParse(text, "ParseUcq", &ParseUcq, &oracle::ParseUcq);
    ExpectSameParse(text, "ParseUcqUnvalidated", &ParseUcqUnvalidated,
                    &oracle::ParseUcqUnvalidated);
    ExpectSameParse(text, "ParseUC2rpq", &ParseUC2rpq, &oracle::ParseUC2rpq);
    ExpectSameParse(text, "ParseUC2rpqUnvalidated", &ParseUC2rpqUnvalidated,
                    &oracle::ParseUC2rpqUnvalidated);
    ExpectSameDatabase(text, shared);
  }
}

TEST(ParserDifferentialTest, ConcurrentParsesIntoOnePool) {
  TextGen gen(7);
  std::vector<std::string> texts;
  std::set<std::string> names;
  while (texts.size() < 16) {
    std::string text = gen.Valid(3);
    const Result<Database> db = oracle::ParseDatabase(text);
    if (!db.ok()) continue;
    for (SymbolId id = 0; id < db->pool()->size(); ++id) {
      names.insert(db->pool()->NameOf(id));
    }
    texts.push_back(std::move(text));
  }
  auto pool = std::make_shared<Interner>();
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  // parsed[t][i]: thread t's last parse of texts[i].
  std::vector<std::vector<std::optional<Database>>> parsed(
      kThreads, std::vector<std::optional<Database>>(texts.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < texts.size(); ++k) {
          const std::size_t i = (k + t) % texts.size();  // staggered
          Result<Database> db = ParseDatabase(texts[i], pool);
          if (db.ok()) parsed[t][i] = std::move(*db);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(pool->size(), names.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const Result<Database> want = oracle::ParseDatabase(texts[i]);
    ASSERT_TRUE(want.ok());
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(parsed[t][i].has_value()) << texts[i];
      const Database& db = *parsed[t][i];
      EXPECT_EQ(db.ToString(), want->ToString()) << texts[i];
      EXPECT_EQ(analysis::CanonicalDatabaseHash(db),
                analysis::CanonicalDatabaseHash(*want))
          << texts[i];
    }
  }
}

}  // namespace
}  // namespace qcont
