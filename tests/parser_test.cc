#include <gtest/gtest.h>

#include "parser/parser.h"

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

}  // namespace
}  // namespace qcont
