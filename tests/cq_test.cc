#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/database.h"
#include "cq/homomorphism.h"
#include "cq/query.h"
#include "tests/generators.h"

namespace qcont {
namespace {

ConjunctiveQuery PathQuery(int n) {
  // (x0,xn) <- E(x0,x1), ..., E(x{n-1},xn)
  std::vector<Atom> atoms;
  for (int i = 0; i < n; ++i) {
    atoms.emplace_back("E", std::vector<Term>{
                                Term::Variable(testgen::Numbered("x", i)),
                                Term::Variable(testgen::Numbered("x", i + 1))});
  }
  return ConjunctiveQuery(
      {Term::Variable("x0"), Term::Variable(testgen::Numbered("x", n))},
      std::move(atoms));
}

TEST(TermTest, KindsAndEquality) {
  Term x = Term::Variable("x");
  Term c = Term::Constant("x");
  EXPECT_TRUE(x.is_variable());
  EXPECT_TRUE(c.is_constant());
  EXPECT_NE(x, c);
  EXPECT_EQ(x, Term::Variable("x"));
  EXPECT_EQ(x.ToString(), "x");
  EXPECT_EQ(c.ToString(), "'x'");
}

TEST(AtomTest, VariablesAreDeduplicated) {
  Atom a("R", {Term::Variable("x"), Term::Variable("y"), Term::Variable("x"),
               Term::Constant("c")});
  std::vector<Term> vars = a.Variables();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0].name(), "x");
  EXPECT_EQ(vars[1].name(), "y");
  EXPECT_EQ(a.ToString(), "R(x,y,x,'c')");
}

TEST(QueryTest, ValidateAcceptsSafeQuery) {
  ConjunctiveQuery cq = PathQuery(3);
  EXPECT_TRUE(cq.Validate().ok());
  EXPECT_EQ(cq.arity(), 2u);
  EXPECT_EQ(cq.Variables().size(), 4u);
  EXPECT_EQ(cq.ExistentialVariables().size(), 2u);
}

TEST(QueryTest, ValidateRejectsUnsafeHead) {
  ConjunctiveQuery cq({Term::Variable("z")},
                      {Atom("R", {Term::Variable("x")})});
  Status status = cq.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, ValidateRejectsConstantHead) {
  ConjunctiveQuery cq({Term::Constant("c")},
                      {Atom("R", {Term::Variable("x")})});
  EXPECT_FALSE(cq.Validate().ok());
}

TEST(QueryTest, ValidateRejectsInconsistentArity) {
  ConjunctiveQuery cq({}, {Atom("R", {Term::Variable("x")}),
                           Atom("R", {Term::Variable("x"),
                                      Term::Variable("y")})});
  EXPECT_FALSE(cq.Validate().ok());
}

TEST(QueryTest, BooleanQuery) {
  ConjunctiveQuery cq({}, {Atom("R", {Term::Variable("x")})});
  EXPECT_TRUE(cq.Validate().ok());
  EXPECT_TRUE(cq.IsBoolean());
}

TEST(UnionQueryTest, ValidateChecksArities) {
  UnionQuery bad({PathQuery(2),
                  ConjunctiveQuery({Term::Variable("x")},
                                   {Atom("E", {Term::Variable("x"),
                                               Term::Variable("y")})})});
  EXPECT_FALSE(bad.Validate().ok());
  UnionQuery good({PathQuery(1), PathQuery(2)});
  EXPECT_TRUE(good.Validate().ok());
}

TEST(DatabaseTest, AddAndLookup) {
  Database db;
  EXPECT_TRUE(db.AddFact("R", {"a", "b"}));
  EXPECT_FALSE(db.AddFact("R", {"a", "b"}));  // duplicate
  EXPECT_TRUE(db.AddFact("R", {"b", "c"}));
  EXPECT_TRUE(db.HasFact("R", {"a", "b"}));
  EXPECT_FALSE(db.HasFact("R", {"b", "a"}));
  EXPECT_EQ(db.NumFacts(), 2u);
  EXPECT_EQ(db.Facts("R").size(), 2u);
  EXPECT_TRUE(db.Facts("S").empty());
  EXPECT_EQ(db.ActiveDomain().size(), 3u);
}

TEST(DatabaseTest, AccessorsDoNotRebuildOnDuplicateAddFact) {
  Database db;
  db.AddFact("R", {"a", "b"});
  db.AddFact("S", {"c"});
  const std::vector<std::string>& relations = db.Relations();
  const std::vector<Value>& domain = db.ActiveDomain();
  const std::string* relations_data = relations.data();
  const Value* domain_data = domain.data();
  EXPECT_EQ(relations, (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(domain, (std::vector<Value>{"a", "b", "c"}));

  // A duplicate fact and a new fact of a known relation with known values
  // must not invalidate either cached vector (no rebuild, no realloc).
  EXPECT_FALSE(db.AddFact("R", {"a", "b"}));
  EXPECT_TRUE(db.AddFact("R", {"b", "a"}));
  EXPECT_EQ(db.Relations().data(), relations_data);
  EXPECT_EQ(db.ActiveDomain().data(), domain_data);
  EXPECT_EQ(db.Relations(), (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(db.ActiveDomain(), (std::vector<Value>{"a", "b", "c"}));
}

TEST(DatabaseTest, ProbeFindsRowsByBoundPositions) {
  Database db;
  db.AddFact("E", {"1", "2"});
  db.AddFact("E", {"1", "3"});
  db.AddFact("E", {"2", "3"});
  ValueId one = db.ValueIdOf("1");
  ASSERT_NE(one, kNoValue);
  // Mask 0b01: rows whose first position is "1".
  const auto& bucket = db.Probe("E", 1u, {one});
  EXPECT_EQ(bucket.size(), 2u);
  // Indexes catch up incrementally after AddFact.
  db.AddFact("E", {"1", "4"});
  EXPECT_EQ(db.Probe("E", 1u, {one}).size(), 3u);
  EXPECT_TRUE(db.Probe("E", 1u, {db.ValueIdOf("4")}).empty());
  EXPECT_EQ(db.ValueIdOf("never-seen"), kNoValue);
  EXPECT_GE(db.index_stats().probes, 3u);
  EXPECT_GE(db.index_stats().indexes_built, 1u);
}

TEST(DatabaseTest, RowLevelApiAgreesWithStringApi) {
  Database db;
  db.AddFact("E", {"a", "b"});
  db.AddFact("E", {"b", "c"});
  const RelationId rel = db.RelationIdOf("E");
  ASSERT_NE(rel, kNoRelation);
  EXPECT_EQ(db.NumRows(rel), 2u);
  EXPECT_EQ(db.Arity(rel), 2u);
  const ValueId a = db.ValueIdOf("a"), b = db.ValueIdOf("b"),
                c = db.ValueIdOf("c");
  // Row slices mirror the insertion order of the string tuples.
  EXPECT_EQ(db.Row(rel, 0)[0], a);
  EXPECT_EQ(db.Row(rel, 0)[1], b);
  EXPECT_EQ(db.Row(rel, 1)[0], b);
  EXPECT_TRUE(db.HasRow(rel, std::vector<ValueId>{a, b}));
  EXPECT_FALSE(db.HasRow(rel, std::vector<ValueId>{b, a}));
  EXPECT_FALSE(db.HasRow(rel, std::vector<ValueId>{a, kNoValue}));
  EXPECT_FALSE(db.HasRow(kNoRelation, std::vector<ValueId>{a, b}));
  // AddRow dedups against AddFact and keeps the string view consistent.
  EXPECT_FALSE(db.AddRow(rel, std::vector<ValueId>{a, b}));
  EXPECT_TRUE(db.AddRow(rel, std::vector<ValueId>{c, a}));
  EXPECT_TRUE(db.HasFact("E", {"c", "a"}));
  EXPECT_EQ(db.Facts("E").size(), 3u);
  EXPECT_EQ(db.NumFacts(), 3u);
  // The arena is the contiguous arity-strided row store.
  std::span<const ValueId> arena = db.Arena(rel);
  ASSERT_EQ(arena.size(), 6u);
  EXPECT_EQ(arena[4], c);
  EXPECT_EQ(arena.data() + 2, db.Row(rel, 1).data());
  EXPECT_EQ(db.RelationIds(), (std::vector<RelationId>{rel}));
}

TEST(DatabaseTest, ProbeManyMatchesProbe) {
  Database db;
  for (int i = 0; i < 40; ++i) {
    db.AddFact("T", {std::to_string(i % 7), std::to_string(i % 5),
                     std::to_string(i)});
  }
  const RelationId rel = db.RelationIdOf("T");
  for (std::uint32_t mask : {1u, 3u, 5u, 7u}) {
    const int width = __builtin_popcount(mask);
    std::vector<ValueId> keys;
    std::vector<std::vector<std::uint32_t>> expected;
    for (int i = 0; i < 12; ++i) {
      std::vector<ValueId> key;
      for (int j = 0; j < width; ++j) {
        key.push_back(db.ValueIdOf(std::to_string((i * 3 + j) % 9)));
      }
      auto bucket = db.Probe(rel, mask, std::span<const ValueId>(key));
      expected.emplace_back(bucket.begin(), bucket.end());
      keys.insert(keys.end(), key.begin(), key.end());
    }
    std::vector<std::span<const std::uint32_t>> out(12);
    db.ProbeMany(rel, mask, keys, out);
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(std::vector<std::uint32_t>(out[i].begin(), out[i].end()),
                expected[i])
          << "mask " << mask << " key " << i;
    }
  }
}

TEST(DatabaseTest, FlatProbeTableResizesAndCountsCollisions) {
  Database db;
  // Enough distinct keys to push the mask-1 probe table through several
  // capacity doublings (load kept under 3/4).
  for (int i = 0; i < 300; ++i) {
    db.AddFact("R", {testgen::Numbered("k", i), testgen::Numbered("v", i % 3)});
  }
  const RelationId rel = db.RelationIdOf("R");
  for (int i = 0; i < 300; ++i) {
    const ValueId key = db.ValueIdOf(testgen::Numbered("k", i));
    EXPECT_EQ(db.Probe(rel, 1u, std::span<const ValueId>(&key, 1)).size(), 1u);
  }
  const DatabaseIndexStats stats = db.index_stats();
  EXPECT_EQ(stats.probes, 300u);
  // The primary (full-row) table and the mask-1 table both grew past the
  // initial 16 slots.
  EXPECT_GT(stats.probe_resizes, 0u);
}

TEST(DatabaseTest, FlatServesFullMaskProbesFromPrimaryTable) {
  Database db;
  db.AddFact("E", {"a", "b"});
  db.AddFact("E", {"b", "c"});
  const RelationId rel = db.RelationIdOf("E");
  const std::uint64_t before = db.index_stats().indexes_built;
  std::vector<ValueId> key = {db.ValueIdOf("a"), db.ValueIdOf("b")};
  auto bucket = db.Probe(rel, 3u, std::span<const ValueId>(key));
  ASSERT_EQ(bucket.size(), 1u);
  EXPECT_EQ(bucket[0], 0u);
  // Full-mask probes ride the eagerly maintained dedup table: no lazy
  // index build.
  EXPECT_EQ(db.index_stats().indexes_built, before);
}

TEST(DatabaseTest, SharedPoolGivesComparableIds) {
  Database a;
  Database b(a.pool());
  a.AddFact("R", {"v"});
  b.AddFact("R", {"v"});
  EXPECT_EQ(a.ValueIdOf("v"), b.ValueIdOf("v"));
  EXPECT_EQ(a.ValueName(a.ValueIdOf("v")), "v");
}

TEST(DatabaseTest, UnionWith) {
  Database a, b;
  a.AddFact("R", {"x"});
  b.AddFact("R", {"x"});
  b.AddFact("S", {"y"});
  a.UnionWith(b);
  EXPECT_EQ(a.NumFacts(), 2u);
}

TEST(CanonicalDatabaseTest, FreezesVariables) {
  ConjunctiveQuery cq = PathQuery(2);
  Database db = CanonicalDatabase(cq);
  EXPECT_TRUE(db.HasFact("E", {"x0", "x1"}));
  EXPECT_TRUE(db.HasFact("E", {"x1", "x2"}));
  EXPECT_EQ(db.NumFacts(), 2u);
  EXPECT_EQ(CanonicalHead(cq), (Tuple{"x0", "x2"}));
}

TEST(HomomorphismTest, FindsPathMatch) {
  Database db;
  db.AddFact("E", {"1", "2"});
  db.AddFact("E", {"2", "3"});
  ConjunctiveQuery cq = PathQuery(2);
  auto h = FindHomomorphism(cq, db);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->at("x0"), "1");
  EXPECT_EQ(h->at("x2"), "3");
}

TEST(HomomorphismTest, RespectsFixedAssignment) {
  Database db;
  db.AddFact("E", {"1", "2"});
  db.AddFact("E", {"2", "3"});
  ConjunctiveQuery cq = PathQuery(1);
  Assignment fixed = {{"x0", "2"}};
  auto h = FindHomomorphism(cq, db, fixed);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->at("x1"), "3");
  fixed = {{"x0", "3"}};
  EXPECT_FALSE(FindHomomorphism(cq, db, fixed).has_value());
}

TEST(HomomorphismTest, ConstantsMustMatch) {
  Database db;
  db.AddFact("R", {"c", "1"});
  ConjunctiveQuery cq({}, {Atom("R", {Term::Constant("c"),
                                      Term::Variable("x")})});
  EXPECT_TRUE(FindHomomorphism(cq, db).has_value());
  ConjunctiveQuery cq2({}, {Atom("R", {Term::Constant("d"),
                                       Term::Variable("x")})});
  EXPECT_FALSE(FindHomomorphism(cq2, db).has_value());
}

TEST(EvaluateCqTest, PathEndpoints) {
  Database db;
  db.AddFact("E", {"1", "2"});
  db.AddFact("E", {"2", "3"});
  db.AddFact("E", {"3", "4"});
  std::vector<Tuple> result = EvaluateCq(PathQuery(2), db);
  EXPECT_EQ(result, (std::vector<Tuple>{{"1", "3"}, {"2", "4"}}));
}

TEST(EvaluateCqTest, BooleanQueryYieldsEmptyTuple) {
  Database db;
  db.AddFact("R", {"a"});
  ConjunctiveQuery cq({}, {Atom("R", {Term::Variable("x")})});
  EXPECT_EQ(EvaluateCq(cq, db), (std::vector<Tuple>{{}}));
  Database empty;
  EXPECT_TRUE(EvaluateCq(cq, empty).empty());
}

TEST(EvaluateUcqTest, UnionsResults) {
  Database db;
  db.AddFact("E", {"1", "2"});
  db.AddFact("E", {"2", "3"});
  UnionQuery ucq({PathQuery(1), PathQuery(2)});
  std::vector<Tuple> result = EvaluateUcq(ucq, db);
  EXPECT_EQ(result, (std::vector<Tuple>{{"1", "2"}, {"1", "3"}, {"2", "3"}}));
}

TEST(HomomorphismTest, RepeatedVariableInAtom) {
  Database db;
  db.AddFact("E", {"1", "1"});
  db.AddFact("E", {"1", "2"});
  ConjunctiveQuery loop({}, {Atom("E", {Term::Variable("x"),
                                        Term::Variable("x")})});
  auto h = FindHomomorphism(loop, db);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->at("x"), "1");
}

}  // namespace
}  // namespace qcont
