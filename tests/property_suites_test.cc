// Parameterized property sweeps across the substrates: regex/NFA semantics,
// known treewidth families, the paper's Section 3/4 query families, RPQ
// evaluation against brute-force path search, and Datalog fixpoints against
// expansion semantics.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "automata/nfa.h"
#include "bench/workloads.h"
#include "cq/containment.h"
#include "cq/homomorphism.h"
#include "datalog/eval.h"
#include "datalog/expansion.h"
#include "graphdb/rpq.h"
#include "parser/parser.h"
#include "structure/classify.h"
#include "structure/tree_decomposition.h"
#include "tests/generators.h"

namespace qcont {
namespace {

// --- Regex acceptance table --------------------------------------------

struct RegexCase {
  const char* pattern;
  const char* word;  // space-separated symbols; "" = empty word
  bool accept;
};

class RegexTable : public ::testing::TestWithParam<RegexCase> {};

std::vector<std::string> Split(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ' ') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

TEST_P(RegexTable, AcceptsWord) {
  const RegexCase& c = GetParam();
  auto nfa = ParseRegex(c.pattern);
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  EXPECT_EQ(nfa->AcceptsWord(Split(c.word)), c.accept)
      << c.pattern << " on \"" << c.word << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    Table, RegexTable,
    ::testing::Values(
        RegexCase{"a", "a", true}, RegexCase{"a", "", false},
        RegexCase{"a b c", "a b c", true}, RegexCase{"a b c", "a b", false},
        RegexCase{"a|b|c", "c", true}, RegexCase{"a|b|c", "d", false},
        RegexCase{"(a b)+", "a b a b", true},
        RegexCase{"(a b)+", "a b a", false},
        RegexCase{"a* b*", "", true}, RegexCase{"a* b*", "b a", false},
        RegexCase{"a? a? a?", "a a", true},
        RegexCase{"a? a?", "a a a", false},
        RegexCase{"(a|b)* a (a|b)", "b a a", true},
        RegexCase{"(a|b)* a (a|b)", "b b b", false},
        RegexCase{"a- (b-)*", "a- b- b-", true},
        RegexCase{"a- (b-)*", "a b-", false},
        RegexCase{"eps | a", "", true}, RegexCase{"eps | a", "a", true},
        RegexCase{"eps | a", "a a", false},
        RegexCase{"(a (b|eps))+", "a a b a", true}));

// --- Known treewidth families ------------------------------------------

struct TwCase {
  const char* name;
  int n;
  int expected;
};

class TreewidthFamilies : public ::testing::TestWithParam<TwCase> {};

UndirectedGraph MakeFamily(const std::string& name, int n) {
  if (name == "path") {
    UndirectedGraph g(n);
    for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
    return g;
  }
  if (name == "cycle") {
    UndirectedGraph g(n);
    for (int i = 0; i < n; ++i) g.AddEdge(i, (i + 1) % n);
    return g;
  }
  if (name == "star") {
    UndirectedGraph g(n);
    for (int i = 1; i < n; ++i) g.AddEdge(0, i);
    return g;
  }
  if (name == "clique") {
    UndirectedGraph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) g.AddEdge(i, j);
    }
    return g;
  }
  if (name == "wheel") {  // cycle of n-1 plus a hub
    UndirectedGraph g(n);
    for (int i = 1; i < n; ++i) {
      g.AddEdge(i, i % (n - 1) + 1);
      g.AddEdge(0, i);
    }
    return g;
  }
  // complete bipartite K_{2,n-2}
  UndirectedGraph g(n);
  for (int i = 2; i < n; ++i) {
    g.AddEdge(0, i);
    g.AddEdge(1, i);
  }
  return g;
}

TEST_P(TreewidthFamilies, ExactValue) {
  const TwCase& c = GetParam();
  UndirectedGraph g = MakeFamily(c.name, c.n);
  auto tw = TreewidthExact(g);
  ASSERT_TRUE(tw.ok());
  EXPECT_EQ(*tw, c.expected) << c.name << " n=" << c.n;
  // The min-fill decomposition is valid and at least as wide.
  TreeDecomposition td = DecompositionFromOrder(g, MinFillOrder(g));
  EXPECT_TRUE(td.Validate(g).ok());
  EXPECT_GE(td.Width(), *tw);
}

INSTANTIATE_TEST_SUITE_P(
    Families, TreewidthFamilies,
    ::testing::Values(TwCase{"path", 8, 1}, TwCase{"cycle", 4, 2},
                      TwCase{"cycle", 9, 2}, TwCase{"star", 9, 1},
                      TwCase{"clique", 4, 3}, TwCase{"clique", 6, 5},
                      TwCase{"wheel", 7, 3}, TwCase{"bipartite", 7, 2}));

// --- The paper's Section 3 families, parameterized by n -----------------

class CoveredCliqueFamily : public ::testing::TestWithParam<int> {};

TEST_P(CoveredCliqueFamily, AcyclicAc2UnboundedTreewidth) {
  const int n = GetParam();
  ConjunctiveQuery cq = bench::CoveredCliqueCq(n);
  auto c = ClassifyCq(cq);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->acyclic);
  EXPECT_EQ(c->max_shared_vars, 2);    // in AC2 for every n (Example 4)
  EXPECT_EQ(c->treewidth, n - 1);      // but treewidth grows with n
}

INSTANTIATE_TEST_SUITE_P(Sizes, CoveredCliqueFamily,
                         ::testing::Values(3, 4, 5, 6));

class ChainFamily : public ::testing::TestWithParam<int> {};

TEST_P(ChainFamily, Ac1AndTreewidthOne) {
  const int n = GetParam();
  ConjunctiveQuery cq = bench::ChainCq(n);
  auto c = ClassifyCq(cq);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->acyclic);
  // A single atom shares nothing; longer chains share exactly one variable
  // between consecutive atoms (AC1 either way).
  EXPECT_EQ(c->max_shared_vars, n == 1 ? 0 : 1);
  EXPECT_EQ(c->treewidth, 1);
  // Longer chains are contained in shorter ones (as Boolean queries).
  if (n > 1) {
    EXPECT_TRUE(*CqContained(bench::ChainCq(n), bench::ChainCq(n - 1)));
    EXPECT_FALSE(*CqContained(bench::ChainCq(n - 1), bench::ChainCq(n)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainFamily, ::testing::Values(1, 2, 3, 5, 8));

// --- RPQ evaluation vs brute-force path search ---------------------------

TEST(RpqProperty, MatchesBruteForcePathSearch) {
  std::mt19937 rng(424242);
  const std::vector<std::string> patterns = {
      "a",       "a b",   "a+",      "(a|b)*", "a- b",
      "a (b|a)", "b- a-", "a* b a-", "eps|a b"};
  for (int trial = 0; trial < 12; ++trial) {
    GraphDatabase g;
    const int nodes = 4;
    for (int i = 0; i < 7; ++i) {
      g.AddEdge(testgen::Numbered("n", rng() % nodes), rng() % 2 ? "a" : "b",
                testgen::Numbered("n", rng() % nodes));
    }
    for (const std::string& pattern : patterns) {
      auto nfa = ParseRegex(pattern);
      ASSERT_TRUE(nfa.ok());
      auto pairs = EvaluateRpq(*nfa, g);
      std::set<std::pair<std::string, std::string>> fast(pairs.begin(),
                                                         pairs.end());
      // Brute force: enumerate all completion paths up to length 6.
      std::set<std::pair<std::string, std::string>> slow;
      for (const std::string& src : g.Nodes()) {
        struct Item {
          std::string node;
          std::vector<std::string> word;
        };
        std::vector<Item> frontier = {{src, {}}};
        for (int len = 0; len <= 6; ++len) {
          std::vector<Item> next;
          for (const Item& item : frontier) {
            if (nfa->AcceptsWord(item.word)) slow.emplace(src, item.node);
            for (const char* label : {"a", "b", "a-", "b-"}) {
              for (const std::string& succ : g.Successors(item.node, label)) {
                Item extended = item;
                extended.node = succ;
                extended.word.push_back(label);
                next.push_back(std::move(extended));
              }
            }
          }
          frontier = std::move(next);
        }
      }
      // Paths longer than 6 can only add pairs to `fast`.
      for (const auto& p : slow) {
        EXPECT_TRUE(fast.count(p)) << pattern;
      }
      if (pattern == "a" || pattern == "a b" || pattern == "a- b") {
        // Bounded-length languages: exact agreement.
        EXPECT_EQ(fast, slow) << pattern;
      }
    }
  }
}

// --- Datalog fixpoint vs expansion semantics -----------------------------

TEST(DatalogSemanticsProperty, FixpointEqualsExpansionUnion) {
  // On a chain database of length L, TC's fixpoint must equal the union of
  // the evaluations of its expansions up to depth L (longer expansions
  // cannot match).
  const int kLength = 5;
  DatalogProgram tc = bench::TcProgram();
  Database db = bench::ChainDatabase(kLength);
  auto fixpoint = EvaluateGoal(tc, db);
  ASSERT_TRUE(fixpoint.ok());
  auto expansions = EnumerateExpansions(tc, kLength, 1000);
  ASSERT_TRUE(expansions.ok());
  std::set<Tuple> from_expansions;
  for (const ConjunctiveQuery& e : *expansions) {
    for (Tuple& t : EvaluateCq(e, db)) from_expansions.insert(std::move(t));
  }
  EXPECT_EQ(std::set<Tuple>(fixpoint->begin(), fixpoint->end()),
            from_expansions);
}

TEST(DatalogSemanticsProperty, RandomProgramsFixpointVsExpansions) {
  std::mt19937 rng(777);
  testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 10; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    Database db = testgen::RandomDatabase(&rng, schema, 2, 5);
    auto fixpoint = EvaluateGoal(program, db);
    ASSERT_TRUE(fixpoint.ok());
    // Expansion evaluations are sound: always a subset of the fixpoint.
    auto expansions = EnumerateExpansions(program, 3, 100);
    ASSERT_TRUE(expansions.ok());
    std::set<Tuple> fix(fixpoint->begin(), fixpoint->end());
    for (const ConjunctiveQuery& e : *expansions) {
      for (const Tuple& t : EvaluateCq(e, db)) {
        EXPECT_TRUE(fix.count(t)) << program.ToString() << e.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace qcont
