// Differential tests of the small-CQ kernel (cq/small_cq.h) behind CoreOf,
// IsCore, MinimizeUnionQuery and the containment API, against the
// references in tests/cq_oracle.h and tests/hom_oracle.h. Inputs are
// constant-free: the oracles freeze variables and constants by bare name.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cq/containment.h"
#include "cq/core.h"
#include "cq/homomorphism.h"
#include "cq/small_cq.h"
#include "parser/parser.h"
#include "tests/cq_oracle.h"
#include "tests/generators.h"

// Counts global operator new calls, so a test can check that a code path
// does not allocate. (GCC flags free() on memory from a replaced operator
// new once the two are inlined together; the pairing is the replacement's.)
std::atomic<long> g_allocations{0};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qcont {
namespace {

using testgen::Numbered;

Term V(const std::string& name) { return Term::Variable(name); }

// θ ⊆ θ' (CQs of equal arity) on the kernel.
bool SmallCqContained(const ConjunctiveQuery& theta,
                      const ConjunctiveQuery& theta_prime) {
  const ConjunctiveQuery* const pair[2] = {&theta, &theta_prime};
  SmallUcq small;
  EXPECT_TRUE(small.Compile(pair, 2).ok());
  return small.Contained(0, 1);
}

// A random constant-free CQ: 1–`max_atoms` atoms over relations of arity
// 0–3, variables from a pool of 1–6, and a head of 0–3 body variables
// drawn with replacement (so heads repeat variables and may be Boolean).
// Small pools make duplicate atoms and folds common.
ConjunctiveQuery RandomCq(std::mt19937* rng, int max_atoms) {
  static const std::pair<const char*, int> kRelations[] = {
      {"e", 2}, {"f", 2}, {"u", 1}, {"t", 3}, {"z", 0}};
  const int num_atoms = 1 + static_cast<int>((*rng)() % max_atoms);
  const int pool = 1 + static_cast<int>((*rng)() % 6);
  std::vector<Atom> atoms;
  std::vector<std::string> body_vars;
  for (int i = 0; i < num_atoms; ++i) {
    // Arity-0 atoms are rarer than the others.
    const auto& [name, arity] = kRelations[(*rng)() % 9 % 5];
    std::vector<Term> terms;
    for (int p = 0; p < arity; ++p) {
      std::string var = Numbered("x", (*rng)() % pool);
      body_vars.push_back(var);
      terms.push_back(V(var));
    }
    atoms.emplace_back(name, std::move(terms));
  }
  std::vector<Term> head;
  if (!body_vars.empty()) {
    const int arity = static_cast<int>((*rng)() % 4);
    for (int j = 0; j < arity; ++j) {
      head.push_back(V(body_vars[(*rng)() % body_vars.size()]));
    }
  }
  return ConjunctiveQuery(std::move(head), std::move(atoms));
}

// True iff `a` and `b` are isomorphic: an injective homomorphism from `a`
// onto the frozen atoms of `b`, head onto head, with as many variables and
// distinct atoms on both sides.
bool Isomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  if (a.head().size() != b.head().size() ||
      a.Variables().size() != b.Variables().size()) {
    return false;
  }
  Database frozen = CanonicalDatabase(b);
  if (CanonicalDatabase(a).NumFacts() != frozen.NumFacts()) return false;
  Assignment fixed;
  for (std::size_t j = 0; j < a.head().size(); ++j) {
    auto [it, inserted] =
        fixed.emplace(a.head()[j].name(), b.head()[j].name());
    if (!inserted && it->second != b.head()[j].name()) return false;
  }
  bool found = false;
  EnumerateHomomorphisms(a, frozen, fixed, [&](const Assignment& h) {
    std::set<std::string> image;
    for (const auto& [var, value] : h) image.insert(value);
    found = image.size() == h.size();
    return !found;
  });
  return found;
}

TEST(SmallCqDifferential, CoresAndSubsumptionAgreeWithTheOracle) {
  std::mt19937 rng(2024);
  int folded = 0, identical = 0, contained = 0;
  std::vector<ConjunctiveQuery> previous;
  for (int trial = 0; trial < 2400; ++trial) {
    ConjunctiveQuery cq = RandomCq(&rng, 7);
    ASSERT_TRUE(cq.Validate().ok()) << cq.ToString();
    auto core = CoreOf(cq);
    auto expected = oracle::CoreOf(cq);
    ASSERT_TRUE(core.ok() && expected.ok());
    EXPECT_TRUE(Isomorphic(*core, *expected))
        << cq.ToString() << "\n kernel " << core->ToString() << "\n oracle "
        << expected->ToString();
    identical += core->ToString() == expected->ToString();
    EXPECT_TRUE(*oracle::CqContained(cq, *core) &&
                *oracle::CqContained(*core, cq))
        << cq.ToString() << " vs core " << core->ToString();
    EXPECT_EQ(*IsCore(cq), *oracle::IsCore(cq)) << cq.ToString();
    EXPECT_TRUE(*oracle::IsCore(*core)) << core->ToString();
    folded += !*IsCore(cq);
    // Subsumption against an earlier query of the same arity.
    for (const ConjunctiveQuery& other : previous) {
      if (other.arity() != cq.arity()) continue;
      using Pair = std::pair<const ConjunctiveQuery*, const ConjunctiveQuery*>;
      for (const auto& [theta, theta_prime] :
           {Pair(&cq, &other), Pair(&other, &cq)}) {
        const bool verdict = SmallCqContained(*theta, *theta_prime);
        auto reference = oracle::CqContained(*theta, *theta_prime);
        ASSERT_TRUE(reference.ok());
        EXPECT_EQ(verdict, *reference)
            << theta->ToString() << " ⊆ " << theta_prime->ToString();
        contained += verdict;
      }
      break;
    }
    previous.insert(previous.begin(), cq);
    if (previous.size() > 4) previous.pop_back();
  }
  // The generator exercises both outcomes of every check.
  EXPECT_GT(folded, 250);
  EXPECT_GT(contained, 100);
  // The kernel mirrors the indexed search's choices, so the cores are not
  // only isomorphic but the same atoms in the same order.
  EXPECT_EQ(identical, 2400);
}

TEST(SmallCqDifferential, MinimizeUnionQueryAgreesWithTheServersOldPrepass) {
  std::mt19937 rng(7);
  int unchanged = 0, dropped = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 3);
    std::vector<ConjunctiveQuery> disjuncts;
    ConjunctiveQuery first = RandomCq(&rng, 4);
    const std::size_t arity = first.arity();
    disjuncts.push_back(first);
    while (static_cast<int>(disjuncts.size()) < n) {
      ConjunctiveQuery next = RandomCq(&rng, 4);
      if (next.arity() == arity) disjuncts.push_back(next);
    }
    UnionQuery ucq(std::move(disjuncts));
    auto minimized = MinimizeUnionQuery(ucq);
    auto expected = oracle::MinimizeUcq(ucq);
    ASSERT_TRUE(minimized.ok() && expected.ok());
    if (!minimized->has_value()) {
      ++unchanged;
      EXPECT_EQ(expected->ToString(), ucq.ToString());
      continue;
    }
    dropped += (*minimized)->disjuncts().size() < ucq.disjuncts().size();
    EXPECT_EQ((*minimized)->ToString(), expected->ToString())
        << ucq.ToString();
    EXPECT_NE((*minimized)->ToString(), ucq.ToString());
  }
  EXPECT_GT(unchanged, 200);
  EXPECT_GT(dropped, 200);
}

// The kernel's counters follow the indexed searcher's accounting: on
// constant-free pairs whose θ' has no duplicate atoms, CqContained reports
// what FindHomomorphism(θ', D_θ) reports with θ's frozen head pinned.
TEST(SmallCqKernel, ContainmentCountersMatchTheIndexedSearch) {
  std::mt19937 rng(1404);
  int compared = 0, contained = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    ConjunctiveQuery theta = RandomCq(&rng, 7);
    ConjunctiveQuery theta_prime = RandomCq(&rng, 5);
    if (theta.arity() != theta_prime.arity()) continue;
    std::set<std::string> distinct;
    for (const Atom& a : theta_prime.atoms()) distinct.insert(a.ToString());
    if (distinct.size() != theta_prime.atoms().size()) continue;
    HomSearchStats kernel;
    auto verdict = CqContained(theta, theta_prime, &kernel);
    ASSERT_TRUE(verdict.ok());
    const Tuple head = CanonicalHead(theta);
    Assignment fixed;
    bool consistent = true;
    for (std::size_t j = 0; j < head.size(); ++j) {
      auto [it, added] = fixed.emplace(theta_prime.head()[j].name(), head[j]);
      consistent = consistent && (added || it->second == head[j]);
    }
    HomSearchStats indexed;
    const bool found =
        consistent && FindHomomorphism(theta_prime, CanonicalDatabase(theta),
                                       fixed, &indexed)
                          .has_value();
    const std::string pair = theta.ToString() + " ⊆ " + theta_prime.ToString();
    EXPECT_EQ(*verdict, found) << pair;
    EXPECT_EQ(kernel.atom_attempts, indexed.atom_attempts) << pair;
    EXPECT_EQ(kernel.backtracks, indexed.backtracks) << pair;
    EXPECT_EQ(kernel.index_probes, indexed.index_probes) << pair;
    EXPECT_EQ(kernel.index_candidates, indexed.index_candidates) << pair;
    EXPECT_EQ(kernel.scan_candidates, indexed.scan_candidates) << pair;
    ++compared;
    contained += found;
  }
  EXPECT_GT(compared, 500);
  EXPECT_GT(contained, 100);
}

TEST(SmallCqKernel, AlreadyMinimalUnionAllocatesNothing) {
  // A contain_cold-shaped Θ: two incomparable cores, nothing folds.
  auto ucq = ParseUcq(
      "Q(x) :- r0(x,y), r1(y,z), r2(z,x). Q(x) :- r3(x,y), r3(y,w).");
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  const long before = g_allocations.load();
  auto minimized = MinimizeUnionQuery(*ucq);
  const long allocations = g_allocations.load() - before;
  ASSERT_TRUE(minimized.ok());
  EXPECT_FALSE(minimized->has_value());
  EXPECT_EQ(allocations, 0);
}

TEST(SmallCqKernel, RepeatedHeadVariablesPinTogether) {
  // Q(x,x) :- e(x,y), e(x,z): y, the first existential, folds onto z.
  ConjunctiveQuery cq({V("x"), V("x")}, {Atom("e", {V("x"), V("y")}),
                                         Atom("e", {V("x"), V("z")})});
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->ToString(), "(x,x) <- e(x,z)");
  EXPECT_EQ(core->ToString(), oracle::CoreOf(cq)->ToString());
  // Q(x,y) :- e(x,y) is not contained in Q(x,x) :- e(x,x), and vice versa
  // the loop is contained in the edge.
  ConjunctiveQuery edge({V("x"), V("y")}, {Atom("e", {V("x"), V("y")})});
  ConjunctiveQuery loop({V("x"), V("x")}, {Atom("e", {V("x"), V("x")})});
  EXPECT_FALSE(SmallCqContained(edge, loop));
  EXPECT_TRUE(SmallCqContained(loop, edge));
}

TEST(SmallCqKernel, BooleanAndArityZeroAtoms) {
  // Q() :- z(), z(), e(a,b), e(c,d): the duplicate and one edge go.
  ConjunctiveQuery cq({}, {Atom("z", {}), Atom("z", {}),
                           Atom("e", {V("a"), V("b")}),
                           Atom("e", {V("c"), V("d")})});
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->ToString(), "() <- z(), e(c,d)");
  EXPECT_TRUE(Isomorphic(*core, *oracle::CoreOf(cq)));
  // z() alone is not contained in z(), e(a,b); the converse holds.
  ConjunctiveQuery z({}, {Atom("z", {})});
  EXPECT_FALSE(SmallCqContained(z, *core));
  EXPECT_TRUE(SmallCqContained(*core, z));
}

TEST(SmallCqKernel, DuplicateAtomsAloneDoNotMakeANonCore) {
  ConjunctiveQuery cq({V("x")}, {Atom("e", {V("x"), V("y")}),
                                 Atom("e", {V("x"), V("y")})});
  EXPECT_TRUE(*IsCore(cq));
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 1u);
  auto minimized = MinimizeUnionQuery(UnionQuery({cq}));
  ASSERT_TRUE(minimized.ok() && minimized->has_value());
  EXPECT_EQ((*minimized)->ToString(), "(x) <- e(x,y)");
}

TEST(SmallCqKernel, MultiStepFoldRestartsAfterEachFold) {
  // A 4-cycle with a pendant path onto a self-loop: several folds.
  auto ucq = ParseUcq(
      "Q(x) :- e(x,a), e(a,b), e(b,c), e(c,a), e(x,s), e(s,s), e(x,t), "
      "e(t,w).");
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  const ConjunctiveQuery& cq = ucq->disjuncts().front();
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->ToString(), oracle::CoreOf(cq)->ToString());
  EXPECT_EQ(core->ToString(), "(x) <- e(x,s), e(s,s)");
}

// Disjuncts at and past one mask word.
ConjunctiveQuery Star(int leaves, bool free_leaf) {
  std::vector<Atom> atoms;
  for (int i = 0; i < leaves; ++i) {
    atoms.emplace_back("e", std::vector<Term>{V("x"), V(Numbered("y", i))});
  }
  std::vector<Term> head = {V("x")};
  if (free_leaf) head.push_back(V(Numbered("y", leaves - 1)));
  return ConjunctiveQuery(std::move(head), std::move(atoms));
}

ConjunctiveQuery Path(int length) {
  std::vector<Atom> atoms;
  for (int i = 0; i < length; ++i) {
    atoms.emplace_back("e", std::vector<Term>{V(Numbered("p", i)),
                                              V(Numbered("p", i + 1))});
  }
  return ConjunctiveQuery({V("p0"), V(Numbered("p", length))},
                          std::move(atoms));
}

TEST(SmallCqKernel, SixtyFourAndSixtyFiveAtomDisjuncts) {
  for (int n : {64, 65}) {
    // Every leaf folds onto the last (free) one, across the word boundary.
    ConjunctiveQuery star = Star(n, /*free_leaf=*/true);
    auto core = CoreOf(star);
    ASSERT_TRUE(core.ok());
    EXPECT_EQ(core->ToString(), oracle::CoreOf(star)->ToString()) << n;
    EXPECT_EQ(core->atoms().size(), 1u) << n;
    EXPECT_FALSE(*IsCore(star));
    // A directed path with free endpoints is its own core.
    ConjunctiveQuery path = Path(n);
    EXPECT_TRUE(*IsCore(path)) << n;
    EXPECT_TRUE(*oracle::IsCore(path)) << n;
    // Path(n) ⊆ Path(n) but not Path(n-1), and the stars subsume each
    // other only one way.
    EXPECT_TRUE(SmallCqContained(path, path));
    EXPECT_FALSE(SmallCqContained(path, Path(n - 1)));
    ConjunctiveQuery small = Star(2, /*free_leaf=*/true);
    EXPECT_TRUE(SmallCqContained(star, small));
    EXPECT_TRUE(SmallCqContained(small, star));
    EXPECT_EQ(SmallCqContained(star, small),
              *oracle::CqContained(star, small));
    auto minimized = MinimizeUnionQuery(UnionQuery({path, Path(n)}));
    ASSERT_TRUE(minimized.ok() && minimized->has_value());
    EXPECT_EQ((*minimized)->disjuncts().size(), 1u);
  }
}

// Past sixteen names a compile table is hashed: constants, predicates,
// variables and duplicate atoms are still found again.
TEST(SmallCqKernel, ManyNamesCompileThroughTheHashedTables) {
  std::vector<Atom> atoms;
  for (int i = 0; i < 40; ++i) {
    const int k = i % 20;
    atoms.emplace_back(Numbered("r", k),
                       std::vector<Term>{V("x"), V(Numbered("y", k)),
                                         Term::Constant(Numbered("c", k))});
  }
  ConjunctiveQuery cq({V("x")}, std::move(atoms));
  auto core = CoreOf(cq);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->atoms().size(), 20u);
  EXPECT_TRUE(*IsCore(cq));
  auto probe = [](const char* constant) {
    return ConjunctiveQuery(
        {V("x")}, {Atom("r19", {V("x"), V("z"), Term::Constant(constant)})});
  };
  ConjunctiveQuery one = probe("c19");
  ConjunctiveQuery other = probe("c18");
  EXPECT_TRUE(SmallCqContained(cq, one));
  EXPECT_FALSE(SmallCqContained(cq, other));
  EXPECT_FALSE(SmallCqContained(one, cq));
  // The same name at a second arity in another query is another predicate.
  ConjunctiveQuery unary({V("x")}, {Atom("r19", {V("x")})});
  EXPECT_FALSE(SmallCqContained(cq, unary));
}

TEST(SmallCqKernel, ValidationErrorsAreValidates) {
  ConjunctiveQuery unsafe({V("w")}, {Atom("e", {V("x"), V("y")})});
  EXPECT_EQ(CoreOf(unsafe).status().message(),
            unsafe.Validate().message());
  ConjunctiveQuery arities({}, {Atom("e", {V("x"), V("y")}),
                                Atom("e", {V("x")})});
  EXPECT_EQ(IsCore(arities).status().message(),
            arities.Validate().message());
  ConjunctiveQuery constant_head({Term::Constant("c")},
                                 {Atom("e", {V("x"), V("y")})});
  EXPECT_FALSE(CoreOf(constant_head).ok());
  // The same predicate at two arities in *different* queries is legal.
  ConjunctiveQuery binary({}, {Atom("e", {V("x"), V("y")})});
  ConjunctiveQuery unary({}, {Atom("e", {V("x")})});
  EXPECT_FALSE(SmallCqContained(binary, unary));
  EXPECT_FALSE(SmallCqContained(unary, binary));
}

}  // namespace
}  // namespace qcont
