// Differential and contract tests for the SIMD tag-filtered probe kernel
// (DESIGN.md §16): the vector group compare must agree bit-for-bit with
// the scalar SWAR reference, probes must agree with an independent
// std::set oracle (tests/db_oracle.h), the probes counter must bump once
// per key, and the block-at-a-time delta join must derive exactly what the
// scan reference (tests/hom_oracle.h) derives — with thread-count-invariant
// counters.

#include <algorithm>
#include <cstdint>
#include <random>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/flat_set.h"
#include "base/simd.h"
#include "cq/database.h"
#include "datalog/block_join.h"
#include "datalog/eval.h"
#include "parser/parser.h"
#include "tests/db_oracle.h"
#include "tests/generators.h"
#include "tests/hom_oracle.h"

namespace qcont {
namespace {

TEST(SimdKernelTest, MatchBytesAgreesWithScalarReference) {
  std::mt19937 rng(20260808);
  std::uint8_t buf[64];
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::uint8_t& b : buf) {
      // Bias toward tag-shaped bytes (high bit set) and empties (zero).
      const std::uint32_t roll = rng() % 4;
      b = roll == 0 ? 0 : static_cast<std::uint8_t>(rng() | 0x80u);
    }
    const std::uint8_t needle =
        trial % 3 == 0 ? 0 : static_cast<std::uint8_t>(rng() | 0x80u);
    for (std::size_t off = 0; off + 16 <= sizeof(buf); ++off) {
      EXPECT_EQ(MatchBytes16(buf + off, needle),
                MatchBytes16Scalar(buf + off, needle));
    }
  }
}

TEST(SimdKernelTest, MatchBytesMatchesPositionByPosition) {
  std::mt19937 rng(77);
  std::uint8_t buf[16];
  for (int trial = 0; trial < 500; ++trial) {
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
    const std::uint8_t needle = static_cast<std::uint8_t>(rng());
    const std::uint32_t mask = MatchBytes16(buf, needle);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ((mask >> i) & 1u, buf[i] == needle ? 1u : 0u);
    }
    EXPECT_EQ(mask >> 16, 0u);
  }
}

TEST(ProbeKernelTest, ProbeMatchesOracle) {
  std::mt19937 rng(75161);
  Database db;
  testgen::DatabaseOracle oracle;
  const int domain = 12;
  for (int i = 0; i < 300; ++i) {
    const std::string rel = i % 5 == 0 ? "u" : "e";
    const Tuple t = i % 5 == 0
                        ? Tuple{testgen::Numbered("v", rng() % domain)}
                        : Tuple{testgen::Numbered("v", rng() % domain),
                                testgen::Numbered("v", rng() % domain)};
    ASSERT_EQ(db.AddFact(rel, t), oracle.Add(rel, t)) << "fact " << i;
  }
  testgen::ExpectMatchesOracle(db, oracle, "probe kernel");
  // Present and absent key combinations over the interned domain; every
  // nonzero mask of each relation probes the key's projection.
  std::vector<Tuple> e_keys, u_keys;
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = testgen::Numbered("v", rng() % domain);
    const std::string b = testgen::Numbered("v", rng() % domain);
    e_keys.push_back({a, b});
    u_keys.push_back({a});
  }
  testgen::ExpectProbesMatchOracle(db, oracle, "e", e_keys, "probe kernel");
  testgen::ExpectProbesMatchOracle(db, oracle, "u", u_keys, "probe kernel");
}

TEST(ProbeKernelTest, ProbeManyMatchesSingleProbes) {
  std::mt19937 rng(909);
  Database db;
  for (int i = 0; i < 400; ++i) {
    db.AddFact("e", Tuple{testgen::Numbered("v", rng() % 20),
                          testgen::Numbered("v", rng() % 20)});
  }
  const RelationId e = db.RelationIdOf("e");
  std::vector<ValueId> keys;
  const std::size_t n = 256;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(db.pool()->Find(testgen::Numbered("v", rng() % 20)));
  }
  std::vector<std::span<const std::uint32_t>> hits(n);
  db.ProbeMany(e, 1u, keys, hits);
  for (std::size_t i = 0; i < n; ++i) {
    const auto single = db.Probe(e, 1u, std::span<const ValueId>(&keys[i], 1));
    EXPECT_EQ(std::vector<std::uint32_t>(hits[i].begin(), hits[i].end()),
              std::vector<std::uint32_t>(single.begin(), single.end()));
  }
}

// The index_stats() contract: `probes` counts keys, not slots visited —
// one per Probe call, one per ProbeMany key — with tag-filter and
// Bloom-filter traffic accounted separately.
TEST(ProbeKernelTest, ProbesCounterBumpsOncePerKey) {
  std::mt19937 rng(4243);
  Database db;
  for (int i = 0; i < 500; ++i) {
    db.AddFact("e", Tuple{testgen::Numbered("v", rng() % 30),
                          testgen::Numbered("v", rng() % 30)});
  }
  const RelationId e = db.RelationIdOf("e");
  const std::uint64_t before = db.index_stats().probes;
  std::vector<ValueId> keys;
  const std::size_t n = 300;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(db.pool()->Find(testgen::Numbered("v", rng() % 30)));
  }
  std::vector<std::span<const std::uint32_t>> hits(n);
  db.ProbeMany(e, 1u, keys, hits);
  EXPECT_EQ(db.index_stats().probes, before + n);
  for (std::size_t i = 0; i < 10; ++i) {
    db.Probe(e, 1u, std::span<const ValueId>(&keys[i], 1));
  }
  EXPECT_EQ(db.index_stats().probes, before + n + 10);
  // Tag traffic exists and is accounted outside `probes`.
  const DatabaseIndexStats s = db.index_stats();
  EXPECT_GT(s.tag_hits, 0u);
  // With a domain this size some keys miss both Bloom bits.
  EXPECT_GE(s.filter_skips, 0u);
}

// Identical databases probed with identical sequences must produce
// identical counters — the determinism contract that makes the
// scalar-vs-SIMD CI legs comparable.
TEST(ProbeKernelTest, CountersDeterministicAcrossRuns) {
  DatabaseIndexStats runs[2];
  for (int run = 0; run < 2; ++run) {
    std::mt19937 rng(606);
    Database db;
    for (int i = 0; i < 300; ++i) {
      db.AddFact("e", Tuple{testgen::Numbered("v", rng() % 15),
                            testgen::Numbered("v", rng() % 15)});
    }
    const RelationId e = db.RelationIdOf("e");
    for (int i = 0; i < 500; ++i) {
      const ValueId k = db.pool()->Find(testgen::Numbered("v", rng() % 15));
      db.Probe(e, 1u, std::span<const ValueId>(&k, 1));
    }
    runs[run] = db.index_stats();
  }
  EXPECT_EQ(runs[0].probes, runs[1].probes);
  EXPECT_EQ(runs[0].tag_hits, runs[1].tag_hits);
  EXPECT_EQ(runs[0].tag_skips, runs[1].tag_skips);
  EXPECT_EQ(runs[0].probe_collisions, runs[1].probe_collisions);
  EXPECT_EQ(runs[0].filter_skips, runs[1].filter_skips);
}

void ExpectHomStatsEqual(const HomSearchStats& a, const HomSearchStats& b,
                         int trial, const char* what) {
  EXPECT_EQ(a.atom_attempts, b.atom_attempts) << what << " trial " << trial;
  EXPECT_EQ(a.backtracks, b.backtracks) << what << " trial " << trial;
  EXPECT_EQ(a.index_probes, b.index_probes) << what << " trial " << trial;
  EXPECT_EQ(a.index_candidates, b.index_candidates)
      << what << " trial " << trial;
  EXPECT_EQ(a.scan_candidates, b.scan_candidates)
      << what << " trial " << trial;
}

TEST(BlockJoinTest, MatchesRecursiveEngineOnRandomPrograms) {
  std::mt19937 rng(314159);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 25; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 14);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    DatalogEvalStats bs, ss;
    auto block_goal = EvaluateGoal(program, edb, {}, &bs);
    auto scan_goal =
        oracle::EvaluateGoal(program, edb, EvalStrategy::kSemiNaive, &ss);
    ASSERT_TRUE(block_goal.ok() && scan_goal.ok()) << "trial " << trial;
    EXPECT_EQ(*block_goal, *scan_goal) << "trial " << trial;
    // Same homomorphism multiset, same rounds: both engines fire each body
    // match once.
    EXPECT_EQ(bs.iterations, ss.iterations) << "trial " << trial;
    EXPECT_EQ(bs.rule_firings, ss.rule_firings) << "trial " << trial;
    EXPECT_EQ(bs.derived_facts, ss.derived_facts) << "trial " << trial;
  }
}

TEST(BlockJoinTest, ThreadCountInvariantAnswersAndCounters) {
  std::mt19937 rng(271828);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 12; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    std::vector<std::vector<Tuple>> goals;
    std::vector<DatalogEvalStats> stats;
    for (const int threads : {1, 8}) {
      EvalOptions options;
      options.exec = ExecContext{.threads = threads, .stats = nullptr};
      DatalogEvalStats s;
      auto goal = EvaluateGoal(program, edb, options, &s);
      ASSERT_TRUE(goal.ok()) << "trial " << trial;
      goals.push_back(*goal);
      stats.push_back(s);
    }
    EXPECT_EQ(goals[0], goals[1]) << "trial " << trial;
    EXPECT_EQ(stats[0].iterations, stats[1].iterations) << "trial " << trial;
    EXPECT_EQ(stats[0].rule_firings, stats[1].rule_firings)
        << "trial " << trial;
    EXPECT_EQ(stats[0].derived_facts, stats[1].derived_facts)
        << "trial " << trial;
    ExpectHomStatsEqual(stats[0].hom, stats[1].hom, trial, "threads");
  }
}

// Block size is a memory/fan-out knob only: every (rule, intensional
// position) plan, run over the whole relation as its delta, emits the same
// head rows in the same order with the same counters at any block size.
TEST(BlockJoinTest, DeltaBlockSizesProduceIdenticalGoals) {
  std::mt19937 rng(161803);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  int joins = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 5, 16);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    auto all = EvaluateProgram(program, edb);
    ASSERT_TRUE(all.ok()) << "trial " << trial;
    for (const Rule& rule : program.rules()) {
      std::vector<RelationId> rels;
      for (const Atom& atom : rule.body) {
        rels.push_back(all->RelationIdOf(atom.predicate()));
      }
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        if (!program.IsIntensional(rule.body[i].predicate())) continue;
        const BlockJoinPlan plan =
            BlockJoinPlan::Compile(rule, rels, static_cast<int>(i));
        const std::size_t n = all->NumRows(rels[i]);
        std::vector<ValueId> delta;
        for (std::size_t r = 0; r < n; ++r) {
          const std::span<const ValueId> row = all->Row(rels[i], r);
          delta.insert(delta.end(), row.begin(), row.end());
        }
        std::vector<std::vector<ValueId>> outs;
        std::vector<std::size_t> counts;
        std::vector<HomSearchStats> stats;
        for (const std::size_t block :
             {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
          outs.emplace_back();
          counts.push_back(0);
          stats.emplace_back();
          plan.Execute(*all, delta, n, block, &outs.back(), &counts.back(),
                       &stats.back());
        }
        ++joins;
        for (std::size_t b = 1; b < outs.size(); ++b) {
          EXPECT_EQ(outs[b], outs[0]) << "trial " << trial << " block " << b;
          EXPECT_EQ(counts[b], counts[0]) << "trial " << trial;
          ExpectHomStatsEqual(stats[b], stats[0], trial, "block");
        }
      }
    }
  }
  EXPECT_GT(joins, 0);
}

// Concatenation by appending: GCC 12 reports a false -Wrestrict on
// `literal + std::string`.
std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

// <prefix><from>,...,<prefix><to-1>: the filler positions of the
// wide-atom programs below.
std::string Vars(const char* prefix, int from, int to) {
  std::string out;
  for (int i = from; i < to; ++i) {
    if (!out.empty()) out += ',';
    out += testgen::Numbered(prefix, i);
  }
  return out;
}

// Every relation's facts in insertion order, relations in creation order:
// the derived database down to row and interning order.
std::vector<std::pair<std::string, std::vector<Tuple>>> Dump(
    const Database& db) {
  std::vector<std::pair<std::string, std::vector<Tuple>>> out;
  for (const RelationId rel : db.RelationIds()) {
    const std::string& name = db.pool()->NameOf(rel);
    out.emplace_back(name, db.Facts(name));
  }
  return out;
}

struct ShapeCase {
  std::string name;
  std::string program;
  testgen::SchemaSpec schema;
  int domain;
  int facts;
};

// Program shapes the block-join round loop covers beyond binary TC: a
// Boolean goal, an arity-0 intensional body atom, body atoms wider than a
// 32-bit probe mask (binds and checks past position 32) and a 33-wide
// recursive head (a 33-wide delta atom, committed through AddRowBatch).
std::vector<ShapeCase> ShapeCases() {
  std::vector<ShapeCase> cases;
  cases.push_back({"boolean_goal",
                   "g() :- p(x). p(x) :- e(x,y), p(y). p(x) :- s(x). goal g.",
                   {{{"e", 2}, {"s", 1}}}, 6, 12});
  cases.push_back({"arity0_idb",
                   "f() :- s(x). q(x) :- f(), e(x,y). goal q.",
                   {{{"e", 2}, {"s", 1}}}, 6, 12});
  cases.push_back({"body_33",
                   Cat({"t(x,y) :- e(x,y). t(x,z) :- t(x,y), w(y,",
                        Vars("a", 1, 32), ",z). goal t."}),
                   {{{"e", 2}, {"w", 33}}}, 3, 40});
  // z binds at position 31 and is checked again at 38; x, bound by the
  // delta atom, is checked at 39.
  cases.push_back({"body_40",
                   Cat({"t(x,y) :- e(x,y). t(x,z) :- t(x,y), v(y,",
                        Vars("a", 1, 31), ",z,", Vars("b", 32, 38),
                        ",z,x). goal t."}),
                   {{{"e", 2}, {"v", 40}}}, 3, 60});
  const std::string xs = Vars("x", 1, 34);
  cases.push_back({"head_33",
                   Cat({"h(", xs, ") :- b(", xs, "). h(", xs, ") :- h(",
                        Vars("x", 2, 34), ",x1), s(x1). goal h."}),
                   {{{"b", 33}, {"s", 1}}}, 3, 12});
  return cases;
}

TEST(BlockJoinTest, WideAndPropositionalShapesMatchReferences) {
  for (const ShapeCase& c : ShapeCases()) {
    auto program = ParseProgram(c.program);
    ASSERT_TRUE(program.ok()) << c.name << ": " << program.status().ToString();
    std::mt19937 rng(4242);
    bool derived_any = false;
    for (int seed = 0; seed < 6; ++seed) {
      const std::string at = Cat({c.name, " seed ", std::to_string(seed)});
      Database edb = testgen::RandomDatabase(&rng, c.schema, c.domain, c.facts);
      DatalogEvalStats ss;
      EvalOptions naive;
      naive.strategy = EvalStrategy::kNaive;
      auto want = EvaluateGoal(*program, edb, naive);
      auto scan_goal =
          oracle::EvaluateGoal(*program, edb, EvalStrategy::kSemiNaive, &ss);
      ASSERT_TRUE(want.ok() && scan_goal.ok()) << at;
      EXPECT_EQ(*scan_goal, *want) << at;
      derived_any = derived_any || !want->empty();

      std::vector<std::pair<std::string, std::vector<Tuple>>> first_db;
      DatalogEvalStats first;
      for (const int threads : {1, 8}) {
        const std::string cell =
            Cat({at, " threads ", std::to_string(threads)});
        EvalOptions options;
        options.exec = ExecContext{.threads = threads, .stats = nullptr};
        DatalogEvalStats s;
        auto goal = EvaluateGoal(*program, edb, options, &s);
        auto all = EvaluateProgram(*program, edb, options);
        ASSERT_TRUE(goal.ok() && all.ok()) << cell;
        EXPECT_EQ(*goal, *want) << cell;
        EXPECT_EQ(s.iterations, ss.iterations) << cell;
        EXPECT_EQ(s.derived_facts, ss.derived_facts) << cell;
        EXPECT_EQ(s.rule_firings, ss.rule_firings) << cell;
        if (threads == 1) {
          first_db = Dump(*all);
          first = s;
          continue;
        }
        EXPECT_EQ(Dump(*all), first_db) << cell;
        ExpectHomStatsEqual(s.hom, first.hom, seed, cell.c_str());
      }
    }
    // The seeds must exercise the recursive rules, not just round 0.
    EXPECT_TRUE(derived_any) << c.name;
  }
}

// Once the delta atom f() fires, the plan step for e(x,y) has no bound
// position. It scans e instead of building a mask-0 index holding every
// row, so the working database ends with no index at all.
TEST(BlockJoinTest, UnboundStepScansWithoutBuildingAnIndex) {
  auto program = ParseProgram("f() :- s(x). q(x) :- f(), e(x,y). goal q.");
  auto edb = ParseDatabase("e(a,b). e(b,c). s(c).");
  ASSERT_TRUE(program.ok() && edb.ok());
  EvalOptions naive;
  naive.strategy = EvalStrategy::kNaive;
  auto want = EvaluateGoal(*program, *edb, naive);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*want, (std::vector<Tuple>{{"a"}, {"b"}}));
  DatalogEvalStats stats;
  auto goal = EvaluateGoal(*program, *edb);
  auto all = EvaluateProgram(*program, *edb, {}, &stats);
  ASSERT_TRUE(goal.ok() && all.ok());
  EXPECT_EQ(*goal, *want);
  EXPECT_EQ(all->index_stats().indexes_built, 0u);
  EXPECT_EQ(stats.hom.index_probes, 0u);
}

TEST(FlatSetTest, MatchesUnorderedSetOnRandomWorkload) {
  std::mt19937 rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    FlatU64Set flat;
    std::unordered_set<std::uint64_t> ref;
    const int ops = 2000;
    for (int i = 0; i < ops; ++i) {
      // Small key space forces duplicate inserts and positive lookups.
      const std::uint64_t key = 1 + rng() % 500;
      if (rng() % 2 == 0) {
        EXPECT_EQ(flat.Insert(key), ref.insert(key).second);
      } else {
        EXPECT_EQ(flat.Contains(key), ref.count(key) > 0);
      }
      EXPECT_EQ(flat.size(), ref.size());
    }
    for (std::uint64_t key = 1; key <= 600; ++key) {
      EXPECT_EQ(flat.Contains(key), ref.count(key) > 0);
    }
  }
}

}  // namespace
}  // namespace qcont
