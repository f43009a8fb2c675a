// The string views of a Database — Facts(), ActiveDomain(), Relations() —
// are rendered lazily from the interned rows. These tests pin that the
// lazy catch-up always equals a std::set oracle, whichever mutator added
// the rows, and that concurrent first reads of a frozen database race
// safely with probes (this binary runs under the TSAN CI leg).

#include <atomic>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "cq/database.h"
#include "db_oracle.h"
#include "generators.h"

namespace qcont {
namespace {

constexpr int kDomain = 48;  // 48 * 48 distinct binary rows per relation

std::string RandomValue(std::mt19937* rng) {
  std::string v = "v";
  v += std::to_string((*rng)() % kDomain);
  return v;
}

// Reads a random subset of the string views and checks each against the
// oracle, so unread relations lag behind and a later read has to catch up
// over several mutations at once.
void CheckSomeViews(std::mt19937* rng, const Database& db,
                    const testgen::DatabaseOracle& oracle,
                    const std::vector<std::string>& relations,
                    const std::string& where) {
  if ((*rng)() % 2 == 0) {
    ASSERT_EQ(db.ActiveDomain(), oracle.ActiveDomain()) << where;
  }
  if ((*rng)() % 3 == 0) {
    ASSERT_EQ(db.Relations(), oracle.Relations()) << where;
  }
  for (const std::string& rel : relations) {
    if ((*rng)() % 2 == 0) {
      ASSERT_EQ(db.Facts(rel), oracle.Facts(rel)) << where << " " << rel;
    }
  }
}

TEST(LazyStringsTest, CatchUpMatchesOracleUnderEveryMutator) {
  const std::vector<std::string> relations = {"a", "b", "u"};
  for (int shards : {1, 3, 16}) {
    std::mt19937 rng(4242 + shards);
    Database db;
    if (shards > 1) db.Reshard(shards);
    testgen::DatabaseOracle oracle;
    const ExecContext exec{.threads = 4, .stats = nullptr};
    for (int step = 0; step < 60; ++step) {
      const std::string where =
          "P=" + std::to_string(shards) + " step " + std::to_string(step);
      // "u" is unary; "a" and "b" are binary.
      const std::string& rel = relations[rng() % relations.size()];
      const std::size_t arity = rel == "u" ? 1 : 2;
      switch (rng() % 4) {
        case 0: {  // AddFact
          Tuple t;
          for (std::size_t k = 0; k < arity; ++k) {
            t.push_back(RandomValue(&rng));
          }
          ASSERT_EQ(db.AddFact(rel, t), oracle.Add(rel, t)) << where;
          break;
        }
        case 1: {  // AddRow
          Tuple t;
          std::vector<ValueId> row;
          for (std::size_t k = 0; k < arity; ++k) {
            t.push_back(RandomValue(&rng));
            row.push_back(db.pool()->Intern(t.back()));
          }
          ASSERT_EQ(db.AddRow(db.pool()->Intern(rel), row),
                    oracle.Add(rel, t))
              << where;
          break;
        }
        default: {  // AddRowBatch: fused (<= 1024 rows at P = 1) or staged
          const std::size_t n =
              rng() % 2 == 0 ? 1 + rng() % 40 : 1025 + rng() % 300;
          std::vector<ValueId> rows;
          std::size_t fresh = 0;
          for (std::size_t i = 0; i < n; ++i) {
            Tuple t;
            for (std::size_t k = 0; k < arity; ++k) {
              t.push_back(RandomValue(&rng));
              rows.push_back(db.pool()->Intern(t.back()));
            }
            fresh += oracle.Add(rel, t) ? 1 : 0;
          }
          std::vector<std::uint32_t> added;
          ASSERT_EQ(db.AddRowBatch(db.pool()->Intern(rel), arity, rows, exec,
                                   &added),
                    fresh)
              << where << " batch of " << n;
          ASSERT_EQ(added.size(), fresh) << where;
          break;
        }
      }
      CheckSomeViews(&rng, db, oracle, relations, where);
    }
    testgen::ExpectMatchesOracle(db, oracle, "P=" + std::to_string(shards));

    // Caught-up views are served under the shared lock alone.
    const std::uint64_t locks = db.memo_exclusive_locks();
    for (const std::string& rel : relations) db.Facts(rel);
    db.ActiveDomain();
    db.Relations();
    EXPECT_EQ(db.memo_exclusive_locks(), locks) << "P=" << shards;
  }
}

TEST(LazyStringsTest, CopiesAndUnionCarryUnrenderedRows) {
  std::mt19937 rng(777);
  Database db;
  testgen::DatabaseOracle oracle;
  for (const auto& [rel, t] :
       testgen::RandomFacts(&rng, testgen::SmallSchema(), 8, 40)) {
    db.AddFact(rel, t);
    oracle.Add(rel, t);
    if (rng() % 8 == 0) db.Facts(rel);  // render a prefix only
  }
  // A copy carries whatever prefix was rendered and catches up by itself.
  const Database copy = db;
  testgen::ExpectMatchesOracle(copy, oracle, "copy");
  // UnionWith reads rows, so rows never rendered on either side still
  // arrive, across pools: relation by relation in first-fact order.
  Database merged;
  testgen::DatabaseOracle want;
  merged.AddFact("z", {"w0", "v1"});
  want.Add("z", {"w0", "v1"});
  for (const RelationId id : db.RelationIds()) {
    for (const Tuple& t : oracle.Facts(db.ValueName(id))) {
      want.Add(db.ValueName(id), t);
    }
  }
  merged.UnionWith(db);
  testgen::ExpectMatchesOracle(merged, want, "union");
}

TEST(LazyStringsTest, ConcurrentFirstReadsRaceProbesSafely) {
  std::mt19937 rng(2026);
  for (int shards : {1, 3}) {
    Database db;
    testgen::DatabaseOracle oracle;
    for (const auto& [rel, t] :
         testgen::RandomFacts(&rng, testgen::SmallSchema(), 24, 600)) {
      db.AddFact(rel, t);
      oracle.Add(rel, t);
    }
    if (shards > 1) db.Reshard(shards);
    const RelationId a = db.RelationIdOf("a");
    std::vector<ValueId> keys;
    for (std::size_t r = 0; r < db.NumRows(a); ++r) {
      const std::span<const ValueId> row = db.Row(a, r);
      keys.insert(keys.end(), row.begin(), row.end());
    }
    const std::uint64_t epoch = db.mutation_epoch();

    // Nothing has been rendered yet: the readers' first calls race each
    // other through the exclusive catch-up while probers hit the tables
    // (mask 0x1 builds a lazy index under the same memo lock).
    std::atomic<bool> go{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
      threads.emplace_back([&, i] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int round = 0; round < 3; ++round) {
          const std::string rel = (i + round) % 2 == 0 ? "a" : "u";
          if (db.Facts(rel) != oracle.Facts(rel)) ++mismatches;
          if (db.ActiveDomain() != oracle.ActiveDomain()) ++mismatches;
          if (db.Relations() != oracle.Relations()) ++mismatches;
        }
      });
    }
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&, i] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::size_t n = keys.size() / 2;
        std::vector<std::span<const std::uint32_t>> hits(n);
        if (i % 2 == 0) {
          db.ProbeMany(a, 0x3u, keys, hits);
          for (const auto& h : hits) {
            if (h.size() != 1) ++mismatches;
          }
        } else {
          std::vector<ValueId> firsts;
          for (std::size_t r = 0; r < n; ++r) firsts.push_back(keys[2 * r]);
          db.ProbeMany(a, 0x1u, firsts, hits);
          for (const auto& h : hits) {
            if (h.empty()) ++mismatches;
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "P=" << shards;
    EXPECT_EQ(db.mutation_epoch(), epoch) << "P=" << shards;
  }
}

}  // namespace
}  // namespace qcont
