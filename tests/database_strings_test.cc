// The string views of a Database — Facts(), ActiveDomain(), Relations() —
// are rendered lazily from the interned rows. These tests pin that the
// lazy catch-up always equals a std::set oracle, whichever mutator added
// the rows, and that concurrent first reads of a frozen database race
// safely with probes (this binary runs under the TSAN CI leg).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
  std::mt19937 rng(4242 + 1);
  Database db;
  testgen::DatabaseOracle oracle;
  for (int step = 0; step < 60; ++step) {
    const std::string where = "step " + std::to_string(step);
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
        ASSERT_EQ(db.AddRow(db.pool()->Intern(rel), row), oracle.Add(rel, t))
            << where;
        break;
      }
      default: {  // AddRowBatch, small or past 1024 rows
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
        ASSERT_EQ(db.AddRowBatch(db.pool()->Intern(rel), arity, rows, &added),
                  fresh)
            << where << " batch of " << n;
        ASSERT_EQ(added.size(), fresh) << where;
        break;
      }
    }
    CheckSomeViews(&rng, db, oracle, relations, where);
  }
  testgen::ExpectMatchesOracle(db, oracle, "final");

  // Caught-up views are served under the shared lock alone.
  const std::uint64_t locks = db.memo_exclusive_locks();
  for (const std::string& rel : relations) db.Facts(rel);
  db.ActiveDomain();
  db.Relations();
  EXPECT_EQ(db.memo_exclusive_locks(), locks);
}

void ExpectSameIndexStats(const DatabaseIndexStats& got,
                          const DatabaseIndexStats& want,
                          const std::string& where) {
  EXPECT_EQ(got.indexes_built, want.indexes_built) << where;
  EXPECT_EQ(got.probes, want.probes) << where;
  EXPECT_EQ(got.rows_indexed, want.rows_indexed) << where;
  EXPECT_EQ(got.probe_collisions, want.probe_collisions) << where;
  EXPECT_EQ(got.probe_resizes, want.probe_resizes) << where;
  EXPECT_EQ(got.tag_hits, want.tag_hits) << where;
  EXPECT_EQ(got.tag_skips, want.tag_skips) << where;
  EXPECT_EQ(got.filter_skips, want.filter_skips) << where;
  EXPECT_EQ(got.prefetch_batches, want.prefetch_batches) << where;
}

// AddRowBatch's answer does not depend on how the candidates are cut into
// batches: one batch of n rows and the same rows committed in random
// chunks of at most 1024 leave the same rows, ids, Facts order and index
// counters. The batches carry duplicates within themselves and of rows
// already stored.
TEST(BatchCommitTest, BatchSizeIsInvisible) {
  for (const std::size_t n : {1u, 1024u, 1025u, 5000u}) {
    const std::string where = "batch of " + std::to_string(n);
    std::mt19937 rng(99 + static_cast<unsigned>(n));
    Database whole;
    Database chunked(whole.pool());
    const std::vector<std::string> relations = {"e", "f"};
    std::vector<std::vector<ValueId>> batches;
    for (const std::string& rel : relations) {
      const RelationId id = whole.pool()->Intern(rel);
      const auto value = [&] {
        return whole.pool()->Intern(testgen::Numbered("n", rng() % 128));
      };
      std::vector<ValueId> stored;
      for (int i = 0; i < 300; ++i) {
        const ValueId row[2] = {value(), value()};
        stored.insert(stored.end(), row, row + 2);
        ASSERT_EQ(whole.AddRow(id, row), chunked.AddRow(id, row)) << where;
      }
      std::vector<ValueId>& rows = batches.emplace_back();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pick = rng() % 8;
        if (pick == 0) {  // a row already stored
          const std::size_t r = rng() % (stored.size() / 2);
          rows.insert(rows.end(), stored.begin() + 2 * r,
                      stored.begin() + 2 * r + 2);
        } else if (pick == 1 && i > 0) {  // an earlier candidate
          const std::size_t r = rng() % i;
          const ValueId row[2] = {rows[2 * r], rows[2 * r + 1]};
          rows.insert(rows.end(), row, row + 2);
        } else {
          rows.push_back(value());
          rows.push_back(value());
        }
      }
    }
    for (std::size_t k = 0; k < relations.size(); ++k) {
      const RelationId id = whole.pool()->Intern(relations[k]);
      const std::span<const ValueId> rows(batches[k]);
      std::vector<std::uint32_t> whole_added;
      const std::size_t whole_count =
          whole.AddRowBatch(id, 2, rows, &whole_added);
      std::vector<std::uint32_t> chunk_added;
      std::size_t chunk_count = 0;
      for (std::size_t begin = 0; begin < n;) {
        const std::size_t len = std::min<std::size_t>(n - begin,
                                                      1 + rng() % 1024);
        chunk_count += chunked.AddRowBatch(
            id, 2, rows.subspan(2 * begin, 2 * len), &chunk_added);
        begin += len;
      }
      EXPECT_EQ(whole_count, chunk_count) << where;
      EXPECT_EQ(whole_added, chunk_added) << where;
      EXPECT_EQ(whole_added.size(), whole_count) << where;
      EXPECT_EQ(whole.NumRows(id), chunked.NumRows(id)) << where;
      EXPECT_EQ(whole.Facts(relations[k]), chunked.Facts(relations[k]))
          << where;
    }
    EXPECT_EQ(whole.NumFacts(), chunked.NumFacts()) << where;
    EXPECT_EQ(whole.ActiveDomainIds(), chunked.ActiveDomainIds()) << where;
    ExpectSameIndexStats(whole.index_stats(), chunked.index_stats(), where);
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
  Database db;
  testgen::DatabaseOracle oracle;
  for (const auto& [rel, t] :
       testgen::RandomFacts(&rng, testgen::SmallSchema(), 24, 600)) {
    db.AddFact(rel, t);
    oracle.Add(rel, t);
  }
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
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(db.mutation_epoch(), epoch);
}

}  // namespace
}  // namespace qcont
