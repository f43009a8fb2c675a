#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.h"
#include "base/interner.h"
#include "base/lru_cache.h"
#include "base/status.h"

namespace qcont {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("bad").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  Status s = InvalidArgumentError("expected ')'");
  EXPECT_EQ(s.ToString(), "InvalidArgument: expected ')'");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return InvalidArgumentError("not positive");
  return x;
}

Result<int> Doubled(int x) {
  QCONT_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Doubled(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(InternerTest, DenseIdsAndRoundTrip) {
  Interner interner;
  SymbolId a = interner.Intern("alpha");
  SymbolId b = interner.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.NameOf(b), "beta");
  EXPECT_EQ(interner.Find("beta"), b);
  EXPECT_EQ(interner.Find("gamma"), Interner::kMissing);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, MovedFromInternerStaysValidAndEmpty) {
  Interner source;
  source.Intern("alpha");
  source.Intern("beta");

  Interner moved(std::move(source));
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.Find("alpha"), 0u);
  // The moved-from interner is empty but fully usable (live mutex).
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(source.Find("alpha"), Interner::kMissing);
  EXPECT_EQ(source.Intern("gamma"), 0u);

  Interner assigned;
  assigned.Intern("delta");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.NameOf(1), "beta");
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.Intern("epsilon"), 0u);
}

TEST(HashTest, VectorAndPairHashersDiscriminate) {
  VectorHash<int> vh;
  EXPECT_NE(vh({1, 2, 3}), vh({3, 2, 1}));
  EXPECT_EQ(vh({1, 2, 3}), vh({1, 2, 3}));
  PairHash<int, std::string> ph;
  EXPECT_NE(ph({1, "a"}), ph({2, "a"}));
}


TEST(LruCacheTest, EvictsLeastRecentlyUsedAndLookupRefreshes) {
  LruCache<int, std::string> cache(2);
  EXPECT_EQ(cache.Insert(1, "a"), 0u);
  EXPECT_EQ(cache.Insert(2, "b"), 0u);
  // Touch 1 so 2 becomes the victim.
  EXPECT_EQ(cache.Lookup(1), "a");
  EXPECT_EQ(cache.Insert(3, "c"), 1u);
  EXPECT_EQ(cache.Lookup(2), std::nullopt);
  EXPECT_EQ(cache.Lookup(1), "a");
  EXPECT_EQ(cache.Lookup(3), "c");
  // 3 was just looked up after 1, so 1 is now the victim.
  EXPECT_EQ(cache.Insert(4, "d"), 1u);
  EXPECT_EQ(cache.Lookup(1), std::nullopt);
  EXPECT_EQ(cache.Lookup(3), "c");
}

TEST(LruCacheTest, ZeroCapacityStoresNothingButCountsMisses) {
  LruCache<int, int> cache(0);
  EXPECT_EQ(cache.Insert(1, 10), 0u);
  EXPECT_EQ(cache.Lookup(1), std::nullopt);
  auto [value, found] = cache.FindOrInsert(1, 11);
  EXPECT_EQ(value, 11);
  EXPECT_FALSE(found);
  EXPECT_FALSE(cache.FindOrInsert(1, 12).second);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(LruCacheTest, ReinsertKeepsOriginalEpoch) {
  LruCache<int, int> cache(4);
  cache.Insert(1, 10);
  bool stable = true;
  EXPECT_EQ(cache.Lookup(1, &stable), 10);
  EXPECT_FALSE(stable);  // inserted in the current epoch

  cache.BeginEpoch();
  EXPECT_EQ(cache.Insert(1, 11), 0u);  // replaces the value, same epoch
  cache.Insert(2, 20);
  stable = false;
  EXPECT_EQ(cache.Lookup(1, &stable), 11);
  EXPECT_TRUE(stable);
  EXPECT_EQ(cache.Lookup(2, &stable), 20);
  EXPECT_FALSE(stable);
  stable = true;
  EXPECT_EQ(cache.Lookup(3, &stable), std::nullopt);
  EXPECT_FALSE(stable);
  EXPECT_TRUE(cache.FindOrInsert(1, 0, &stable).second);
  EXPECT_TRUE(stable);
  EXPECT_EQ(cache.stats().insertions, 2u);  // the re-insert is not counted
}

TEST(LruCacheTest, StatsArithmetic) {
  LruCache<int, int> cache(2);
  cache.Insert(1, 1);
  cache.Insert(2, 2);
  cache.Insert(3, 3);                    // evicts 1
  cache.Insert(3, 4);                    // re-insert: no counter moves
  cache.Lookup(1);                       // miss
  cache.Lookup(2);                       // hit
  cache.FindOrInsert(4, 4);              // miss, inserts, evicts 3
  cache.FindOrInsert(4, 5);              // hit
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);

  // Clear drops entries; the counters keep accumulating.
  cache.Clear();
  cache.Lookup(2);
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 4u);

  LruCacheStats sum = stats;
  sum += stats;
  EXPECT_EQ(sum.hits, 4u);
  EXPECT_EQ(sum.misses, 6u);
  EXPECT_EQ(sum.insertions, 8u);
  EXPECT_EQ(sum.evictions, 4u);
  EXPECT_EQ(sum.entries, 0u);

  int visited = 0;
  cache.Insert(5, 50);
  cache.stats([&](int value) { visited += value; });
  EXPECT_EQ(visited, 50);
}

// Single-flight: however the threads interleave, exactly one of them
// misses (and fulfills the future it inserted); every other one hits and
// receives that same future.
TEST(LruCacheTest, ConcurrentFindOrInsertIsSingleFlight) {
  LruCache<int, std::shared_future<int>> cache(4);
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<int> results(kThreads, -1);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        std::promise<int> promise;
        auto [future, found] =
            cache.FindOrInsert(7, promise.get_future().share());
        if (!found) promise.set_value(100 + t);
        results[t] = future.get();
      });
    }
    go.store(true);
    for (std::thread& w : workers) w.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
  EXPECT_GE(results[0], 100);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCacheTest, WaiterOnEvictedInFlightEntryGetsItsValue) {
  LruCache<int, std::shared_future<int>> cache(1);
  std::promise<int> builder;
  EXPECT_FALSE(cache.FindOrInsert(1, builder.get_future().share()).second);

  std::promise<int> unused;
  auto [in_flight, found] = cache.FindOrInsert(1, unused.get_future().share());
  ASSERT_TRUE(found);
  int waited = 0;
  std::thread waiter([&, future = in_flight] { waited = future.get(); });

  // Evict the still-unfulfilled entry, then finish its build.
  std::promise<int> other;
  other.set_value(0);
  EXPECT_EQ(cache.Insert(2, other.get_future().share()), 1u);
  EXPECT_FALSE(cache.Lookup(1).has_value());
  builder.set_value(42);
  waiter.join();
  EXPECT_EQ(waited, 42);
}

}  // namespace
}  // namespace qcont
