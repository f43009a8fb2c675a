// Probe-kernel microbenchmark (DESIGN.md §16): ProbeMany throughput on one
// index at the fixed kernel constants, swept over the batch's hit rate
// {0, 50, 100}% (the Bloom filters only pay off on misses). Each row
// reports the db.probe.* counters per batch, so a capture records not just
// the speed but how the kernel got it (tag-filter skips, filter skips,
// prefetch batches). The label carries SimdKernelName() so a JSON capture
// states which vector implementation (sse2/neon/scalar) it measured.
// BENCH_probe_kernel.json at the repo root is the earlier knob-grid
// capture the fixed constants were chosen from.

#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "base/simd.h"
#include "bench/workloads.h"
#include "cq/database.h"

namespace qcont {
namespace {

// One arity-2 relation with `rows` random edges over a node space twice as
// large, probed on the first column (mask 0b01). Key batches mix resident
// first-column values with interned-but-absent values at `hit_pct`.
struct ProbeFixture {
  Database db;
  RelationId rel = kNoRelation;
  std::vector<ValueId> keys;

  ProbeFixture(int rows, int hit_pct) {
    std::mt19937 rng(11);
    for (int i = 0; i < rows; ++i) {
      db.AddFact("e", {bench::Numbered("n", rng() % (2 * rows)),
                       bench::Numbered("n", rng() % (2 * rows))});
    }
    rel = db.RelationIdOf("e");
    keys.reserve(rows);
    for (int i = 0; i < rows; ++i) {
      if (static_cast<int>(rng() % 100) < hit_pct) {
        keys.push_back(db.Row(rel, rng() % db.NumRows(rel))[0]);
      } else {
        // Interned but never inserted: a guaranteed miss the Bloom filter
        // can answer without touching the table.
        keys.push_back(db.pool()->Intern(bench::Numbered("miss", i)));
      }
    }
  }
};

void BM_ProbeMany(benchmark::State& state) {
  const int hit_pct = static_cast<int>(state.range(0));
  ProbeFixture fx(/*rows=*/4096, hit_pct);
  std::vector<std::span<const std::uint32_t>> hits(fx.keys.size());
  // One untimed batch builds the index outside the timed loop.
  fx.db.ProbeMany(fx.rel, 0b01u, fx.keys, hits);
  const DatabaseIndexStats before = fx.db.index_stats();
  for (auto _ : state) {
    hits.assign(fx.keys.size(), {});
    fx.db.ProbeMany(fx.rel, 0b01u, fx.keys, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  const DatabaseIndexStats after = fx.db.index_stats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["keys"] = static_cast<double>(fx.keys.size());
  state.counters["probes"] =
      static_cast<double>(after.probes - before.probes) / iters;
  state.counters["probe_tag_hits"] =
      static_cast<double>(after.tag_hits - before.tag_hits) / iters;
  state.counters["probe_tag_skips"] =
      static_cast<double>(after.tag_skips - before.tag_skips) / iters;
  state.counters["probe_filter_skips"] =
      static_cast<double>(after.filter_skips - before.filter_skips) / iters;
  state.counters["probe_prefetch_batches"] =
      static_cast<double>(after.prefetch_batches - before.prefetch_batches) /
      iters;
  state.SetLabel(std::string(SimdKernelName()) + "/hit" +
                 std::to_string(hit_pct));
}
BENCHMARK(BM_ProbeMany)->Arg(0)->Arg(50)->Arg(100);

}  // namespace
}  // namespace qcont

BENCHMARK_MAIN();
