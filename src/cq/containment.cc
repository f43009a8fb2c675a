#include "cq/containment.h"

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "cq/small_cq.h"
#include "obs/obs.h"

namespace qcont {

namespace {

Status ArityCheck(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  if (a.arity() == b.arity()) return Status::Ok();
  return InvalidArgumentError("containment between queries of arities " +
                              std::to_string(a.arity()) + " and " +
                              std::to_string(b.arity()));
}

// One Sagiv–Yannakakis run: `small` holds the left-hand disjuncts as
// [0, nl) and the right-hand ones as [nl, nl + nr), compiled from `cqs`.
struct Run {
  const SmallUcq& small;
  const ConjunctiveQuery* const* cqs;
  std::size_t nl;
  std::size_t nr;
};

// The serial walk: lefts in order until the first one refuted (or the
// first arity error), and for each left the rights in order until the
// first one that folds in.
Result<bool> SerialContained(const Run& run, HomSearchStats* stats,
                             const HomSearchOptions& options) {
  for (std::size_t i = 0; i < run.nl; ++i) {
    ObsSpan pair_span(options.obs, "ucq/pair");
    pair_span.AddArg("row", i);
    bool found = false;
    for (std::size_t j = 0; j < run.nr && !found; ++j) {
      QCONT_RETURN_IF_ERROR(ArityCheck(*run.cqs[i], *run.cqs[run.nl + j]));
      found = run.small.Contained(i, run.nl + j, stats);
    }
    if (!found) return false;
  }
  return true;
}

inline void AtomicMin(std::atomic<std::size_t>* a, std::size_t v) {
  std::size_t cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Parallel Sagiv-Yannakakis: the disjunct×disjunct pair grid.
//
// The parallel version evaluates the serial walk's pairs speculatively
// across the pool, every cell on the one compiled kernel (read-only), then
// *commits* outcomes by replaying that serial walk over the finished grid:
// only the pairs the serial walk would have executed contribute to
// `stats`, so answers, errors, and counter totals are bit-identical for
// every thread count. Speculative pairs that provably cannot be reached by
// the serial walk (they lie beyond a known fold-in/error on their row, or
// on a row below a known stopper row) are skipped via atomic frontiers —
// that is the cancellation path, and it only affects wall-clock time,
// never results.
// ---------------------------------------------------------------------------

struct PairOutcome {
  bool ran = false;
  bool contained = false;
  bool arity_error = false;
  HomSearchStats stats;
};

Result<bool> GridContained(const Run& run, HomSearchStats* stats,
                           const HomSearchOptions& options) {
  const std::size_t nl = run.nl;
  const std::size_t nr = run.nr;

  ObsSpan grid_span(options.obs, "ucq/grid");
  grid_span.AddArg("rows", nl);
  grid_span.AddArg("cols", nr);

  std::vector<PairOutcome> grid(nl * nr);
  // Cancellation frontiers. first_stop[i] = smallest j on row i known to
  // end the serial row walk (a fold-in or an arity error); stop_row = the
  // smallest row known to end the serial walk over rows (every pair ran,
  // and the first fold-in does not precede the first error — i.e. the row
  // is refuted or errors out). Only *observed* outcomes enter a frontier,
  // which is what guarantees that every pair on the serial path runs.
  std::vector<std::atomic<std::size_t>> first_hit(nl);
  std::vector<std::atomic<std::size_t>> first_err(nl);
  std::vector<std::atomic<std::size_t>> completed(nl);
  for (std::size_t i = 0; i < nl; ++i) {
    first_hit[i].store(nr, std::memory_order_relaxed);
    first_err[i].store(nr, std::memory_order_relaxed);
    completed[i].store(0, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> stop_row{nl};

  ParallelFor(options.exec, nl * nr, [&](std::size_t idx) {
    const std::size_t i = idx / nr;
    const std::size_t j = idx % nr;
    if (i > stop_row.load(std::memory_order_relaxed)) return;
    const std::size_t hit = first_hit[i].load(std::memory_order_relaxed);
    const std::size_t err = first_err[i].load(std::memory_order_relaxed);
    if (j > hit || j > err) return;
    ObsSpan cell_span(options.obs, "ucq/grid_cell");
    cell_span.AddArg("row", i);
    cell_span.AddArg("col", j);
    PairOutcome& out = grid[idx];
    out.ran = true;
    if (run.cqs[i]->arity() != run.cqs[nl + j]->arity()) {
      out.arity_error = true;
      AtomicMin(&first_err[i], j);
    } else {
      out.contained = run.small.Contained(i, nl + j, &out.stats);
      if (out.contained) AtomicMin(&first_hit[i], j);
    }
    if (completed[i].fetch_add(1, std::memory_order_acq_rel) + 1 == nr) {
      // Row finished: it stops the serial walk unless the first fold-in
      // strictly precedes the first error.
      if (first_hit[i].load(std::memory_order_relaxed) >=
          first_err[i].load(std::memory_order_relaxed) ||
          first_hit[i].load(std::memory_order_relaxed) >= nr) {
        AtomicMin(&stop_row, i);
      }
    }
  });

  // Deterministic commit: replay the serial walk over the finished grid.
  for (std::size_t i = 0; i < nl; ++i) {
    bool found = false;
    for (std::size_t j = 0; j < nr; ++j) {
      const PairOutcome& out = grid[i * nr + j];
      QCONT_CHECK_MSG(out.ran, "speculative skip removed a serial-path pair");
      if (out.arity_error) return ArityCheck(*run.cqs[i], *run.cqs[nl + j]);
      if (stats != nullptr) stats->Merge(out.stats);
      if (out.contained) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// Publish funnel for the entry points: when a metric sink is attached, the
// run's hom-search counters are gathered into a run-local struct and
// published once at the end — the same deltas that merge into the caller's
// legacy sink, which is what keeps the two views equal.
template <typename Decide>
Result<bool> Published(HomSearchStats* stats, const HomSearchOptions& options,
                       Decide decide) {
  MetricRegistry* metrics = ObsMetrics(options.obs);
  if (metrics == nullptr) return decide(stats);
  HomSearchStats run;
  Result<bool> result = decide(&run);
  run.PublishTo(metrics, "cq.contain.hom");
  if (stats != nullptr) stats->Merge(run);
  return result;
}

// Compiles lefts ++ rights into one kernel and decides lefts ⊆ rights,
// serially or on the pair grid. The kernel's compile performs Validate's
// checks, so its error is the first failing query's Validate status.
Result<bool> Contained(const ConjunctiveQuery* lefts, std::size_t nl,
                       const std::vector<ConjunctiveQuery>& rights,
                       HomSearchStats* stats,
                       const HomSearchOptions& options) {
  const std::size_t nr = rights.size();
  StackBuffer<const ConjunctiveQuery*, 16> cqs(nl + nr);
  for (std::size_t i = 0; i < nl; ++i) cqs[i] = &lefts[i];
  for (std::size_t j = 0; j < nr; ++j) cqs[nl + j] = &rights[j];
  SmallUcq small;
  QCONT_RETURN_IF_ERROR(small.Compile(cqs.data(), nl + nr));
  const Run run{small, cqs.data(), nl, nr};
  return Published(stats, options, [&](HomSearchStats* sink) {
    if (options.exec.threads <= 1 || nl * nr <= 1) {
      return SerialContained(run, sink, options);
    }
    return GridContained(run, sink, options);
  });
}

}  // namespace

Result<bool> CqContained(const ConjunctiveQuery& theta,
                         const ConjunctiveQuery& theta_prime,
                         HomSearchStats* stats,
                         const HomSearchOptions& options) {
  const ConjunctiveQuery* const pair[2] = {&theta, &theta_prime};
  SmallUcq small;
  QCONT_RETURN_IF_ERROR(small.Compile(pair, 2));
  QCONT_RETURN_IF_ERROR(ArityCheck(theta, theta_prime));
  ObsSpan pair_span(options.obs, "ucq/pair");
  return Published(stats, options, [&](HomSearchStats* sink) {
    return Result<bool>(small.Contained(0, 1, sink));
  });
}

Result<bool> CqContainedInUcq(const ConjunctiveQuery& theta,
                              const UnionQuery& theta_prime,
                              HomSearchStats* stats,
                              const HomSearchOptions& options) {
  return Contained(&theta, 1, theta_prime.disjuncts(), stats, options);
}

Result<bool> UcqContained(const UnionQuery& theta, const UnionQuery& theta_prime,
                          HomSearchStats* stats,
                          const HomSearchOptions& options) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(theta_prime.Validate());
  return Contained(theta.disjuncts().data(), theta.disjuncts().size(),
                   theta_prime.disjuncts(), stats, options);
}

Result<bool> UcqEquivalent(const UnionQuery& a, const UnionQuery& b,
                           HomSearchStats* stats,
                           const HomSearchOptions& options) {
  QCONT_ASSIGN_OR_RETURN(bool ab, UcqContained(a, b, stats, options));
  if (!ab) return false;
  return UcqContained(b, a, stats, options);
}

}  // namespace qcont
