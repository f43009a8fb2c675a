#include "cq/containment.h"

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "cq/database.h"
#include "obs/obs.h"

namespace qcont {

namespace {

void CollectConstants(const ConjunctiveQuery& cq,
                      std::vector<const std::string*>* out) {
  for (const Atom& a : cq.atoms()) {
    for (const Term& t : a.terms()) {
      if (t.is_constant()) out->push_back(&t.name());
    }
  }
}

std::vector<const std::string*> ConstantsOf(const UnionQuery& ucq) {
  std::vector<const std::string*> out;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) CollectConstants(cq, &out);
  return out;
}

// The left-hand query as it may be frozen. CanonicalDatabase freezes
// variables and constants alike by their bare name, so a variable named
// like a constant of either side would turn into that constant. Such
// variables are renamed apart into `*storage`; otherwise (always, on
// constant-free queries) `left` itself is returned and nothing is copied.
const ConjunctiveQuery& RenamedApart(
    const ConjunctiveQuery& left,
    const std::vector<const std::string*>& right_constants,
    std::optional<ConjunctiveQuery>* storage) {
  std::vector<const std::string*> constants = right_constants;
  CollectConstants(left, &constants);
  if (constants.empty()) return left;
  auto is_constant = [&](const std::string& name) {
    for (const std::string* c : constants) {
      if (*c == name) return true;
    }
    return false;
  };
  bool collides = false;
  for (const Atom& a : left.atoms()) {
    for (const Term& t : a.terms()) {
      collides = collides || (t.is_variable() && is_constant(t.name()));
    }
  }
  if (!collides) return left;
  std::unordered_set<std::string> taken;
  for (const Atom& a : left.atoms()) {
    for (const Term& t : a.terms()) taken.insert(t.name());
  }
  for (const std::string* c : constants) taken.insert(*c);
  std::unordered_map<std::string, std::string> fresh;
  auto rename = [&](const Term& t) {
    if (!t.is_variable() || !is_constant(t.name())) return t;
    auto [it, inserted] = fresh.emplace(t.name(), std::string());
    for (int i = 1; inserted && it->second.empty(); ++i) {
      std::string name = t.name() + "~" + std::to_string(i);
      if (taken.insert(name).second) it->second = std::move(name);
    }
    return Term::Variable(it->second);
  };
  std::vector<Term> head;
  for (const Term& t : left.head()) head.push_back(rename(t));
  std::vector<Atom> atoms;
  for (const Atom& a : left.atoms()) {
    std::vector<Term> terms;
    for (const Term& t : a.terms()) terms.push_back(rename(t));
    atoms.emplace_back(a.predicate(), std::move(terms));
  }
  storage->emplace(std::move(head), std::move(atoms));
  return **storage;
}

// Chandra-Merlin check of theta_prime against the prebuilt canonical
// database / frozen head of theta (all inputs already validated).
bool ContainedInDisjunct(const ConjunctiveQuery& theta_prime,
                         const Database& canonical, const Tuple& frozen_head,
                         HomSearchStats* stats) {
  Assignment fixed;
  for (std::size_t i = 0; i < theta_prime.head().size(); ++i) {
    const std::string& var = theta_prime.head()[i].name();
    auto it = fixed.find(var);
    if (it != fixed.end()) {
      // Repeated head variable in theta': the corresponding positions of
      // theta's head must be frozen to the same value.
      if (it->second != frozen_head[i]) return false;
    } else {
      fixed.emplace(var, frozen_head[i]);
    }
  }
  return FindHomomorphism(theta_prime, canonical, fixed, stats).has_value();
}

// Sagiv-Yannakakis inner step: theta ⊆ some disjunct of theta_prime. The
// canonical database of theta is built once and shared across disjuncts.
Result<bool> CqInUcqPrevalidated(const ConjunctiveQuery& theta,
                                 const UnionQuery& theta_prime,
                                 HomSearchStats* stats) {
  std::optional<ConjunctiveQuery> renamed;
  const ConjunctiveQuery& frozen =
      RenamedApart(theta, ConstantsOf(theta_prime), &renamed);
  Database canonical = CanonicalDatabase(frozen);
  Tuple frozen_head = CanonicalHead(frozen);
  for (const ConjunctiveQuery& disjunct : theta_prime.disjuncts()) {
    if (theta.arity() != disjunct.arity()) {
      return InvalidArgumentError("containment between queries of arities " +
                                  std::to_string(theta.arity()) + " and " +
                                  std::to_string(disjunct.arity()));
    }
    if (ContainedInDisjunct(disjunct, canonical, frozen_head, stats)) {
      return true;
    }
  }
  return false;
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
// The serial algorithm walks lefts in order until the first one refuted (or
// the first arity error), and for each left walks rights in order until the
// first one that folds in. The parallel version evaluates pairs
// speculatively across the pool, then *commits* outcomes by replaying that
// serial walk over the finished grid: only the pairs the serial walk would
// have executed contribute to `stats`, so answers, errors, and counter
// totals are bit-identical for every thread count. Speculative pairs that
// provably cannot be reached by the serial walk (they lie beyond a known
// fold-in/error on their row, or on a row below a known stopper row) are
// skipped via atomic frontiers — that is the cancellation path, and it only
// affects wall-clock time, never results.
// ---------------------------------------------------------------------------

struct PairOutcome {
  bool ran = false;
  bool contained = false;
  bool arity_error = false;
  HomSearchStats stats;
};

Result<bool> GridContained(const ConjunctiveQuery* lefts, std::size_t nl,
                           const UnionQuery& theta_prime, HomSearchStats* stats,
                           const HomSearchOptions& options) {
  const std::vector<ConjunctiveQuery>& rights = theta_prime.disjuncts();
  const std::size_t nr = rights.size();

  ObsSpan grid_span(options.obs, "ucq/grid");
  grid_span.AddArg("rows", nl);
  grid_span.AddArg("cols", nr);

  // Canonical databases are built up front: all pairs of one row share one
  // database (and its lazily built indexes — safe under concurrent const
  // probes, see Database).
  std::vector<Database> canonical;
  std::vector<Tuple> heads;
  canonical.reserve(nl);
  heads.reserve(nl);
  const std::vector<const std::string*> right_constants =
      ConstantsOf(theta_prime);
  for (std::size_t i = 0; i < nl; ++i) {
    std::optional<ConjunctiveQuery> renamed;
    const ConjunctiveQuery& frozen =
        RenamedApart(lefts[i], right_constants, &renamed);
    canonical.push_back(CanonicalDatabase(frozen));
    heads.push_back(CanonicalHead(frozen));
  }

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
    if (lefts[i].arity() != rights[j].arity()) {
      out.arity_error = true;
      AtomicMin(&first_err[i], j);
    } else {
      out.contained =
          ContainedInDisjunct(rights[j], canonical[i], heads[i], &out.stats);
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
      if (out.arity_error) {
        return InvalidArgumentError("containment between queries of arities " +
                                    std::to_string(lefts[i].arity()) + " and " +
                                    std::to_string(rights[j].arity()));
      }
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

// Dispatches between the serial walk and the pair grid. `lefts` spans the
// already-validated left-hand disjuncts.
Result<bool> ContainedPrevalidatedImpl(const ConjunctiveQuery* lefts,
                                       std::size_t nl,
                                       const UnionQuery& theta_prime,
                                       HomSearchStats* stats,
                                       const HomSearchOptions& options) {
  if (options.exec.threads <= 1 || nl * theta_prime.disjuncts().size() <= 1) {
    for (std::size_t i = 0; i < nl; ++i) {
      ObsSpan pair_span(options.obs, "ucq/pair");
      pair_span.AddArg("row", i);
      QCONT_ASSIGN_OR_RETURN(
          bool contained,
          CqInUcqPrevalidated(lefts[i], theta_prime, stats));
      if (!contained) return false;
    }
    return true;
  }
  return GridContained(lefts, nl, theta_prime, stats, options);
}

// Publish funnel for the UCQ entry points: when a metric sink is attached,
// the run's hom-search counters are gathered into a run-local struct and
// published once at the end — the same deltas that merge into the caller's
// legacy sink, which is what keeps the two views equal.
Result<bool> ContainedPrevalidated(const ConjunctiveQuery* lefts,
                                   std::size_t nl,
                                   const UnionQuery& theta_prime,
                                   HomSearchStats* stats,
                                   const HomSearchOptions& options) {
  MetricRegistry* metrics = ObsMetrics(options.obs);
  if (metrics == nullptr) {
    return ContainedPrevalidatedImpl(lefts, nl, theta_prime, stats, options);
  }
  HomSearchStats run;
  Result<bool> result =
      ContainedPrevalidatedImpl(lefts, nl, theta_prime, &run, options);
  run.PublishTo(metrics, "cq.contain.hom");
  if (stats != nullptr) stats->Merge(run);
  return result;
}

}  // namespace

Result<bool> CqContained(const ConjunctiveQuery& theta,
                         const ConjunctiveQuery& theta_prime,
                         HomSearchStats* stats,
                         const HomSearchOptions& options) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(theta_prime.Validate());
  if (theta.arity() != theta_prime.arity()) {
    return InvalidArgumentError("containment between queries of arities " +
                                std::to_string(theta.arity()) + " and " +
                                std::to_string(theta_prime.arity()));
  }
  std::vector<const std::string*> right_constants;
  CollectConstants(theta_prime, &right_constants);
  std::optional<ConjunctiveQuery> renamed;
  const ConjunctiveQuery& frozen =
      RenamedApart(theta, right_constants, &renamed);
  Database canonical = CanonicalDatabase(frozen);
  ObsSpan pair_span(options.obs, "ucq/pair");
  MetricRegistry* metrics = ObsMetrics(options.obs);
  if (metrics == nullptr) {
    return ContainedInDisjunct(theta_prime, canonical, CanonicalHead(frozen),
                               stats);
  }
  HomSearchStats run;
  const bool result = ContainedInDisjunct(theta_prime, canonical,
                                          CanonicalHead(frozen), &run);
  run.PublishTo(metrics, "cq.contain.hom");
  if (stats != nullptr) stats->Merge(run);
  return result;
}

Result<bool> CqContainedInUcq(const ConjunctiveQuery& theta,
                              const UnionQuery& theta_prime,
                              HomSearchStats* stats,
                              const HomSearchOptions& options) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  for (const ConjunctiveQuery& disjunct : theta_prime.disjuncts()) {
    QCONT_RETURN_IF_ERROR(disjunct.Validate());
  }
  return ContainedPrevalidated(&theta, 1, theta_prime, stats, options);
}

Result<bool> UcqContained(const UnionQuery& theta, const UnionQuery& theta_prime,
                          HomSearchStats* stats,
                          const HomSearchOptions& options) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(theta_prime.Validate());
  return ContainedPrevalidated(theta.disjuncts().data(),
                               theta.disjuncts().size(), theta_prime, stats,
                               options);
}

Result<bool> UcqEquivalent(const UnionQuery& a, const UnionQuery& b,
                           HomSearchStats* stats,
                           const HomSearchOptions& options) {
  QCONT_ASSIGN_OR_RETURN(bool ab, UcqContained(a, b, stats, options));
  if (!ab) return false;
  return UcqContained(b, a, stats, options);
}

}  // namespace qcont
