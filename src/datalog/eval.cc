#include "datalog/eval.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/shard.h"
#include "base/thread_pool.h"
#include "cq/homomorphism.h"
#include "cq/query.h"
#include "datalog/block_join.h"

namespace qcont {

namespace {

// A rule with its relation ids resolved once, before the fixpoint starts:
// the head and every body predicate are interned into the working
// database's pool up front (interning is idempotent and the compile pass is
// serial, so the pool contents are deterministic), and every later firing
// reuses the ids instead of re-resolving names per round. A body predicate
// with no facts yet simply has no rows behind its id until a round derives
// some.
struct CompiledRule {
  const Rule* rule = nullptr;
  RelationId head_rel = kNoRelation;
  std::size_t head_arity = 0;
  std::vector<RelationId> body_rels;
};

std::vector<CompiledRule> CompileRules(const DatalogProgram& program,
                                       Database& db) {
  std::vector<CompiledRule> compiled;
  compiled.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    CompiledRule cr;
    cr.rule = &rule;
    cr.head_rel = db.pool()->Intern(rule.head.predicate());
    cr.head_arity = rule.head.arity();
    cr.body_rels.reserve(rule.body.size());
    for (const Atom& atom : rule.body) {
      cr.body_rels.push_back(db.pool()->Intern(atom.predicate()));
    }
    compiled.push_back(std::move(cr));
  }
  return compiled;
}

// One rule firing: the derived head tuples plus this firing's counters.
// Stats are task-local by construction — no pointer is shared between
// concurrent firings; callers fold `stats` in with Merge at the join.
//
// The indexed engine fires through the interned-row face (`rows` holds the
// head tuples flattened with stride head_arity, `num_rows` counts them so
// arity-0 heads stay countable); the scan engine falls back to string
// tuples in `tuples`. Exactly one of the two shapes is filled, flagged by
// `id_path`.
struct FiredRule {
  std::vector<Tuple> tuples;
  std::vector<ValueId> rows;
  std::size_t num_rows = 0;
  bool id_path = false;
  DatalogEvalStats stats;
};

// Derives the head tuples produced by `cr` over `db`. If `delta_position`
// is >= 0, the body atom at that index is matched against `delta` instead
// of `db` (the semi-naive restriction "at least one new fact"), realized by
// pointing that atom's search at the delta database — no copies, no
// renaming; delta and db share a value pool so the indexed join applies
// (index the delta, probe the full relation, and vice versa: the searcher
// orders atoms by candidate count, so whichever side is smaller drives).
FiredRule FireRule(const CompiledRule& cr, const Database& db,
                   const Database* delta, int delta_position,
                   const HomSearchOptions& options) {
  const Rule& rule = *cr.rule;
  std::vector<const Database*> dbs(rule.body.size(), &db);
  if (delta_position >= 0) dbs[delta_position] = delta;
  FiredRule out;
  RowEnumerator rows(rule.body, dbs, cr.body_rels, /*fixed=*/{},
                     &out.stats.hom, options);
  if (rows.valid()) {
    out.id_path = true;
    std::vector<int> head_slots;
    head_slots.reserve(cr.head_arity);
    for (const Term& v : rule.head.terms()) {
      int slot = rows.VarSlot(v.name());
      QCONT_CHECK_MSG(slot >= 0, "head variable not bound in rule body");
      head_slots.push_back(slot);
    }
    rows.Enumerate([&](std::span<const ValueId> h) {
      for (int slot : head_slots) out.rows.push_back(h[slot]);
      ++out.num_rows;
      ++out.stats.rule_firings;
      return true;
    });
    return out;
  }
  EnumerateHomomorphismsOver(
      rule.body, dbs, cr.body_rels, /*fixed=*/{},
      [&](const Assignment& h) {
        Tuple t;
        t.reserve(rule.head.arity());
        for (const Term& v : rule.head.terms()) {
          t.push_back(h.at(v.name()));
        }
        out.tuples.push_back(std::move(t));
        ++out.stats.rule_firings;
        return true;
      },
      &out.stats.hom, options);
  return out;
}

// Serial merge used by the naive rounds and semi-naive round 0: insert the
// firing's tuples into `all` (and `delta`, if given) immediately, so later
// rules of the same round see them.
void MergeSerial(const CompiledRule& cr, FiredRule& fired, Database& all,
                 Database* delta, bool* changed, DatalogEvalStats* stats) {
  if (fired.id_path) {
    for (std::size_t i = 0; i < fired.num_rows; ++i) {
      std::span<const ValueId> row(fired.rows.data() + i * cr.head_arity,
                                   cr.head_arity);
      if (all.AddRow(cr.head_rel, row)) {
        if (delta != nullptr) delta->AddRow(cr.head_rel, row);
        if (changed != nullptr) *changed = true;
        if (stats != nullptr) ++stats->derived_facts;
      }
    }
    return;
  }
  const std::string& head = cr.rule->head.predicate();
  for (Tuple& t : fired.tuples) {
    bool added;
    if (delta != nullptr) {
      added = all.AddFact(head, t);
      if (added) delta->AddFact(head, std::move(t));
    } else {
      added = all.AddFact(head, std::move(t));
    }
    if (added) {
      if (changed != nullptr) *changed = true;
      if (stats != nullptr) ++stats->derived_facts;
    }
  }
}

// One relation's slice of a round delta in the buffered fast path: rows
// flattened with stride `arity`, kept in first-touch order. Carries no
// dedup structure of its own — the round-barrier `Database::AddRowBatch`
// deduplicates candidates against the database and within the round in one
// shard-parallel pass (DESIGN.md §17), so between rounds the buffer holds
// candidates, and after the barrier it holds the committed survivors.
struct DeltaRows {
  RelationId rel = kNoRelation;
  std::uint32_t arity = 0;
  std::vector<ValueId> rows;

  std::size_t count() const { return arity == 0 ? 0 : rows.size() / arity; }
};

// Semi-naive rounds 1..n over flat per-relation delta buffers instead of a
// per-round Database. Only reachable when every (rule, intensional
// position) join compiled to a valid block plan and every head arity fits
// a probe mask. Each round: split every (plan, non-empty delta buffer)
// join into block-sized pool tasks (so one wide delta still fans out
// across workers), block-join them in parallel against the frozen `all`,
// then commit each head relation's concatenated candidates with one
// shard-parallel AddRowBatch at the barrier. This skips the per-round
// Database entirely — no string-tuple materialization on the round path,
// no second hash insert per derived row — and at P shards the commit
// claims rows into P independent tables with no shared locks. The derived
// database (row order, interning order) and all engine counters are
// bit-identical to the serial AddRow loop for every thread and shard
// count: tasks are merged in (join, block) order, which is the serial
// block order, and AddRowBatch commits survivors in candidate order.
void EvaluateRoundsBuffered(const std::vector<CompiledRule>& compiled,
                            const std::vector<std::vector<BlockJoinPlan>>& plans,
                            const EvalOptions& options, const Database& delta0,
                            Database& all, std::uint64_t* round,
                            DatalogEvalStats* stats) {
  // Round 0's delta arrives as a Database (its rules fire serially and need
  // incremental visibility); flatten it into buffers once.
  std::vector<DeltaRows> delta;
  std::unordered_map<RelationId, std::size_t> slot_of;
  auto buffer_for = [&](std::vector<DeltaRows>& bufs, RelationId rel,
                        std::uint32_t arity) -> DeltaRows& {
    auto [it, added] = slot_of.try_emplace(rel, bufs.size());
    if (added) {
      bufs.emplace_back();
      bufs.back().rel = rel;
      bufs.back().arity = arity;
    }
    return bufs[it->second];
  };
  for (const RelationId rel : delta0.RelationIds()) {
    const std::size_t n = delta0.NumRows(rel);
    if (n == 0) continue;
    DeltaRows& buf = buffer_for(
        delta, rel, static_cast<std::uint32_t>(delta0.Arity(rel)));
    const Database::RowView rows = delta0.Rows(rel);
    buf.rows.reserve(n * buf.arity);
    for (std::size_t i = 0; i < n; ++i) {
      const ValueId* row = rows[static_cast<std::uint32_t>(i)];
      buf.rows.insert(buf.rows.end(), row, row + buf.arity);
    }
  }

  // A (rule, delta position) join restricted to one block of delta rows.
  // Tasks are enumerated join-major, block-minor, and their outputs are
  // concatenated in task order — exactly the order one Execute call over
  // the whole buffer produces, since Execute chunks from row 0 in
  // `block` steps.
  struct DeltaTask {
    const CompiledRule* rule;
    const BlockJoinPlan* plan;
    const DeltaRows* buf;
    std::size_t begin = 0;  // first delta row of the block
    std::size_t end = 0;    // one past the last
  };
  const std::size_t block = std::max<std::size_t>(options.delta_block_rows, 1);
  std::vector<DeltaTask> tasks;
  std::vector<std::uint32_t> added;
  std::vector<ValueId> committed;  // scratch, reused across rounds
  std::size_t total = 0;
  for (const DeltaRows& buf : delta) total += buf.count();
  while (total > 0) {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", (*round)++);
    if (stats != nullptr) ++stats->iterations;
    tasks.clear();
    for (std::size_t r = 0; r < compiled.size(); ++r) {
      const CompiledRule& cr = compiled[r];
      for (std::size_t i = 0; i < cr.rule->body.size(); ++i) {
        if (!plans[r][i].valid()) continue;  // extensional position
        auto it = slot_of.find(cr.body_rels[i]);
        if (it == slot_of.end() || delta[it->second].count() == 0) continue;
        const DeltaRows& buf = delta[it->second];
        const std::size_t n = buf.count();
        for (std::size_t b = 0; b < n; b += block) {
          tasks.push_back(DeltaTask{&cr, &plans[r][i], &buf, b,
                                    std::min(n, b + block)});
        }
      }
    }
    round_span.AddArg("tasks", tasks.size());
    std::vector<FiredRule> fired = ParallelMap<FiredRule>(
        options.exec, tasks.size(), [&](std::size_t t) {
          ObsSpan join_span(options.obs, "datalog/delta_join", "datalog");
          join_span.AddArg("task", t);
          const DeltaTask& task = tasks[t];
          FiredRule out;
          out.id_path = true;
          task.plan->Execute(
              all,
              std::span<const ValueId>(task.buf->rows)
                  .subspan(task.begin * task.buf->arity,
                           (task.end - task.begin) * task.buf->arity),
              task.buf->arity, block, &out.rows, &out.num_rows,
              &out.stats.hom);
          out.stats.rule_firings = out.num_rows;
          return out;
        });
    // Round barrier. Gather each head relation's candidate rows in task
    // order (relations keyed by the first producing task, exactly the
    // first-touch order of the per-task merge this replaces), then commit
    // each relation with one shard-parallel AddRowBatch: it deduplicates
    // against the database and within the batch, assigns global row
    // numbers in candidate order, and reports the committed survivors —
    // which are precisely the next round's delta.
    ObsSpan merge_span(options.obs, "datalog/shard_merge", "datalog");
    std::vector<DeltaRows> next;
    slot_of.clear();
    std::size_t candidates = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (stats != nullptr) stats->Merge(fired[t].stats);
      if (fired[t].num_rows == 0) continue;
      const CompiledRule& cr = *tasks[t].rule;
      DeltaRows& buf = buffer_for(
          next, cr.head_rel, static_cast<std::uint32_t>(cr.head_arity));
      buf.rows.insert(buf.rows.end(), fired[t].rows.begin(),
                      fired[t].rows.end());
      candidates += fired[t].num_rows;
    }
    merge_span.AddArg("candidates", candidates);
    merge_span.AddArg("relations", next.size());
    total = 0;
    for (DeltaRows& buf : next) {
      added.clear();
      const std::size_t got =
          all.AddRowBatch(buf.rel, buf.arity, buf.rows, options.exec, &added);
      if (stats != nullptr) stats->derived_facts += got;
      // Replace the candidates with the committed survivors (in commit
      // order) — the relation's slice of the next delta.
      const Database::RowView view = all.Rows(buf.rel);
      committed.clear();
      committed.reserve(added.size() * buf.arity);
      for (const std::uint32_t g : added) {
        const ValueId* row = view[g];
        committed.insert(committed.end(), row, row + buf.arity);
      }
      buf.rows.assign(committed.begin(), committed.end());
      total += got;
    }
    round_span.AddArg("delta_facts", total);
    delta = std::move(next);
  }
}

Result<Database> EvaluateProgramImpl(const DatalogProgram& program,
                                     const Database& edb,
                                     const EvalOptions& options,
                                     DatalogEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  // Derived facts join the database's relations, each of which holds one
  // arity: an intensional predicate the database stores at another arity
  // is a malformed input, rejected before any fact is derived.
  for (const RelationId rel : edb.RelationIds()) {
    const std::string& name = edb.pool()->NameOf(rel);
    if (edb.NumRows(rel) == 0 || !program.IsIntensional(name)) continue;
    const int arity = program.ArityOf(name);
    if (arity != static_cast<int>(edb.Arity(rel))) {
      return InvalidArgumentError(
          "predicate '" + name + "' has arity " + std::to_string(arity) +
          " in the program but " + std::to_string(edb.Arity(rel)) +
          " in the database");
    }
  }
  ObsSpan eval_span(options.obs, "datalog/eval", "datalog");
  eval_span.AddArg("rules", program.rules().size());
  Database all = edb;
  all.set_obs(options.obs);
  // Physical-only layout change: partition every relation into
  // options.shards hash-shards so the round-barrier merge can claim rows
  // shard-parallel. Answers and engine counters do not depend on it.
  if (options.shards > 1) {
    all.Reshard(std::min(options.shards, kMaxShards));
  }
  const std::vector<CompiledRule> compiled = CompileRules(program, all);
  HomSearchOptions hom_options;
  hom_options.use_index = options.use_index;
  std::uint64_t round = 0;

  if (options.strategy == EvalStrategy::kNaive) {
    // The naive reference strategy is deliberately serial: each rule in a
    // round sees the facts added by the rules before it, so firings are
    // order-dependent by definition.
    bool changed = true;
    while (changed) {
      changed = false;
      ObsSpan round_span(options.obs, "datalog/round", "datalog");
      round_span.AddArg("round", round++);
      if (stats != nullptr) ++stats->iterations;
      for (const CompiledRule& cr : compiled) {
        FiredRule fired = FireRule(cr, all, nullptr, -1, hom_options);
        if (stats != nullptr) stats->Merge(fired.stats);
        MergeSerial(cr, fired, all, nullptr, &changed, stats);
      }
    }
    return all;
  }

  // Semi-naive: round 0 fires all rules on the EDB; later rounds require at
  // least one body atom to match the previous round's delta. The deltas
  // share `all`'s value pool, so the indexed join spans both databases.
  // Round 0 stays serial: like the naive rounds, each rule sees the facts
  // added by the rules before it.
  Database delta(all.pool());
  delta.set_obs(options.obs);
  {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", round++);
    if (stats != nullptr) ++stats->iterations;
    for (const CompiledRule& cr : compiled) {
      FiredRule fired = FireRule(cr, all, nullptr, -1, hom_options);
      if (stats != nullptr) stats->Merge(fired.stats);
      MergeSerial(cr, fired, all, &delta, nullptr, stats);
    }
    round_span.AddArg("delta_facts", delta.NumFacts());
  }
  // Block-join plans are compiled once per (rule, intensional position),
  // after round 0 so body constants resolve against the settled pool. When
  // EVERY join of the program has a valid plan and every head fits a probe
  // mask, the loop runs in buffered-delta mode: each round's delta lives
  // in flat per-relation row buffers instead of a full Database (no string
  // tuples, no domain tracking, no second hash insert per derived row).
  const bool use_block_joins = options.block_delta_joins && options.use_index;
  bool buffered = use_block_joins;
  std::vector<std::vector<BlockJoinPlan>> plans(compiled.size());
  if (use_block_joins) {
    for (std::size_t r = 0; r < compiled.size(); ++r) {
      const CompiledRule& cr = compiled[r];
      if (cr.head_arity < 1 || cr.head_arity > 32) buffered = false;
      plans[r].resize(cr.rule->body.size());
      for (std::size_t i = 0; i < cr.rule->body.size(); ++i) {
        if (!program.IsIntensional(cr.rule->body[i].predicate())) continue;
        plans[r][i] = BlockJoinPlan::Compile(*cr.rule, cr.body_rels,
                                             static_cast<int>(i), *all.pool());
        if (!plans[r][i].valid()) buffered = false;
      }
    }
  }

  if (buffered) {
    EvaluateRoundsBuffered(compiled, plans, options, delta, all, &round,
                           stats);
    return all;
  }
  while (delta.NumFacts() > 0) {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", round++);
    if (stats != nullptr) ++stats->iterations;
    Database next_delta(all.pool());
    next_delta.set_obs(options.obs);
    // The (rule, delta position) joins of a round are independent: they
    // only read `all` and `delta`, which are frozen until the barrier. Each
    // runs as its own pool task into a private FiredRule; the buffers are
    // merged below in task order, so the result is bit-identical to the
    // serial loop for every thread count (including insertion order, which
    // fixes the interning order of new values).
    struct DeltaJoin {
      const CompiledRule* rule;
      int position;
      const BlockJoinPlan* plan;  // null: recursive engine
    };
    std::vector<DeltaJoin> joins;
    for (std::size_t r = 0; r < compiled.size(); ++r) {
      const CompiledRule& cr = compiled[r];
      for (std::size_t i = 0; i < cr.rule->body.size(); ++i) {
        if (!program.IsIntensional(cr.rule->body[i].predicate())) continue;
        if (delta.NumRows(cr.body_rels[i]) == 0) continue;
        const BlockJoinPlan* plan =
            use_block_joins && plans[r][i].valid() ? &plans[r][i] : nullptr;
        joins.push_back(DeltaJoin{&cr, static_cast<int>(i), plan});
      }
    }
    round_span.AddArg("joins", joins.size());
    std::vector<FiredRule> fired = ParallelMap<FiredRule>(
        options.exec, joins.size(), [&](std::size_t t) {
          ObsSpan join_span(options.obs, "datalog/delta_join", "datalog");
          join_span.AddArg("task", t);
          if (joins[t].plan != nullptr) {
            FiredRule out;
            out.id_path = true;
            joins[t].plan->Execute(all, delta, options.delta_block_rows,
                                   &out.rows, &out.num_rows, &out.stats.hom);
            out.stats.rule_firings = out.num_rows;
            return out;
          }
          return FireRule(*joins[t].rule, all, &delta, joins[t].position,
                          hom_options);
        });
    std::vector<std::span<const std::uint32_t>> hits;
    for (std::size_t t = 0; t < joins.size(); ++t) {
      if (stats != nullptr) stats->Merge(fired[t].stats);
      const CompiledRule& cr = *joins[t].rule;
      if (fired[t].id_path) {
        const std::size_t arity = cr.head_arity;
        if (fired[t].num_rows > 0 && arity >= 1 && arity <= 32) {
          // Batched dedup against `all`: one ProbeMany over the head
          // relation's primary table resolves every candidate row of this
          // firing in bucket order.
          const std::uint32_t mask =
              arity == 32 ? ~0u : ((1u << arity) - 1u);
          hits.assign(fired[t].num_rows, {});
          all.ProbeMany(cr.head_rel, mask, std::span<const ValueId>(fired[t].rows),
                        std::span<std::span<const std::uint32_t>>(hits));
          for (std::size_t i = 0; i < fired[t].num_rows; ++i) {
            if (hits[i].empty()) {
              next_delta.AddRow(
                  cr.head_rel,
                  std::span<const ValueId>(fired[t].rows.data() + i * arity,
                                           arity));
            }
          }
        } else {
          for (std::size_t i = 0; i < fired[t].num_rows; ++i) {
            std::span<const ValueId> row(fired[t].rows.data() + i * arity,
                                         arity);
            if (!all.HasRow(cr.head_rel, row)) {
              next_delta.AddRow(cr.head_rel, row);
            }
          }
        }
      } else {
        const std::string& head = cr.rule->head.predicate();
        for (Tuple& tuple : fired[t].tuples) {
          if (!all.HasFact(head, tuple)) {
            next_delta.AddFact(head, std::move(tuple));
          }
        }
      }
    }
    for (RelationId rel : next_delta.RelationIds()) {
      const std::size_t n = next_delta.NumRows(rel);
      for (std::size_t i = 0; i < n; ++i) {
        if (all.AddRow(rel, next_delta.Row(rel, i)) && stats != nullptr) {
          ++stats->derived_facts;
        }
      }
    }
    round_span.AddArg("delta_facts", next_delta.NumFacts());
    delta = std::move(next_delta);
  }
  return all;
}

}  // namespace

// Publish funnel: with a metric sink attached, gather the run's counters
// into a run-local struct, publish once at the end (the same deltas that
// merge into the caller's legacy sink), and mirror the working database's
// index counters as `db.*` gauges (including the open-addressing probe
// table's collision and resize counters).
Result<Database> EvaluateProgram(const DatalogProgram& program,
                                 const Database& edb,
                                 const EvalOptions& options,
                                 DatalogEvalStats* stats) {
  MetricRegistry* metrics = ObsMetrics(options.obs);
  if (metrics == nullptr) {
    return EvaluateProgramImpl(program, edb, options, stats);
  }
  DatalogEvalStats run;
  Result<Database> result = EvaluateProgramImpl(program, edb, options, &run);
  run.PublishTo(metrics, "datalog.eval");
  if (result.ok()) {
    const DatabaseIndexStats idx = (*result).index_stats();
    metrics->SetGauge("db.indexes_built", idx.indexes_built);
    metrics->SetGauge("db.probes", idx.probes);
    metrics->SetGauge("db.rows_indexed", idx.rows_indexed);
    metrics->SetGauge("db.probe_table.probes", idx.probes);
    metrics->SetGauge("db.probe_table.collisions", idx.probe_collisions);
    metrics->SetGauge("db.probe_table.resizes", idx.probe_resizes);
    metrics->SetGauge("db.probe.tag_hits", idx.tag_hits);
    metrics->SetGauge("db.probe.tag_skips", idx.tag_skips);
    metrics->SetGauge("db.probe.filter_skips", idx.filter_skips);
    metrics->SetGauge("db.probe.prefetch_batches", idx.prefetch_batches);
    const DatabaseShardStats sh = (*result).shard_stats();
    metrics->SetGauge("db.shard.count", static_cast<std::uint64_t>(sh.shards));
    metrics->SetGauge("db.shard.rows_total", sh.rows_total);
    metrics->SetGauge("db.shard.rows_max", sh.rows_max_shard);
    metrics->SetGauge("db.shard.rows_min", sh.rows_min_shard);
    metrics->SetGauge("db.shard.imbalance_pct",
                      static_cast<std::uint64_t>(sh.imbalance_pct));
    metrics->SetGauge("db.shard.occupancy_pct",
                      static_cast<std::uint64_t>(sh.max_occupancy_pct));
  }
  if (stats != nullptr) stats->Merge(run);
  return result;
}

Result<Database> EvaluateProgram(const DatalogProgram& program,
                                 const Database& edb, EvalStrategy strategy,
                                 DatalogEvalStats* stats) {
  EvalOptions options;
  options.strategy = strategy;
  return EvaluateProgram(program, edb, options, stats);
}

Result<std::vector<Tuple>> EvaluateGoal(const DatalogProgram& program,
                                        const Database& edb,
                                        const EvalOptions& options,
                                        DatalogEvalStats* stats) {
  QCONT_ASSIGN_OR_RETURN(Database all,
                         EvaluateProgram(program, edb, options, stats));
  const RelationId goal = all.RelationIdOf(program.goal_predicate());
  const std::size_t n = all.NumRows(goal);
  const std::size_t arity = all.Arity(goal);
  // Sorting string tuples costs a string compare per comparison; instead
  // rank the distinct values by name once and sort the interned rows under
  // that rank — element-wise it is the same order, so the output is
  // byte-identical to std::sort over the tuples. Strings are built only
  // for the output, from the ranked names.
  std::unordered_map<ValueId, std::uint32_t> rank;
  for (std::size_t r = 0; r < n; ++r) {
    for (const ValueId v : all.Row(goal, r)) rank.emplace(v, 0);
  }
  std::vector<std::pair<std::string_view, ValueId>> named;
  named.reserve(rank.size());
  for (const auto& kv : rank) {
    named.emplace_back(all.pool()->NameOf(kv.first), kv.first);
  }
  std::sort(named.begin(), named.end());
  for (std::size_t i = 0; i < named.size(); ++i) {
    rank[named[i].second] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> keys(n * arity);
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const ValueId> row = all.Row(goal, r);
    for (std::size_t j = 0; j < arity; ++j) keys[r * arity + j] = rank[row[j]];
  }
  std::vector<std::uint32_t> order(n);
  for (std::size_t r = 0; r < n; ++r) order[r] = static_cast<std::uint32_t>(r);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint32_t* ka = keys.data() + a * arity;
              const std::uint32_t* kb = keys.data() + b * arity;
              return std::lexicographical_compare(ka, ka + arity, kb,
                                                  kb + arity);
            });
  std::vector<Tuple> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t* key = keys.data() + order[i] * arity;
    out[i].reserve(arity);
    for (std::size_t j = 0; j < arity; ++j) {
      out[i].emplace_back(named[key[j]].first);
    }
  }
  return out;
}

Result<std::vector<Tuple>> EvaluateGoal(const DatalogProgram& program,
                                        const Database& edb,
                                        EvalStrategy strategy,
                                        DatalogEvalStats* stats) {
  EvalOptions options;
  options.strategy = strategy;
  return EvaluateGoal(program, edb, options, stats);
}

Result<bool> UcqContainedInDatalog(const UnionQuery& theta,
                                   const DatalogProgram& program,
                                   const EvalOptions& options,
                                   DatalogEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(program.Validate());
  if (static_cast<int>(theta.arity()) != program.GoalArity()) {
    return InvalidArgumentError("UCQ arity differs from goal arity");
  }
  for (const ConjunctiveQuery& disjunct : theta.disjuncts()) {
    Database canonical = CanonicalDatabase(disjunct);
    QCONT_ASSIGN_OR_RETURN(Database derived,
                           EvaluateProgram(program, canonical, options, stats));
    if (!derived.HasFact(program.goal_predicate(), CanonicalHead(disjunct))) {
      return false;
    }
  }
  return true;
}

Result<bool> UcqContainedInDatalog(const UnionQuery& theta,
                                   const DatalogProgram& program,
                                   DatalogEvalStats* stats) {
  return UcqContainedInDatalog(theta, program, EvalOptions(), stats);
}

}  // namespace qcont
