#include "datalog/eval.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/hash.h"
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

// Delta rows per block-join task: bounds frontier memory, and splits one
// (rule, delta position) join of a wide delta over several pool tasks.
constexpr std::size_t kDeltaBlockRows = 1024;

// One rule firing: the derived head rows, flattened with stride
// head_arity (`num_rows` counts them, so arity-0 heads stay countable),
// plus this firing's counters. Stats are task-local by construction — no
// pointer is shared between concurrent firings; callers fold `stats` in
// with Merge at the join.
struct FiredRule {
  std::vector<ValueId> rows;
  std::size_t num_rows = 0;
  DatalogEvalStats stats;
};

// Derives the head rows produced by `cr` over `all`: every match of the
// rule body, as interned head rows.
FiredRule FireRule(const CompiledRule& cr, const Database& all) {
  const Rule& rule = *cr.rule;
  FiredRule out;
  RowEnumerator rows(rule.body, all, cr.body_rels, &out.stats.hom);
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

// One relation's slice of a round delta: rows flattened with stride
// `arity`, kept in first-touch order, with an explicit row count (an
// arity-0 relation's one row takes no space). Carries no dedup structure
// of its own — the round-barrier `Database::AddRowBatch` deduplicates
// candidates against the database and within the round in one pass, so
// between rounds the buffer holds
// candidates, and after the barrier it holds the committed survivors.
struct DeltaRows {
  RelationId rel = kNoRelation;
  std::uint32_t arity = 0;
  std::size_t count = 0;
  std::vector<ValueId> rows;
};

// A round's delta: one DeltaRows per relation, in first-touch order.
struct RoundDelta {
  std::vector<DeltaRows> bufs;
  std::unordered_map<RelationId, std::size_t> slot_of;

  DeltaRows& For(RelationId rel, std::size_t arity) {
    auto [it, added] = slot_of.try_emplace(rel, bufs.size());
    if (added) {
      bufs.emplace_back();
      bufs.back().rel = rel;
      bufs.back().arity = static_cast<std::uint32_t>(arity);
    }
    return bufs[it->second];
  }
  const DeltaRows* Find(RelationId rel) const {
    auto it = slot_of.find(rel);
    return it == slot_of.end() ? nullptr : &bufs[it->second];
  }
  std::size_t Total() const {
    std::size_t total = 0;
    for (const DeltaRows& buf : bufs) total += buf.count;
    return total;
  }
};

// Serial merge used by the naive rounds and semi-naive round 0: add the
// firing's rows to `all` immediately, so later rules of the same round see
// them, and append the new ones to `delta`, if given. Returns how many
// were new.
std::size_t MergeSerial(const CompiledRule& cr, const FiredRule& fired,
                        Database& all, DeltaRows* delta) {
  std::size_t added = 0;
  for (std::size_t i = 0; i < fired.num_rows; ++i) {
    const std::span<const ValueId> row(fired.rows.data() + i * cr.head_arity,
                                       cr.head_arity);
    if (!all.AddRow(cr.head_rel, row)) continue;
    if (delta != nullptr) {
      delta->rows.insert(delta->rows.end(), row.begin(), row.end());
      ++delta->count;
    }
    ++added;
  }
  return added;
}

// Semi-naive rounds 1..n, the one delta loop: every round's delta lives in
// flat per-relation row buffers, never in a Database. Each round: split
// every (rule, intensional position) join with a non-empty delta into
// block-sized pool tasks (so one wide delta still fans out across
// workers), block-join them in parallel against the frozen `all`, then
// commit each head relation's concatenated candidates with one
// AddRowBatch at the barrier (a propositional head's one row with
// AddRow). The derived database (row order, interning order) and all
// engine counters are bit-identical for every thread count: tasks are
// merged in (join, block) order, which is the serial block order, and
// AddRowBatch commits survivors in candidate order.
void EvaluateRounds(const DatalogProgram& program,
                    const std::vector<CompiledRule>& compiled,
                    const EvalOptions& options, RoundDelta delta,
                    Database& all, std::uint64_t* round,
                    DatalogEvalStats* stats) {
  // One plan per (rule, intensional position), compiled once; joins are
  // kept rule-major, position-minor.
  struct DeltaJoin {
    const CompiledRule* rule;
    int position;
    BlockJoinPlan plan;
  };
  std::vector<DeltaJoin> joins;
  for (const CompiledRule& cr : compiled) {
    for (std::size_t i = 0; i < cr.rule->body.size(); ++i) {
      if (!program.IsIntensional(cr.rule->body[i].predicate())) continue;
      const int pos = static_cast<int>(i);
      joins.push_back(DeltaJoin{
          &cr, pos, BlockJoinPlan::Compile(*cr.rule, cr.body_rels, pos)});
    }
  }
  // A join restricted to one block of delta rows. Tasks are enumerated
  // join-major, block-minor, and their outputs are concatenated in task
  // order — exactly the order one Execute call over the whole buffer
  // produces, since Execute chunks from row 0 in kDeltaBlockRows steps.
  struct DeltaTask {
    const DeltaJoin* join;
    const DeltaRows* buf;
    std::size_t begin = 0;  // first delta row of the block
    std::size_t end = 0;    // one past the last
  };
  std::vector<DeltaTask> tasks;
  std::vector<std::uint32_t> added;  // scratch, reused across rounds
  std::size_t total = delta.Total();
  while (total > 0) {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", (*round)++);
    if (stats != nullptr) ++stats->iterations;
    tasks.clear();
    for (const DeltaJoin& join : joins) {
      const DeltaRows* buf =
          delta.Find(join.rule->body_rels[join.position]);
      if (buf == nullptr || buf->count == 0) continue;
      const std::size_t n = buf->count;
      for (std::size_t b = 0; b < n; b += kDeltaBlockRows) {
        tasks.push_back(
            DeltaTask{&join, buf, b, std::min(n, b + kDeltaBlockRows)});
      }
    }
    round_span.AddArg("tasks", tasks.size());
    std::vector<FiredRule> fired = ParallelMap<FiredRule>(
        options.exec, tasks.size(), [&](std::size_t t) {
          ObsSpan join_span(options.obs, "datalog/delta_join", "datalog");
          join_span.AddArg("task", t);
          const DeltaTask& task = tasks[t];
          FiredRule out;
          const std::uint32_t arity = task.buf->arity;
          task.join->plan.Execute(
              all,
              std::span<const ValueId>(task.buf->rows)
                  .subspan(task.begin * arity, (task.end - task.begin) * arity),
              task.end - task.begin, kDeltaBlockRows, &out.rows,
              &out.num_rows, &out.stats.hom);
          out.stats.rule_firings = out.num_rows;
          return out;
        });
    // Round barrier. Gather each head relation's candidate rows in task
    // order (relations keyed by the first producing task), then commit
    // each relation with one AddRowBatch: it deduplicates against the
    // database and within the batch, assigns row numbers in candidate
    // order, and reports the committed survivors — which are precisely the
    // next round's delta.
    ObsSpan merge_span(options.obs, "datalog/merge", "datalog");
    RoundDelta next;
    std::size_t candidates = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (stats != nullptr) stats->Merge(fired[t].stats);
      if (fired[t].num_rows == 0) continue;
      const CompiledRule& cr = *tasks[t].join->rule;
      DeltaRows& buf = next.For(cr.head_rel, cr.head_arity);
      buf.rows.insert(buf.rows.end(), fired[t].rows.begin(),
                      fired[t].rows.end());
      buf.count += fired[t].num_rows;
      candidates += fired[t].num_rows;
    }
    merge_span.AddArg("candidates", candidates);
    merge_span.AddArg("relations", next.bufs.size());
    for (DeltaRows& buf : next.bufs) {
      if (buf.arity == 0) {
        // A propositional head has a single row, the empty one.
        buf.count = all.AddRow(buf.rel, {}) ? 1 : 0;
      } else {
        added.clear();
        buf.count = all.AddRowBatch(buf.rel, buf.arity, buf.rows, &added);
        // Replace the candidates with the committed survivors (in commit
        // order) — the relation's slice of the next delta.
        const Database::RowView view = all.Rows(buf.rel);
        buf.rows.clear();
        for (const std::uint32_t g : added) {
          buf.rows.insert(buf.rows.end(), view[g], view[g] + buf.arity);
        }
      }
      if (stats != nullptr) stats->derived_facts += buf.count;
    }
    total = next.Total();
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
  const std::vector<CompiledRule> compiled = CompileRules(program, all);
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
        const FiredRule fired = FireRule(cr, all);
        const std::size_t got = MergeSerial(cr, fired, all, nullptr);
        changed = changed || got > 0;
        if (stats != nullptr) {
          stats->Merge(fired.stats);
          stats->derived_facts += got;
        }
      }
    }
    return all;
  }

  // Semi-naive: round 0 fires all rules on the EDB; later rounds require at
  // least one body atom to match the previous round's delta. Round 0 stays
  // serial: like the naive rounds, each rule sees the facts added by the
  // rules before it. Its survivors seed the round-1 delta buffers.
  RoundDelta delta;
  {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", round++);
    if (stats != nullptr) ++stats->iterations;
    for (const CompiledRule& cr : compiled) {
      const FiredRule fired = FireRule(cr, all);
      const std::size_t got = MergeSerial(
          cr, fired, all, &delta.For(cr.head_rel, cr.head_arity));
      if (stats != nullptr) {
        stats->Merge(fired.stats);
        stats->derived_facts += got;
      }
    }
    round_span.AddArg("delta_facts", delta.Total());
  }
  EvaluateRounds(program, compiled, options, std::move(delta), all, &round,
                 stats);
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
  }
  if (stats != nullptr) stats->Merge(run);
  return result;
}

namespace {

// Ranks the goal relation of `all`: one pass collects the distinct values
// (numbered by first occurrence) in a flat open-addressing table and
// rewrites every cell as that number, one NamesOf call fetches their names,
// one sort over the names ranks them, and an LSD counting sort (one stable
// pass per column, last column first) orders the rows by rank.
GoalAnswer RankGoal(const Database& all, RelationId goal) {
  GoalAnswer out;
  out.pool = all.pool();
  out.num_rows = all.NumRows(goal);
  out.arity = all.Arity(goal);
  const std::size_t n = out.num_rows;
  const std::size_t arity = out.arity;
  const std::span<const ValueId> arena = all.Arena(goal).first(n * arity);

  // Distinct values: slot -> value id (kNoValue = empty) and its number.
  std::vector<ValueId> distinct;
  std::vector<std::uint32_t> cells(arena.size());
  std::vector<ValueId> slot_id(16, kNoValue);
  std::vector<std::uint32_t> slot_num(16);
  const auto slot_of = [&](ValueId v) {
    const std::size_t mask = slot_id.size() - 1;
    std::size_t i = Mix64(v) & mask;
    while (slot_id[i] != kNoValue && slot_id[i] != v) i = (i + 1) & mask;
    return i;
  };
  for (std::size_t c = 0; c < arena.size(); ++c) {
    const ValueId v = arena[c];
    std::size_t i = slot_of(v);
    if (slot_id[i] == kNoValue) {
      if (2 * (distinct.size() + 1) > slot_id.size()) {  // load <= 1/2
        slot_id.assign(slot_id.size() * 2, kNoValue);
        slot_num.resize(slot_id.size());
        for (std::uint32_t num = 0; num < distinct.size(); ++num) {
          const std::size_t j = slot_of(distinct[num]);
          slot_id[j] = distinct[num];
          slot_num[j] = num;
        }
        i = slot_of(v);
      }
      slot_id[i] = v;
      slot_num[i] = static_cast<std::uint32_t>(distinct.size());
      distinct.push_back(v);
    }
    cells[c] = slot_num[i];
  }

  // Rank by name. Distinct ids of one pool have distinct names, so the
  // ranks are a bijection onto 0..k-1.
  const std::size_t k = distinct.size();
  std::vector<const std::string*> names(k);
  out.pool->NamesOf(distinct, names.data());
  std::vector<std::uint32_t> by_name(k);
  for (std::uint32_t num = 0; num < k; ++num) by_name[num] = num;
  std::sort(by_name.begin(), by_name.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return *names[a] < *names[b];
            });
  std::vector<std::uint32_t> rank(k);
  out.names.resize(k);
  for (std::uint32_t r = 0; r < k; ++r) {
    rank[by_name[r]] = r;
    out.names[r] = names[by_name[r]];
  }
  for (std::uint32_t& cell : cells) cell = rank[cell];

  // LSD counting sort of the row indices. Rows are distinct, so the
  // stable passes leave them in strict lexicographic rank order.
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> next(n);
  std::vector<std::uint32_t> count(k + 1);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t j = arity; j-- > 0;) {
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i = 0; i < n; ++i) ++count[cells[i * arity + j] + 1];
    for (std::size_t r = 1; r <= k; ++r) count[r] += count[r - 1];
    for (const std::uint32_t row : order) {
      next[count[cells[row * arity + j]]++] = row;
    }
    order.swap(next);
  }
  out.rows.resize(n * arity);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(cells.begin() + order[i] * arity, arity,
                out.rows.begin() + i * arity);
  }
  return out;
}

}  // namespace

Result<GoalAnswer> EvaluateGoalAnswer(const DatalogProgram& program,
                                      const Database& edb,
                                      const EvalOptions& options,
                                      DatalogEvalStats* stats) {
  QCONT_ASSIGN_OR_RETURN(Database all,
                         EvaluateProgram(program, edb, options, stats));
  return RankGoal(all, all.RelationIdOf(program.goal_predicate()));
}

Result<std::vector<Tuple>> EvaluateGoal(const DatalogProgram& program,
                                        const Database& edb,
                                        const EvalOptions& options,
                                        DatalogEvalStats* stats) {
  QCONT_ASSIGN_OR_RETURN(GoalAnswer answer,
                         EvaluateGoalAnswer(program, edb, options, stats));
  std::vector<Tuple> out(answer.num_rows);
  for (std::size_t i = 0; i < answer.num_rows; ++i) {
    out[i].reserve(answer.arity);
    for (std::size_t j = 0; j < answer.arity; ++j) {
      out[i].push_back(*answer.names[answer.rows[i * answer.arity + j]]);
    }
  }
  return out;
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
    FrozenQuery frozen = Freeze(disjunct);  // programs have no constants
    QCONT_ASSIGN_OR_RETURN(
        Database derived,
        EvaluateProgram(program, frozen.database, options, stats));
    if (!derived.HasFact(program.goal_predicate(), frozen.head)) {
      return false;
    }
  }
  return true;
}

}  // namespace qcont
