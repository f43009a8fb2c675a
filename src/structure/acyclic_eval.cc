#include "structure/acyclic_eval.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/flat_set.h"
#include "base/hash.h"
#include "structure/decomposition.h"
#include "structure/join_tree.h"

namespace qcont {

namespace {

// Fixed assignment resolved to pool ids. A value of kNoValue means the
// string was never interned, so any atom containing the variable matches
// nothing (same outcome the string path produced per atom).
using FixedIds = std::unordered_map<std::string, ValueId>;

// One atom of the query, compiled against a database: relation id, constant
// requirements and variable-position structure resolved once, so the
// per-candidate satisfiability passes of full evaluation never touch
// strings. Compiled per (query, database) pair.
struct CompiledAtom {
  RelationId rel = kNoRelation;
  std::size_t arity = 0;                // of the query atom
  std::vector<std::string> vars;        // distinct, first-occurrence order
  std::vector<ValueId> const_required;  // per position: const id or kNoValue
  std::vector<int> pos_var;             // per position: index in vars, or -1
  std::vector<int> var_pos;             // per var: first position holding it
  // (p1, p2) pairs a repeated variable must agree on.
  std::vector<std::pair<int, int>> repeat_checks;
  bool impossible = false;  // a constant was never interned: matches nothing
};

struct CompiledAcyclic {
  JoinTree jt;
  std::vector<CompiledAtom> atoms;
  std::vector<int> post_order;
  // Shared variable positions for the join-tree edge child v -> parent:
  // edges[v] lists (var index in parent, var index in child).
  std::vector<std::vector<std::pair<int, int>>> edges;
};

// Candidate matches of one atom at runtime: surviving row indices over the
// relation's arena (never materialized projections).
struct AtomState {
  const CompiledAtom* ca = nullptr;
  std::span<const ValueId> arena;  // the relation's rows, stride ca->arity
  std::vector<std::uint32_t> rows;

  ValueId At(std::uint32_t r, int pos) const {
    return arena[static_cast<std::size_t>(r) * ca->arity + pos];
  }
};

CompiledAtom CompileAtom(const Atom& atom, const Database& db) {
  CompiledAtom ca;
  ca.rel = db.RelationIdOf(atom.predicate());
  ca.arity = atom.arity();
  ca.const_required.assign(ca.arity, kNoValue);
  ca.pos_var.assign(ca.arity, -1);
  for (std::size_t i = 0; i < ca.arity; ++i) {
    const Term& t = atom.terms()[i];
    if (t.is_constant()) {
      ca.const_required[i] = db.ValueIdOf(t.name());
      if (ca.const_required[i] == kNoValue) ca.impossible = true;
      continue;
    }
    int v = -1;
    for (std::size_t k = 0; k < ca.vars.size(); ++k) {
      if (ca.vars[k] == t.name()) v = static_cast<int>(k);
    }
    if (v < 0) {
      v = static_cast<int>(ca.vars.size());
      ca.vars.push_back(t.name());
      ca.var_pos.push_back(static_cast<int>(i));
    } else {
      ca.repeat_checks.emplace_back(ca.var_pos[v], static_cast<int>(i));
    }
    ca.pos_var[i] = v;
  }
  return ca;
}

// Post-order over the join forest (children before parents).
std::vector<int> PostOrder(const JoinTree& jt) {
  std::vector<std::vector<int>> children = jt.Children();
  std::vector<int> order;
  std::vector<int> stack;
  for (int r : jt.Roots()) stack.push_back(r);
  // Iterative post-order: push, then reverse a pre-order.
  std::vector<int> pre;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    pre.push_back(v);
    for (int c : children[v]) stack.push_back(c);
  }
  order.assign(pre.rbegin(), pre.rend());
  return order;
}

Result<CompiledAcyclic> Compile(const ConjunctiveQuery& cq,
                                const Database& db) {
  QCONT_RETURN_IF_ERROR(cq.Validate());
  CompiledAcyclic out;
  QCONT_ASSIGN_OR_RETURN(out.jt, BuildJoinTree(cq));
#ifndef NDEBUG
  // Route the join tree through the certified checker: a width-1 GHW
  // certificate whose verification failure means BuildJoinTree is buggy.
  // Compile runs per engine call, so optimized builds trust the join tree
  // (the debug/sanitizer CI jobs and the decomposition property suite
  // certify it); the routed analysis path certifies once per query.
  QCONT_RETURN_IF_ERROR(CertificateFromJoinTree(cq, out.jt).status());
#endif
  out.atoms.reserve(cq.atoms().size());
  for (const Atom& a : cq.atoms()) out.atoms.push_back(CompileAtom(a, db));
  out.post_order = PostOrder(out.jt);
  out.edges.resize(out.atoms.size());
  for (std::size_t v = 0; v < out.atoms.size(); ++v) {
    const int p = out.jt.parent[v];
    if (p < 0) continue;
    const CompiledAtom& child = out.atoms[v];
    const CompiledAtom& parent = out.atoms[p];
    for (std::size_t i = 0; i < parent.vars.size(); ++i) {
      for (std::size_t j = 0; j < child.vars.size(); ++j) {
        if (parent.vars[i] == child.vars[j]) {
          out.edges[v].emplace_back(static_cast<int>(i), static_cast<int>(j));
        }
      }
    }
  }
  return out;
}

// Builds the per-atom candidate state: indices of the database rows
// unifying with the atom under `fixed` (constants and repeated variables
// checked here). The positions bound by constants or fixed variables are
// served through the relation's probe table instead of a full scan.
// `stats` is the call's run-local accumulator (never null).
AtomState BuildAtomState(const CompiledAtom& ca, const Database& db,
                         const FixedIds& fixed, YannakakisStats* stats) {
  AtomState st;
  st.ca = &ca;
  if (ca.impossible) return st;
  const std::size_t n = db.NumRows(ca.rel);
  if (n == 0) return st;
  if (db.Arity(ca.rel) != ca.arity) return st;  // uniform arity
  st.arena = db.Arena(ca.rel);
  // Per position: the required id (constant / fixed variable, kNoValue if
  // free).
  ValueId required_buf[64];
  std::span<ValueId> required(
      required_buf, ca.arity <= 64 ? ca.arity : 0);
  std::vector<ValueId> required_heap;
  if (ca.arity > 64) {
    required_heap.assign(ca.arity, kNoValue);
    required = required_heap;
  }
  std::copy(ca.const_required.begin(), ca.const_required.end(),
            required.begin());
  for (std::size_t k = 0; k < ca.vars.size(); ++k) {
    auto it = fixed.find(ca.vars[k]);
    if (it == fixed.end()) continue;
    if (it->second == kNoValue) return st;  // value never interned
    for (std::size_t i = 0; i < ca.arity; ++i) {
      if (ca.pos_var[i] == static_cast<int>(k)) required[i] = it->second;
    }
  }
  std::uint32_t mask = 0;
  ValueId key_buf[32];
  std::size_t key_len = 0;
  for (std::size_t i = 0; i < ca.arity && i < 32; ++i) {
    if (required[i] == kNoValue) continue;
    mask |= 1u << i;
    key_buf[key_len++] = required[i];
  }
  std::span<const std::uint32_t> bucket;
  bool indexed = false;
  if (mask != 0) {
    bucket = db.Probe(ca.rel, mask, std::span<const ValueId>(key_buf, key_len));
    indexed = true;
    ++stats->index_probes;
  }
  auto try_row = [&](std::uint32_t r) {
    const std::span<const ValueId> row =
        st.arena.subspan(static_cast<std::size_t>(r) * ca.arity, ca.arity);
    for (std::size_t i = 0; i < ca.arity; ++i) {
      if (required[i] != kNoValue && row[i] != required[i]) return;
    }
    for (const auto& [p1, p2] : ca.repeat_checks) {
      if (row[p1] != row[p2]) return;  // repeated variable bound inconsistently
    }
    st.rows.push_back(r);
  };
  if (indexed) {
    for (std::uint32_t r : bucket) try_row(r);
  } else {
    for (std::uint32_t r = 0; r < n; ++r) try_row(r);
  }
  return st;
}

// target := target ⋉ source (keep target rows whose shared-variable
// projection appears in source). `shared` lists (target var, source var)
// pairs; keys of width ≤ 2 are packed into one 64-bit word, wider keys
// fall back to vector keys.
void Semijoin(AtomState* target, const AtomState& source,
              const std::vector<std::pair<int, int>>& shared,
              YannakakisStats* stats) {
  ++stats->semijoins;
  stats->tuples_scanned += target->rows.size() + source.rows.size();
  if (shared.empty()) {
    // No shared variables: the semijoin only empties target if source is
    // empty (no supporting tuple at all).
    if (source.rows.empty()) target->rows.clear();
    return;
  }
  const std::size_t w = shared.size();
  const CompiledAtom& tca = *target->ca;
  const CompiledAtom& sca = *source.ca;
  if (w <= 2) {
    const int t0 = tca.var_pos[shared[0].first];
    const int s0 = sca.var_pos[shared[0].second];
    const int t1 = w == 2 ? tca.var_pos[shared[1].first] : -1;
    const int s1 = w == 2 ? sca.var_pos[shared[1].second] : -1;
    auto pack = [](ValueId a, ValueId b) {
      return ((static_cast<std::uint64_t>(a) + 1) << 32) |
             (static_cast<std::uint64_t>(b) + 1);
    };
    // Tag-filtered flat set (the probe-kernel layout of base/flat_set.h):
    // the build and probe loops touch one tag byte per miss instead of a
    // node allocation per key.
    FlatU64Set keys(source.rows.size());
    for (std::uint32_t r : source.rows) {
      keys.Insert(pack(source.At(r, s0), w == 2 ? source.At(r, s1) : 0));
    }
    std::erase_if(target->rows, [&](std::uint32_t r) {
      return !keys.Contains(pack(target->At(r, t0),
                                 w == 2 ? target->At(r, t1) : 0));
    });
    return;
  }
  std::unordered_set<std::vector<ValueId>, VectorHash<ValueId>> keys;
  keys.reserve(source.rows.size());
  std::vector<ValueId> key(w);
  for (std::uint32_t r : source.rows) {
    for (std::size_t i = 0; i < w; ++i) {
      key[i] = source.At(r, sca.var_pos[shared[i].second]);
    }
    keys.insert(key);
  }
  std::erase_if(target->rows, [&](std::uint32_t r) {
    for (std::size_t i = 0; i < w; ++i) {
      key[i] = target->At(r, tca.var_pos[shared[i].first]);
    }
    return keys.count(key) == 0;
  });
}

// Upward semijoin reduction over the compiled query: true iff no connected
// component emptied out, i.e. the query is satisfiable under `fixed`.
bool SatisfiableCompiled(const CompiledAcyclic& c, const Database& db,
                         const FixedIds& fixed, YannakakisStats* stats,
                         const ObsContext* obs) {
  ObsSpan reduce_span(obs, "yannakakis/upward_reduce", "structure");
  reduce_span.AddArg("atoms", c.atoms.size());
  std::vector<AtomState> states;
  states.reserve(c.atoms.size());
  for (const CompiledAtom& ca : c.atoms) {
    states.push_back(BuildAtomState(ca, db, fixed, stats));
  }
  for (int v : c.post_order) {
    const int p = c.jt.parent[v];
    if (p >= 0) {
      Semijoin(&states[p], states[v], c.edges[v], stats);
    } else if (states[v].rows.empty()) {
      return false;
    }
  }
  return true;
}

Result<bool> AcyclicSatisfiableImpl(const ConjunctiveQuery& cq,
                                    const Database& db,
                                    const Assignment& fixed,
                                    YannakakisStats* stats,
                                    const ObsContext* obs) {
  if (cq.atoms().empty()) return true;
  QCONT_ASSIGN_OR_RETURN(CompiledAcyclic compiled, Compile(cq, db));
  FixedIds fixed_ids;
  fixed_ids.reserve(fixed.size());
  for (const auto& [var, value] : fixed) {
    fixed_ids.emplace(var, db.ValueIdOf(value));
  }
  return SatisfiableCompiled(compiled, db, fixed_ids, stats, obs);
}

Result<std::vector<Tuple>> EvaluateAcyclicCqImpl(const ConjunctiveQuery& cq,
                                                 const Database& db,
                                                 YannakakisStats* stats,
                                                 const ObsContext* obs) {
  if (cq.atoms().empty()) {
    return std::vector<Tuple>{Tuple{}};
  }
  if (cq.IsBoolean()) {
    QCONT_ASSIGN_OR_RETURN(bool sat,
                           AcyclicSatisfiableImpl(cq, db, {}, stats, obs));
    return sat ? std::vector<Tuple>{Tuple{}} : std::vector<Tuple>{};
  }
  QCONT_ASSIGN_OR_RETURN(CompiledAcyclic compiled, Compile(cq, db));
  ObsSpan enum_span(obs, "yannakakis/enumerate", "structure");
  // Candidate values per head variable: the intersection, over the atoms
  // containing it, of the values the atom's candidate tuples allow. The
  // answer set is then computed with one Yannakakis satisfiability check
  // per candidate head assignment — polynomial for fixed arity, and free of
  // the duplicate blow-up of full match enumeration. The compiled query is
  // reused across every candidate check (no join-tree or name-resolution
  // work per candidate).
  std::vector<std::string> head_vars;
  for (const Term& t : cq.head()) {
    if (std::find(head_vars.begin(), head_vars.end(), t.name()) ==
        head_vars.end()) {
      head_vars.push_back(t.name());
    }
  }
  std::unordered_map<std::string, std::set<ValueId>> candidates;
  const FixedIds no_fixed;
  for (const CompiledAtom& ca : compiled.atoms) {
    AtomState st = BuildAtomState(ca, db, no_fixed, stats);
    for (std::size_t i = 0; i < ca.vars.size(); ++i) {
      if (std::find(head_vars.begin(), head_vars.end(), ca.vars[i]) ==
          head_vars.end()) {
        continue;
      }
      std::set<ValueId> values;
      for (std::uint32_t r : st.rows) values.insert(st.At(r, ca.var_pos[i]));
      auto [it, inserted] = candidates.emplace(ca.vars[i], values);
      if (!inserted) {
        std::set<ValueId> merged;
        std::set_intersection(it->second.begin(), it->second.end(),
                              values.begin(), values.end(),
                              std::inserter(merged, merged.begin()));
        it->second = std::move(merged);
      }
    }
  }
  std::set<Tuple> results;
  FixedIds fixed;
  std::function<Status(std::size_t)> try_assign =
      [&](std::size_t i) -> Status {
    if (i == head_vars.size()) {
      if (SatisfiableCompiled(compiled, db, fixed, stats, obs)) {
        Tuple head;
        head.reserve(cq.head().size());
        for (const Term& t : cq.head()) {
          head.push_back(db.ValueName(fixed.at(t.name())));
        }
        results.insert(std::move(head));
      }
      return Status::Ok();
    }
    for (ValueId v : candidates[head_vars[i]]) {
      fixed[head_vars[i]] = v;
      QCONT_RETURN_IF_ERROR(try_assign(i + 1));
    }
    fixed.erase(head_vars[i]);
    return Status::Ok();
  };
  QCONT_RETURN_IF_ERROR(try_assign(0));
  return std::vector<Tuple>(results.begin(), results.end());
}

Result<bool> CqContainedAcyclicRhsImpl(const ConjunctiveQuery& theta,
                                       const ConjunctiveQuery& theta_prime,
                                       YannakakisStats* stats,
                                       const ObsContext* obs) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(theta_prime.Validate());
  if (theta.arity() != theta_prime.arity()) {
    return InvalidArgumentError("arity mismatch in containment test");
  }
  FrozenQuery frozen = Freeze(theta, &theta_prime);
  frozen.database.set_obs(obs);
  Assignment fixed;
  for (std::size_t i = 0; i < theta_prime.head().size(); ++i) {
    const std::string& var = theta_prime.head()[i].name();
    auto it = fixed.find(var);
    if (it != fixed.end()) {
      if (it->second != frozen.head[i]) return false;
    } else {
      fixed.emplace(var, frozen.head[i]);
    }
  }
  return AcyclicSatisfiableImpl(theta_prime, frozen.database, fixed, stats,
                                obs);
}

Result<bool> UcqContainedAcyclicRhsImpl(const UnionQuery& theta,
                                        const UnionQuery& theta_prime,
                                        YannakakisStats* stats,
                                        const ObsContext* obs) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(theta_prime.Validate());
  for (const ConjunctiveQuery& disjunct : theta.disjuncts()) {
    bool contained = false;
    for (const ConjunctiveQuery& rhs : theta_prime.disjuncts()) {
      QCONT_ASSIGN_OR_RETURN(
          bool c, CqContainedAcyclicRhsImpl(disjunct, rhs, stats, obs));
      if (c) {
        contained = true;
        break;
      }
    }
    if (!contained) return false;
  }
  return true;
}

// Publish funnel: the engine bumps only the run-local `YannakakisStats`
// (index probes are counted per probe, far too hot for registry writes);
// each public entry point adds the run's totals to the caller's sink and
// publishes them to the registry once, errors included. A counter name is
// registered exactly when the run touched it, as a per-site write would.
template <typename Body>
auto CountedRun(YannakakisStats* stats, const ObsContext* obs, Body body) {
  YannakakisStats run;
  auto result = body(&run);
  if (stats != nullptr) {
    stats->semijoins += run.semijoins;
    stats->tuples_scanned += run.tuples_scanned;
    stats->index_probes += run.index_probes;
  }
  if (MetricRegistry* metrics = ObsMetrics(obs)) {
    if (run.semijoins != 0) {
      metrics->Add("yannakakis.semijoins", run.semijoins);
      metrics->Add("yannakakis.tuples_scanned", run.tuples_scanned);
    }
    if (run.index_probes != 0) {
      metrics->Add("yannakakis.index_probes", run.index_probes);
    }
  }
  return result;
}

}  // namespace

Result<bool> AcyclicSatisfiable(const ConjunctiveQuery& cq, const Database& db,
                                const Assignment& fixed, YannakakisStats* stats,
                                const ObsContext* obs) {
  return CountedRun(stats, obs, [&](YannakakisStats* run) {
    return AcyclicSatisfiableImpl(cq, db, fixed, run, obs);
  });
}

Result<std::vector<Tuple>> EvaluateAcyclicCq(const ConjunctiveQuery& cq,
                                             const Database& db,
                                             YannakakisStats* stats,
                                             const ObsContext* obs) {
  return CountedRun(stats, obs, [&](YannakakisStats* run) {
    return EvaluateAcyclicCqImpl(cq, db, run, obs);
  });
}

Result<bool> CqContainedAcyclicRhs(const ConjunctiveQuery& theta,
                                   const ConjunctiveQuery& theta_prime,
                                   YannakakisStats* stats,
                                   const ObsContext* obs) {
  return CountedRun(stats, obs, [&](YannakakisStats* run) {
    return CqContainedAcyclicRhsImpl(theta, theta_prime, run, obs);
  });
}

Result<bool> UcqContainedAcyclicRhs(const UnionQuery& theta,
                                    const UnionQuery& theta_prime,
                                    YannakakisStats* stats,
                                    const ObsContext* obs) {
  return CountedRun(stats, obs, [&](YannakakisStats* run) {
    return UcqContainedAcyclicRhsImpl(theta, theta_prime, run, obs);
  });
}

}  // namespace qcont
