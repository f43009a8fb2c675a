#include "datalog/block_join.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "base/check.h"

namespace qcont {

namespace {

// Bound-position mask of `atom` given the variables already bound (by slot
// map membership). Constants count as bound. Positions >= 32 never arise
// here — Compile rejects wider atoms first.
std::uint32_t BoundMask(const Atom& atom,
                        const std::unordered_map<std::string, int>& slots) {
  std::uint32_t mask = 0;
  for (std::size_t p = 0; p < atom.arity(); ++p) {
    const Term& t = atom.terms()[p];
    if (t.is_constant() || slots.count(t.name()) > 0) {
      mask |= 1u << p;
    }
  }
  return mask;
}

}  // namespace

BlockJoinPlan BlockJoinPlan::Compile(const Rule& rule,
                                     std::span<const RelationId> body_rels,
                                     int delta_position,
                                     const Interner& pool) {
  BlockJoinPlan plan;
  const std::size_t num_atoms = rule.body.size();
  QCONT_CHECK(delta_position >= 0 &&
              static_cast<std::size_t>(delta_position) < num_atoms);
  for (const Atom& atom : rule.body) {
    if (atom.arity() > 32) return plan;  // probe masks are 32-bit
  }
  // A propositional delta atom has no rows to block over; leave it to the
  // recursive engine.
  if (rule.body[delta_position].arity() == 0) return plan;
  for (const Term& t : rule.head.terms()) {
    if (!t.is_variable()) return plan;  // head constants: recursive engine
  }

  std::unordered_map<std::string, int> slots;
  auto slot_of = [&](const std::string& name) {
    auto [it, added] = slots.try_emplace(name, static_cast<int>(slots.size()));
    return it->second;
  };
  auto find_const = [&](const std::string& name, bool* dead) {
    const ValueId id = pool.Find(name);
    if (id == Interner::kMissing) *dead = true;
    return id;
  };

  // Delta atom first: every position is a scan-side action (no probe).
  {
    const Atom& atom = rule.body[delta_position];
    plan.delta_rel_ = body_rels[delta_position];
    plan.delta_arity_ = static_cast<std::uint32_t>(atom.arity());
    for (std::size_t p = 0; p < atom.arity(); ++p) {
      const Term& t = atom.terms()[p];
      if (t.is_constant()) {
        plan.delta_const_checks_.emplace_back(
            static_cast<std::uint32_t>(p),
            find_const(t.name(), &plan.never_matches_));
        continue;
      }
      PositionAction a;
      a.pos = static_cast<std::uint32_t>(p);
      const bool fresh = slots.count(t.name()) == 0;
      a.var_slot = slot_of(t.name());
      a.bind = fresh;
      plan.delta_actions_.push_back(a);
    }
  }

  // Remaining atoms in greedy most-bound-first order (ties by body index),
  // decided once here — the recursive engine re-decides per search node.
  std::vector<std::size_t> remaining;
  for (std::size_t i = 0; i < num_atoms; ++i) {
    if (static_cast<int>(i) != delta_position) remaining.push_back(i);
  }
  while (!remaining.empty()) {
    std::size_t best = 0;
    int best_bound = -1;
    for (std::size_t r = 0; r < remaining.size(); ++r) {
      const int bound = std::popcount(BoundMask(rule.body[remaining[r]], slots));
      if (bound > best_bound) {
        best_bound = bound;
        best = r;
      }
    }
    const std::size_t ai = remaining[best];
    remaining.erase(remaining.begin() + best);
    const Atom& atom = rule.body[ai];
    AtomStep step;
    step.rel = body_rels[ai];
    step.arity = static_cast<std::uint32_t>(atom.arity());
    step.mask = BoundMask(atom, slots);
    step.key_width = static_cast<std::uint32_t>(std::popcount(step.mask));
    for (std::size_t p = 0; p < atom.arity(); ++p) {
      const Term& t = atom.terms()[p];
      if ((step.mask >> p & 1u) != 0) {
        KeySource src;
        if (t.is_constant()) {
          src.is_constant = true;
          src.constant = find_const(t.name(), &plan.never_matches_);
        } else {
          src.var_slot = slots.at(t.name());
        }
        step.key_sources.push_back(src);
      } else {
        // Unbound variable: bind on first occurrence in this atom, check
        // on a repeat (e.g. R(x, y, y) with y fresh).
        PositionAction a;
        a.pos = static_cast<std::uint32_t>(p);
        const bool fresh = slots.count(t.name()) == 0;
        a.var_slot = slot_of(t.name());
        a.bind = fresh;
        step.actions.push_back(a);
      }
    }
    plan.steps_.push_back(std::move(step));
  }

  plan.head_slots_.reserve(rule.head.arity());
  for (const Term& t : rule.head.terms()) {
    auto it = slots.find(t.name());
    if (it == slots.end()) return plan;  // head var unbound in body
    plan.head_slots_.push_back(it->second);
  }
  plan.num_vars_ = slots.size();
  plan.valid_ = true;
  return plan;
}

void BlockJoinPlan::Execute(const Database& all, const Database& delta,
                            std::size_t block_rows,
                            std::vector<ValueId>* out_rows,
                            std::size_t* num_rows,
                            HomSearchStats* stats) const {
  QCONT_CHECK(valid_);
  const std::size_t dn = delta.NumRows(delta_rel_);
  if (dn == 0) return;
  if (delta.Arity(delta_rel_) != delta_arity_) return;
  const std::span<const ValueId> arena = delta.Arena(delta_rel_);
  if (!arena.empty()) {
    Execute(all, arena, delta_arity_, block_rows, out_rows, num_rows, stats);
    return;
  }
  // A sharded delta spreads its rows over per-shard arenas; flatten a
  // temporary copy so the core loop has one shape.
  std::vector<ValueId> flat;
  flat.reserve(dn * delta_arity_);
  for (std::size_t r = 0; r < dn; ++r) {
    const std::span<const ValueId> row = delta.Row(delta_rel_, r);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  Execute(all, flat, delta_arity_, block_rows, out_rows, num_rows, stats);
}

void BlockJoinPlan::Execute(const Database& all,
                            std::span<const ValueId> delta_rows,
                            std::uint32_t delta_arity, std::size_t block_rows,
                            std::vector<ValueId>* out_rows,
                            std::size_t* num_rows,
                            HomSearchStats* stats) const {
  QCONT_CHECK(valid_);
  if (never_matches_) return;
  if (delta_arity != delta_arity_) return;
  const std::size_t dn =
      delta_arity == 0 ? 0 : delta_rows.size() / delta_arity;
  if (dn == 0) return;
  for (const AtomStep& step : steps_) {
    if (all.NumRows(step.rel) > 0 && all.Arity(step.rel) != step.arity) {
      return;
    }
  }
  if (block_rows == 0) block_rows = 1;

  const std::size_t nv = std::max<std::size_t>(num_vars_, 1);
  std::vector<ValueId> frontier;
  std::vector<ValueId> next;
  std::vector<ValueId> keys;
  std::vector<std::span<const std::uint32_t>> hits;

  for (std::size_t base = 0; base < dn; base += block_rows) {
    const std::size_t bn = std::min(block_rows, dn - base);
    // Stage 0: scan the delta block into the initial frontier.
    frontier.clear();
    for (std::size_t r = base; r < base + bn; ++r) {
      const ValueId* row = delta_rows.data() + r * delta_arity;
      ++stats->atom_attempts;
      ++stats->scan_candidates;
      bool ok = true;
      for (const auto& [pos, id] : delta_const_checks_) {
        if (row[pos] != id) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      const std::size_t at = frontier.size();
      frontier.resize(at + nv, 0);
      for (const PositionAction& a : delta_actions_) {
        if (a.bind) {
          frontier[at + a.var_slot] = row[a.pos];
        } else if (frontier[at + a.var_slot] != row[a.pos]) {
          ok = false;
          break;
        }
      }
      if (!ok) frontier.resize(at);
    }

    // One ProbeMany per atom per block: gather every frontier row's key,
    // resolve the whole batch through the staged probe pipeline, then
    // extend the frontier from the postings.
    for (const AtomStep& step : steps_) {
      const std::size_t fcount = frontier.size() / nv;
      if (fcount == 0) break;
      const std::uint32_t w = step.key_width;
      keys.resize(fcount * w);
      for (std::size_t i = 0; i < fcount; ++i) {
        const ValueId* binding = frontier.data() + i * nv;
        for (std::uint32_t k = 0; k < w; ++k) {
          const KeySource& src = step.key_sources[k];
          keys[i * w + k] =
              src.is_constant ? src.constant : binding[src.var_slot];
        }
      }
      hits.assign(fcount, {});
      all.ProbeMany(step.rel, step.mask, keys,
                    std::span<std::span<const std::uint32_t>>(hits));
      stats->index_probes += fcount;
      const Database::RowView rows_view = all.Rows(step.rel);
      next.clear();
      for (std::size_t i = 0; i < fcount; ++i) {
        const ValueId* binding = frontier.data() + i * nv;
        for (const std::uint32_t row_idx : hits[i]) {
          ++stats->index_candidates;
          ++stats->atom_attempts;
          const ValueId* row = rows_view[row_idx];
          const std::size_t at = next.size();
          next.insert(next.end(), binding, binding + nv);
          bool ok = true;
          for (const PositionAction& a : step.actions) {
            if (a.bind) {
              next[at + a.var_slot] = row[a.pos];
            } else if (next[at + a.var_slot] != row[a.pos]) {
              ok = false;
              break;
            }
          }
          if (!ok) next.resize(at);
        }
      }
      frontier.swap(next);
    }

    // Project the surviving full bindings onto the head.
    const std::size_t fcount = frontier.size() / nv;
    for (std::size_t i = 0; i < fcount; ++i) {
      const ValueId* binding = frontier.data() + i * nv;
      for (const int slot : head_slots_) {
        out_rows->push_back(binding[slot]);
      }
      ++*num_rows;
    }
  }
}

}  // namespace qcont
