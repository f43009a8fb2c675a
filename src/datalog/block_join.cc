#include "datalog/block_join.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>

#include "base/check.h"

namespace qcont {

namespace {

// Bound-position mask of `atom` given the variables already bound (by slot
// map membership). Only the first 32 positions are maskable, as in the
// recursive engine; later positions are handled by PositionActions.
std::uint32_t BoundMask(const Atom& atom,
                        const std::unordered_map<std::string, int>& slots) {
  std::uint32_t mask = 0;
  const std::size_t limit = std::min<std::size_t>(atom.arity(), 32);
  for (std::size_t p = 0; p < limit; ++p) {
    if (slots.count(atom.terms()[p].name()) > 0) mask |= 1u << p;
  }
  return mask;
}

}  // namespace

BlockJoinPlan BlockJoinPlan::Compile(const Rule& rule,
                                     std::span<const RelationId> body_rels,
                                     int delta_position) {
  BlockJoinPlan plan;
  const std::size_t num_atoms = rule.body.size();
  QCONT_CHECK(delta_position >= 0 &&
              static_cast<std::size_t>(delta_position) < num_atoms);

  std::unordered_map<std::string, int> slots;
  // Every position outside the probe key: bind a fresh variable, check a
  // bound one (a repeat within the atom, or one bound by an earlier atom
  // at a position past the mask).
  auto action_for = [&](const Term& t, std::size_t p) {
    QCONT_CHECK_MSG(t.is_variable(), "block plans take constant-free rules");
    PositionAction a;
    a.pos = static_cast<std::uint32_t>(p);
    auto [it, fresh] =
        slots.try_emplace(t.name(), static_cast<int>(slots.size()));
    a.var_slot = it->second;
    a.bind = fresh;
    return a;
  };

  // Delta atom first: every position is a scan-side action (no probe).
  const Atom& delta_atom = rule.body[delta_position];
  plan.delta_arity_ = static_cast<std::uint32_t>(delta_atom.arity());
  for (std::size_t p = 0; p < delta_atom.arity(); ++p) {
    plan.delta_actions_.push_back(action_for(delta_atom.terms()[p], p));
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
    for (std::size_t p = 0; p < atom.arity(); ++p) {
      const Term& t = atom.terms()[p];
      if (p < 32 && (step.mask >> p & 1u) != 0) {
        step.key_slots.push_back(slots.at(t.name()));
      } else {
        step.actions.push_back(action_for(t, p));
      }
    }
    plan.steps_.push_back(std::move(step));
  }

  plan.head_slots_.reserve(rule.head.arity());
  for (const Term& t : rule.head.terms()) {
    auto it = slots.find(t.name());
    QCONT_CHECK_MSG(it != slots.end(), "head variable not bound in rule body");
    plan.head_slots_.push_back(it->second);
  }
  plan.num_vars_ = slots.size();
  return plan;
}

void BlockJoinPlan::Execute(const Database& all,
                            std::span<const ValueId> delta_rows,
                            std::size_t num_delta_rows, std::size_t block_rows,
                            std::vector<ValueId>* out_rows,
                            std::size_t* num_rows,
                            HomSearchStats* stats) const {
  const std::size_t dn = num_delta_rows;
  if (dn == 0) return;
  QCONT_CHECK(delta_rows.size() == dn * delta_arity_);
  for (const AtomStep& step : steps_) {
    if (all.NumRows(step.rel) > 0 && all.Arity(step.rel) != step.arity) {
      return;
    }
  }
  if (block_rows == 0) block_rows = 1;

  // A binding of a variable-free body (arity-0 atoms only) still takes one
  // frontier slot, so frontier rows stay countable.
  const std::size_t nv = std::max<std::size_t>(num_vars_, 1);
  std::vector<ValueId> frontier;
  std::vector<ValueId> next;
  std::vector<ValueId> keys;
  std::vector<std::span<const std::uint32_t>> hits;
  std::vector<std::uint32_t> all_rows;

  for (std::size_t base = 0; base < dn; base += block_rows) {
    const std::size_t bn = std::min(block_rows, dn - base);
    // Stage 0: scan the delta block into the initial frontier.
    frontier.clear();
    for (std::size_t r = base; r < base + bn; ++r) {
      const ValueId* row = delta_rows.data() + r * delta_arity_;
      ++stats->atom_attempts;
      ++stats->scan_candidates;
      const std::size_t at = frontier.size();
      frontier.resize(at + nv, 0);
      for (const PositionAction& a : delta_actions_) {
        if (a.bind) {
          frontier[at + a.var_slot] = row[a.pos];
        } else if (frontier[at + a.var_slot] != row[a.pos]) {
          frontier.resize(at);
          break;
        }
      }
    }

    // One ProbeMany per atom per block: gather every frontier row's key,
    // resolve the whole batch through the staged probe pipeline, then
    // extend the frontier from the postings.
    for (const AtomStep& step : steps_) {
      const std::size_t fcount = frontier.size() / nv;
      if (fcount == 0) break;
      if (step.mask != 0) {
        const std::size_t w = step.key_slots.size();
        keys.resize(fcount * w);
        for (std::size_t i = 0; i < fcount; ++i) {
          const ValueId* binding = frontier.data() + i * nv;
          for (std::size_t k = 0; k < w; ++k) {
            keys[i * w + k] = binding[step.key_slots[k]];
          }
        }
        hits.assign(fcount, {});
        all.ProbeMany(step.rel, step.mask, keys,
                      std::span<std::span<const std::uint32_t>>(hits));
        stats->index_probes += fcount;
      } else {
        // Every row matches a step with no bound position: scan the
        // relation rather than build a mask-0 index holding all of it.
        all_rows.resize(all.NumRows(step.rel));
        std::iota(all_rows.begin(), all_rows.end(), 0u);
        hits.assign(fcount, std::span<const std::uint32_t>(all_rows));
      }
      std::uint64_t& candidates =
          step.mask != 0 ? stats->index_candidates : stats->scan_candidates;
      const Database::RowView rows_view = all.Rows(step.rel);
      next.clear();
      for (std::size_t i = 0; i < fcount; ++i) {
        const ValueId* binding = frontier.data() + i * nv;
        for (const std::uint32_t row_idx : hits[i]) {
          ++candidates;
          ++stats->atom_attempts;
          const ValueId* row = rows_view[row_idx];
          const std::size_t at = next.size();
          next.insert(next.end(), binding, binding + nv);
          for (const PositionAction& a : step.actions) {
            if (a.bind) {
              next[at + a.var_slot] = row[a.pos];
            } else if (next[at + a.var_slot] != row[a.pos]) {
              next.resize(at);
              break;
            }
          }
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
