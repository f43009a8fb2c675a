#include "cq/homomorphism.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>

namespace qcont {

namespace {

// The search: interned value ids, per-relation probe tables on the
// bound-position subset, and dynamic atom selection by estimated candidate
// count. Candidate rows are read as slices of the relation's arena; probe
// keys live in a stack buffer, so an atom expansion does not allocate.
struct IndexedSearcher {
  // One atom position: either a pool-interned constant or a dense-local
  // variable slot.
  struct Slot {
    bool is_const;
    ValueId const_id;  // valid when is_const
    int var;           // valid when !is_const
  };
  struct AtomInfo {
    RelationId rel;  // pool id of the predicate; kNoRelation matches nothing
    std::size_t num_rows;            // frozen-region snapshot
    std::size_t arity;               // of the stored relation (0 if absent)
    std::span<const ValueId> arena;  // the relation's rows, stride arity
    std::vector<Slot> slots;
  };

  std::vector<AtomInfo> atoms;
  std::vector<bool> used;
  std::vector<ValueId> binding;        // var slot -> id, kNoValue if unbound
  std::vector<std::string> var_names;  // var slot -> name
  std::unordered_map<std::string, int> var_slots;
  const Database& db;
  const Interner* pool;
  const Assignment* fixed;
  HomSearchStats* stats;
  const std::function<bool(const Assignment&)>* visit = nullptr;
  const std::function<bool(std::span<const ValueId>)>* visit_ids = nullptr;
  bool stopped = false;
  bool impossible = false;  // a constant or fixed value matches no fact

  IndexedSearcher(const std::vector<Atom>& atoms_in, const Database& db_in,
                  std::span<const RelationId> rel_ids,
                  const Assignment& fixed_in, HomSearchStats* stats_in)
      : db(db_in), pool(db_in.pool().get()), fixed(&fixed_in), stats(stats_in) {
    atoms.reserve(atoms_in.size());
    for (std::size_t i = 0; i < atoms_in.size(); ++i) {
      AtomInfo info;
      info.rel = rel_ids.empty() ? pool->Find(atoms_in[i].predicate())
                                 : rel_ids[i];
      info.num_rows = db.NumRows(info.rel);
      info.arity = db.Arity(info.rel);
      info.arena = db.Arena(info.rel);
      info.slots.reserve(atoms_in[i].arity());
      for (const Term& t : atoms_in[i].terms()) {
        Slot slot;
        if (t.is_constant()) {
          slot.is_const = true;
          slot.const_id = pool->Find(t.name());
          slot.var = -1;
          if (slot.const_id == kNoValue) impossible = true;
        } else {
          slot.is_const = false;
          slot.const_id = kNoValue;
          auto [it, inserted] =
              var_slots.emplace(t.name(), static_cast<int>(var_names.size()));
          if (inserted) {
            var_names.push_back(t.name());
            binding.push_back(kNoValue);
          }
          slot.var = it->second;
        }
        info.slots.push_back(slot);
      }
      atoms.push_back(std::move(info));
    }
    used.assign(atoms.size(), false);
    for (const auto& [var, value] : fixed_in) {
      auto it = var_slots.find(var);
      if (it == var_slots.end()) continue;  // rides along in the output only
      ValueId id = pool->Find(value);
      if (id == kNoValue) {
        impossible = true;  // the var occurs in an atom; no fact can match
        return;
      }
      binding[it->second] = id;
    }
  }

  void Emit() {
    if (visit_ids != nullptr) {
      if (!(*visit_ids)(std::span<const ValueId>(binding))) stopped = true;
      return;
    }
    Assignment out = *fixed;
    for (std::size_t v = 0; v < binding.size(); ++v) {
      if (binding[v] != kNoValue) out.emplace(var_names[v], pool->NameOf(binding[v]));
    }
    if (!(*visit)(out)) stopped = true;
  }

  // Bound-position mask of `atom` under the current binding, with the key
  // values written into `key_buf` (caller-provided, ≥32 entries). A
  // position is bound if it holds a constant or an already-bound variable;
  // only the first 32 positions are indexable.
  std::uint32_t BoundMask(const AtomInfo& atom, ValueId* key_buf) const {
    std::uint32_t mask = 0;
    std::size_t k = 0;
    const std::size_t limit = std::min<std::size_t>(atom.slots.size(), 32);
    for (std::size_t p = 0; p < limit; ++p) {
      const Slot& s = atom.slots[p];
      ValueId id = s.is_const ? s.const_id : binding[s.var];
      if (id == kNoValue) continue;
      mask |= 1u << p;
      key_buf[k++] = id;
    }
    return mask;
  }

  int BoundCount(const AtomInfo& atom) const {
    int c = 0;
    const std::size_t limit = std::min<std::size_t>(atom.slots.size(), 32);
    for (std::size_t p = 0; p < limit; ++p) {
      const Slot& s = atom.slots[p];
      if ((s.is_const ? s.const_id : binding[s.var]) != kNoValue) ++c;
    }
    return c;
  }

  // Row `r` of the atom's relation, sliced from its arena.
  static std::span<const ValueId> RowOf(const AtomInfo& atom,
                                        std::uint32_t r) {
    return atom.arena.subspan(static_cast<std::size_t>(r) * atom.arity,
                              atom.arity);
  }

  void Recurse(std::size_t depth) {
    if (stopped) return;
    if (depth == atoms.size()) {
      Emit();
      return;
    }
    // Pick the next atom dynamically: among the unused atoms with the most
    // bound positions (the most-constrained ones), the one with the fewest
    // candidates — bucket size under the bound-position index, or full
    // relation size when nothing is bound yet. Only the most-constrained
    // tier is probed, which keeps the per-node selection cost near-constant
    // instead of one probe per remaining atom.
    int max_bound = -1;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      max_bound = std::max(max_bound, BoundCount(atoms[i]));
    }
    int best = -1;
    std::size_t best_count = std::numeric_limits<std::size_t>::max();
    bool best_indexed = false;
    std::span<const std::uint32_t> best_bucket;
    ValueId key_buf[32];
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      const AtomInfo& atom = atoms[i];
      if (BoundCount(atom) != max_bound) continue;
      std::span<const std::uint32_t> bucket;
      bool indexed = false;
      std::size_t count;
      if (max_bound > 0) {
        const std::uint32_t mask = BoundMask(atom, key_buf);
        if (stats != nullptr) ++stats->index_probes;
        bucket = db.Probe(
            atom.rel, mask,
            std::span<const ValueId>(key_buf,
                                     static_cast<std::size_t>(max_bound)));
        count = bucket.size();
        indexed = true;
      } else {
        count = atom.num_rows;
      }
      if (count < best_count) {
        best = static_cast<int>(i);
        best_count = count;
        best_bucket = bucket;
        best_indexed = indexed;
        if (count == 0) break;
      }
    }
    if (best_count == 0) {
      if (stats != nullptr) ++stats->backtracks;
      return;
    }
    const AtomInfo& atom = atoms[best];
    used[best] = true;
    std::vector<int> newly_bound;
    auto try_row = [&](std::span<const ValueId> row) {
      if (row.size() != atom.slots.size()) return;
      if (stats != nullptr) {
        ++stats->atom_attempts;
        if (best_indexed) {
          ++stats->index_candidates;
        } else {
          ++stats->scan_candidates;
        }
      }
      newly_bound.clear();
      bool ok = true;
      for (std::size_t p = 0; p < row.size(); ++p) {
        const Slot& s = atom.slots[p];
        if (s.is_const) {
          if (s.const_id != row[p]) {
            ok = false;
            break;
          }
          continue;
        }
        ValueId& bound = binding[s.var];
        if (bound != kNoValue) {
          if (bound != row[p]) {
            ok = false;
            break;
          }
        } else {
          bound = row[p];
          newly_bound.push_back(s.var);
        }
      }
      if (ok) {
        Recurse(depth + 1);
      } else if (stats != nullptr) {
        ++stats->backtracks;
      }
      for (int v : newly_bound) binding[v] = kNoValue;
    };
    if (best_indexed) {
      for (std::uint32_t r : best_bucket) {
        try_row(RowOf(atom, r));
        if (stopped) break;
      }
    } else {
      for (std::uint32_t r = 0; r < atom.num_rows; ++r) {
        try_row(RowOf(atom, r));
        if (stopped) break;
      }
    }
    used[best] = false;
  }
};

}  // namespace

// Pimpl body of RowEnumerator: owns the (empty) fixed assignment the
// searcher borrows.
class RowEnumeratorImpl {
 public:
  RowEnumeratorImpl(const std::vector<Atom>& atoms, const Database& db,
                    std::span<const RelationId> rel_ids, HomSearchStats* stats)
      : searcher(atoms, db, rel_ids, no_fixed, stats) {}
  const Assignment no_fixed;
  IndexedSearcher searcher;
};

RowEnumerator::RowEnumerator(const std::vector<Atom>& atoms,
                             const Database& db,
                             std::span<const RelationId> rel_ids,
                             HomSearchStats* stats)
    : impl_(std::make_unique<RowEnumeratorImpl>(atoms, db, rel_ids, stats)) {}

RowEnumerator::~RowEnumerator() = default;

const std::vector<std::string>& RowEnumerator::var_names() const {
  return impl_->searcher.var_names;
}

int RowEnumerator::VarSlot(std::string_view name) const {
  auto it = impl_->searcher.var_slots.find(std::string(name));
  return it == impl_->searcher.var_slots.end() ? -1 : it->second;
}

void RowEnumerator::Enumerate(
    const std::function<bool(std::span<const ValueId>)>& visit) {
  if (impl_->searcher.impossible) return;
  impl_->searcher.visit_ids = &visit;
  impl_->searcher.Recurse(0);
}

void EnumerateHomomorphisms(const ConjunctiveQuery& cq, const Database& db,
                            const Assignment& fixed,
                            const std::function<bool(const Assignment&)>& visit,
                            HomSearchStats* stats) {
  IndexedSearcher searcher(cq.atoms(), db, /*rel_ids=*/{}, fixed, stats);
  if (searcher.impossible) return;
  searcher.visit = &visit;
  searcher.Recurse(0);
}

std::optional<Assignment> FindHomomorphism(const ConjunctiveQuery& cq,
                                           const Database& db,
                                           const Assignment& fixed,
                                           HomSearchStats* stats) {
  std::optional<Assignment> found;
  EnumerateHomomorphisms(
      cq, db, fixed,
      [&found](const Assignment& h) {
        found = h;
        return false;  // stop at the first homomorphism
      },
      stats);
  return found;
}

std::vector<Tuple> EvaluateCq(const ConjunctiveQuery& cq, const Database& db,
                              HomSearchStats* stats) {
  std::set<Tuple> results;
  EnumerateHomomorphisms(
      cq, db, /*fixed=*/{},
      [&results, &cq](const Assignment& h) {
        Tuple out;
        out.reserve(cq.head().size());
        for (const Term& t : cq.head()) out.push_back(h.at(t.name()));
        results.insert(std::move(out));
        return true;
      },
      stats);
  return std::vector<Tuple>(results.begin(), results.end());
}

std::vector<Tuple> EvaluateUcq(const UnionQuery& ucq, const Database& db,
                               HomSearchStats* stats) {
  std::set<Tuple> results;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    for (Tuple& t : EvaluateCq(cq, db, stats)) {
      results.insert(std::move(t));
    }
  }
  return std::vector<Tuple>(results.begin(), results.end());
}

}  // namespace qcont
