#include "cq/homomorphism.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>

#include "base/check.h"

namespace qcont {

namespace {

// ---------------------------------------------------------------------------
// Scan engine: the pre-index reference implementation. Static greedy atom
// order, full relation scan per atom, string-keyed bindings. Kept verbatim
// (modulo per-atom databases) so the differential tests can pin the indexed
// engine against it.
// ---------------------------------------------------------------------------
struct ScanSearcher {
  std::vector<Atom> atoms;                // ordered at construction
  std::vector<const Database*> dbs;       // parallel to `atoms`
  Assignment binding;
  HomSearchStats* stats;
  const std::function<bool(const Assignment&)>* visit = nullptr;
  bool stopped = false;

  ScanSearcher(const std::vector<Atom>& atoms_in,
               const std::vector<const Database*>& dbs_in,
               const Assignment& fixed, HomSearchStats* stats_in)
      : atoms(atoms_in), dbs(dbs_in), binding(fixed), stats(stats_in) {
    OrderAtoms();
  }

  // Greedy static order: repeatedly pick the atom with the most variables
  // already covered by earlier atoms (or `fixed`), tie-broken by smaller
  // relation. Keeps the search close to a join order a planner would pick.
  void OrderAtoms() {
    std::vector<Atom> ordered;
    std::vector<const Database*> ordered_dbs;
    std::set<std::string> bound;
    for (const auto& [var, value] : binding) bound.insert(var);
    std::vector<bool> used(atoms.size(), false);
    for (std::size_t round = 0; round < atoms.size(); ++round) {
      int best = -1;
      long best_score = -1;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (used[i]) continue;
        long covered = 0;
        for (const Term& t : atoms[i].terms()) {
          if (t.is_constant() || bound.count(t.name())) ++covered;
        }
        // Prefer high coverage, then small relations.
        long score =
            covered * 1000000 -
            static_cast<long>(dbs[i]->Facts(atoms[i].predicate()).size());
        if (best < 0 || score > best_score) {
          best = static_cast<int>(i);
          best_score = score;
        }
      }
      used[best] = true;
      for (const Term& t : atoms[best].terms()) {
        if (t.is_variable()) bound.insert(t.name());
      }
      ordered.push_back(atoms[best]);
      ordered_dbs.push_back(dbs[best]);
    }
    atoms = std::move(ordered);
    dbs = std::move(ordered_dbs);
  }

  void Recurse(std::size_t index) {
    if (stopped) return;
    if (index == atoms.size()) {
      if (!(*visit)(binding)) stopped = true;
      return;
    }
    const Atom& atom = atoms[index];
    for (const Tuple& fact : dbs[index]->Facts(atom.predicate())) {
      if (fact.size() != atom.arity()) continue;
      if (stats != nullptr) {
        ++stats->atom_attempts;
        ++stats->scan_candidates;
      }
      // Try to unify atom terms with the fact.
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (std::size_t i = 0; i < fact.size(); ++i) {
        const Term& t = atom.terms()[i];
        if (t.is_constant()) {
          if (t.name() != fact[i]) {
            ok = false;
            break;
          }
          continue;
        }
        auto it = binding.find(t.name());
        if (it != binding.end()) {
          if (it->second != fact[i]) {
            ok = false;
            break;
          }
        } else {
          binding.emplace(t.name(), fact[i]);
          newly_bound.push_back(t.name());
        }
      }
      if (ok) {
        Recurse(index + 1);
      } else if (stats != nullptr) {
        ++stats->backtracks;
      }
      for (const std::string& var : newly_bound) binding.erase(var);
      if (stopped) return;
    }
  }
};

// ---------------------------------------------------------------------------
// Indexed engine: interned value ids, per-relation probe tables on the
// bound-position subset, and dynamic atom selection by estimated candidate
// count. All databases must share one value pool. Candidate rows are read
// as slices of the relation's arena (per-row fallback for sharded
// relations); probe keys live in a stack buffer, so an atom expansion does
// not allocate.
// ---------------------------------------------------------------------------
struct IndexedSearcher {
  // One atom position: either a pool-interned constant or a dense-local
  // variable slot.
  struct Slot {
    bool is_const;
    ValueId const_id;  // valid when is_const
    int var;           // valid when !is_const
  };
  struct AtomInfo {
    const Database* db;
    RelationId rel;  // pool id of the predicate; kNoRelation matches nothing
    std::size_t num_rows;               // frozen-region snapshot
    std::size_t arity;                  // of the stored relation (0 if absent)
    std::span<const ValueId> arena;     // unsharded only; empty if sharded
    std::vector<Slot> slots;
  };

  std::vector<AtomInfo> atoms;
  std::vector<bool> used;
  std::vector<ValueId> binding;        // var slot -> id, kNoValue if unbound
  std::vector<std::string> var_names;  // var slot -> name
  std::unordered_map<std::string, int> var_slots;
  const Interner* pool;
  const Assignment* fixed;
  HomSearchStats* stats;
  const std::function<bool(const Assignment&)>* visit = nullptr;
  const std::function<bool(std::span<const ValueId>)>* visit_ids = nullptr;
  bool stopped = false;
  bool impossible = false;  // a constant or fixed value matches no fact

  IndexedSearcher(const std::vector<Atom>& atoms_in,
                  const std::vector<const Database*>& dbs_in,
                  std::span<const RelationId> rel_ids,
                  const Assignment& fixed_in, HomSearchStats* stats_in)
      : fixed(&fixed_in), stats(stats_in) {
    pool = dbs_in.empty() ? nullptr : dbs_in[0]->pool().get();
    atoms.reserve(atoms_in.size());
    for (std::size_t i = 0; i < atoms_in.size(); ++i) {
      AtomInfo info;
      info.db = dbs_in[i];
      info.rel = rel_ids.empty() ? pool->Find(atoms_in[i].predicate())
                                 : rel_ids[i];
      info.num_rows = info.db->NumRows(info.rel);
      info.arity = info.db->Arity(info.rel);
      info.arena = info.db->Arena(info.rel);
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

  // Row `r` of the atom's relation: an arena slice when the relation is
  // unsharded, the per-row accessor otherwise.
  std::span<const ValueId> RowOf(const AtomInfo& atom, std::uint32_t r) const {
    if (!atom.arena.empty() || atom.arity == 0) {
      return atom.arena.subspan(static_cast<std::size_t>(r) * atom.arity,
                                atom.arity);
    }
    return atom.db->Row(atom.rel, r);
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
        bucket = atom.db->Probe(
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

bool SharePool(const std::vector<const Database*>& dbs) {
  for (std::size_t i = 1; i < dbs.size(); ++i) {
    if (dbs[i]->pool() != dbs[0]->pool()) return false;
  }
  return true;
}

}  // namespace

// Pimpl body of RowEnumerator: owns the fixed-assignment copy the searcher
// borrows from.
class RowEnumeratorImpl {
 public:
  Assignment fixed;
  std::optional<IndexedSearcher> searcher;
  bool valid = false;
  static const std::vector<std::string> kNoVars;
};
const std::vector<std::string> RowEnumeratorImpl::kNoVars;

RowEnumerator::RowEnumerator(const std::vector<Atom>& atoms,
                             const std::vector<const Database*>& dbs,
                             std::span<const RelationId> rel_ids,
                             const Assignment& fixed, HomSearchStats* stats,
                             const HomSearchOptions& options)
    : impl_(std::make_unique<RowEnumeratorImpl>()) {
  QCONT_CHECK(atoms.size() == dbs.size());
  impl_->valid = options.use_index && !dbs.empty() && SharePool(dbs);
  if (!impl_->valid) return;
  impl_->fixed = fixed;
  impl_->searcher.emplace(atoms, dbs, rel_ids, impl_->fixed, stats);
}

RowEnumerator::~RowEnumerator() = default;

bool RowEnumerator::valid() const { return impl_->valid; }

const std::vector<std::string>& RowEnumerator::var_names() const {
  return impl_->searcher ? impl_->searcher->var_names
                         : RowEnumeratorImpl::kNoVars;
}

int RowEnumerator::VarSlot(std::string_view name) const {
  if (!impl_->searcher) return -1;
  auto it = impl_->searcher->var_slots.find(std::string(name));
  return it == impl_->searcher->var_slots.end() ? -1 : it->second;
}

void RowEnumerator::Enumerate(
    const std::function<bool(std::span<const ValueId>)>& visit) {
  if (!impl_->valid || impl_->searcher->impossible) return;
  impl_->searcher->visit_ids = &visit;
  impl_->searcher->Recurse(0);
}

void EnumerateHomomorphismsOver(
    const std::vector<Atom>& atoms, const std::vector<const Database*>& dbs,
    std::span<const RelationId> rel_ids, const Assignment& fixed,
    const std::function<bool(const Assignment&)>& visit,
    HomSearchStats* stats, const HomSearchOptions& options) {
  QCONT_CHECK(atoms.size() == dbs.size());
  if (options.use_index && SharePool(dbs)) {
    IndexedSearcher searcher(atoms, dbs, rel_ids, fixed, stats);
    if (searcher.impossible) return;
    searcher.visit = &visit;
    searcher.Recurse(0);
    return;
  }
  ScanSearcher searcher(atoms, dbs, fixed, stats);
  searcher.visit = &visit;
  searcher.Recurse(0);
}

void EnumerateHomomorphismsOver(
    const std::vector<Atom>& atoms, const std::vector<const Database*>& dbs,
    const Assignment& fixed,
    const std::function<bool(const Assignment&)>& visit,
    HomSearchStats* stats, const HomSearchOptions& options) {
  EnumerateHomomorphismsOver(atoms, dbs, /*rel_ids=*/{}, fixed, visit, stats,
                             options);
}

void EnumerateHomomorphisms(const ConjunctiveQuery& cq, const Database& db,
                            const Assignment& fixed,
                            const std::function<bool(const Assignment&)>& visit,
                            HomSearchStats* stats,
                            const HomSearchOptions& options) {
  std::vector<const Database*> dbs(cq.atoms().size(), &db);
  EnumerateHomomorphismsOver(cq.atoms(), dbs, fixed, visit, stats, options);
}

std::optional<Assignment> FindHomomorphism(const ConjunctiveQuery& cq,
                                           const Database& db,
                                           const Assignment& fixed,
                                           HomSearchStats* stats,
                                           const HomSearchOptions& options) {
  std::optional<Assignment> found;
  EnumerateHomomorphisms(
      cq, db, fixed,
      [&found](const Assignment& h) {
        found = h;
        return false;  // stop at the first homomorphism
      },
      stats, options);
  return found;
}

std::vector<Tuple> EvaluateCq(const ConjunctiveQuery& cq, const Database& db,
                              HomSearchStats* stats,
                              const HomSearchOptions& options) {
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
      stats, options);
  return std::vector<Tuple>(results.begin(), results.end());
}

std::vector<Tuple> EvaluateUcq(const UnionQuery& ucq, const Database& db,
                               HomSearchStats* stats,
                               const HomSearchOptions& options) {
  std::set<Tuple> results;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    for (Tuple& t : EvaluateCq(cq, db, stats, options)) {
      results.insert(std::move(t));
    }
  }
  return std::vector<Tuple>(results.begin(), results.end());
}

}  // namespace qcont
