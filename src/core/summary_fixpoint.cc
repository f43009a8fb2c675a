#include "core/summary_fixpoint.h"

#include <algorithm>
#include <string>

namespace qcont {
namespace internal {

void TupleTable::Grow() {
  const std::size_t capacity = std::max<std::size_t>(64, ids_.size() * 2);
  hashes_.assign(capacity, 0);
  ids_.assign(capacity, -1);
  for (std::size_t id = 0; id < size(); ++id) {
    const int* key = data(static_cast<int>(id));
    const std::uint64_t hash = HashInts(key, length(static_cast<int>(id)));
    const std::size_t slot = Slot(hash, key, length(static_cast<int>(id)));
    hashes_[slot] = hash;
    ids_[slot] = static_cast<int>(id);
  }
}

std::uint64_t HashInts(const int* data, std::size_t n) {
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint32_t>(data[i])) * 0x9e3779b97f4a7c15ULL;
  }
  return Mix64(h);
}

std::pair<int, bool> TupleTable::Intern(const int* key, std::size_t n) {
  if (size() * 2 >= ids_.size()) Grow();
  const std::uint64_t hash = HashInts(key, n);
  const std::size_t slot = Slot(hash, key, n);
  if (ids_[slot] >= 0) return {ids_[slot], false};
  hashes_[slot] = hash;
  ids_[slot] = static_cast<int>(size());
  arena_.insert(arena_.end(), key, key + n);
  start_.push_back(arena_.size());
  return {ids_[slot], true};
}

namespace {

// Antichains of exit sets are flat int vectors: each set is its length
// followed by its sorted state ids. The helpers keep only minimal sets.

bool IsSubset(const int* a, int na, const int* b, int nb) {
  return std::includes(b, b + nb, a, a + na);
}

// Inserts the set s[0..n) into `ac` unless some member is a subset of it,
// removing the members it is a subset of. `s` must not point into `ac`.
void AntichainInsert(std::pmr::vector<int>* ac, const int* s, int n) {
  for (std::size_t i = 0; i < ac->size(); i += 1 + (*ac)[i]) {
    if (IsSubset(ac->data() + i + 1, (*ac)[i], s, n)) return;
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < ac->size();) {
    const std::size_t len = 1 + (*ac)[i];
    if (!IsSubset(s, n, ac->data() + i + 1, (*ac)[i])) {
      std::copy(ac->begin() + i, ac->begin() + i + len, ac->begin() + w);
      w += len;
    }
    i += len;
  }
  ac->resize(w);
  ac->push_back(n);
  ac->insert(ac->end(), s, s + n);
}

}  // namespace

SummaryFixpoint::SummaryFixpoint(const ProgramArtifact& artifact,
                                 const SummaryGame& game,
                                 const FixpointConfig& config, FixpointRun* run)
    : artifact_(artifact),
      kinds_(artifact.kinds()),
      game_(game),
      config_(config),
      run_(run) {}

Result<ContainmentAnswer> SummaryFixpoint::Decide() {
  entry_begin_.assign(kinds_.NumKinds(), -1);
  entry_end_.assign(kinds_.NumKinds(), -1);
  kind_summaries_.resize(kinds_.NumKinds());
  QCONT_RETURN_IF_ERROR(Fixpoint());
  run_->kinds = kinds_.NumKinds();
  run_->summaries = summaries_.size();
  run_->summarized = true;
  for (int kind : artifact_.root_kinds()) {
    const std::vector<int>& pattern = kinds_.KeyOf(kind).pattern;
    for (std::size_t s = 0; s < kind_summaries_[kind].size(); ++s) {
      if (!game_.RootAccepts(*this, kind, static_cast<int>(s), pattern)) {
        return Witness(kind, static_cast<int>(s));
      }
    }
  }
  ContainmentAnswer answer;
  answer.contained = true;
  return answer;
}

ContainmentAnswer SummaryFixpoint::Witness(int kind, int index) const {
  ContainmentAnswer answer;
  answer.contained = false;
  answer.witness = BuildWitnessCq(
      kinds_, kind, index, [this](int k, long token) {
        // The combination key [kind, rule, child summaries...].
        const int combo = prov_combo_[kind_summaries_[k][token]];
        const int* key = combos_.data(combo);
        WitnessNode node;
        node.rule = &kinds_.RulesOf(k)[key[1]];
        node.child_tokens.assign(key + 2, key + combos_.length(combo));
        return node;
      });
  return answer;
}

// Rounds until no new summary appears. Each round visits, per kind and
// rule, every child combination over the current (live) summary counts in
// odometer order, and solves those not visited before — so summary ids,
// provenance and witnesses follow one fixed order.
Status SummaryFixpoint::Fixpoint() {
  std::uint64_t round = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ObsSpan round_span(config_.obs, config_.round_span, "core");
    round_span.AddArg("round", round++);
    for (std::size_t k = 0; k < kinds_.NumKinds(); ++k) {
      const std::vector<InstRule>& rules = kinds_.RulesOf(static_cast<int>(k));
      for (std::size_t rp = 0; rp < rules.size(); ++rp) {
        const InstRule& rule = rules[rp];
        const std::size_t num_children = rule.idb_atoms.size();
        bool viable = true;
        for (const InstIdbAtom& child : rule.idb_atoms) {
          if (kind_summaries_[child.kind_id].empty()) {
            viable = false;
            break;
          }
        }
        if (!viable) continue;
        combo_.assign(num_children, 0);
        while (true) {
          key_.assign({static_cast<int>(k), static_cast<int>(rp)});
          key_.insert(key_.end(), combo_.begin(), combo_.end());
          const auto [combo_id, unseen] = combos_.Intern(key_);
          if (unseen) {
            ++run_->combos;
            if (combos_.size() > config_.max_combos) {
              return ResourceExhaustedError(std::string(config_.error_prefix) +
                                            " combination budget exceeded");
            }
            const auto [sid, fresh] =
                ComputeSummary(static_cast<int>(k), static_cast<int>(rp));
            if (fresh) {
              kind_summaries_[k].push_back(sid);
              prov_combo_.push_back(combo_id);
              if (summaries_.size() > config_.max_summaries) {
                return ResourceExhaustedError(
                    std::string(config_.error_prefix) +
                    " summary budget exceeded");
              }
              changed = true;
            }
          }
          std::size_t pos = 0;
          while (pos < num_children) {
            const int limit = static_cast<int>(
                kind_summaries_[rule.idb_atoms[pos].kind_id].size());
            if (++combo_[pos] < limit) break;
            combo_[pos] = 0;
            ++pos;
          }
          if (pos == num_children) break;
        }
      }
    }
  }
  return Status::Ok();
}

void SummaryFixpoint::BuildEntries(int kind) {
  if (entry_begin_[kind] >= 0) return;
  entry_begin_[kind] = static_cast<int>(entries_.size());
  const std::vector<int>& pattern = kinds_.KeyOf(kind).pattern;
  std::vector<int> canonical;
  for (std::size_t p = 0; p < pattern.size(); ++p) {
    if (pattern[p] == static_cast<int>(p)) {
      canonical.push_back(static_cast<int>(p));
    }
  }
  entry_kind_ = kind;
  game_.EntryStates(canonical, *this);
  entry_end_[kind] = static_cast<int>(entries_.size());
}

void SummaryFixpoint::AddEntry(const int* state, std::size_t n) {
  const int key[2] = {entry_kind_, p_states_.Intern(state, n).first};
  entries_.Intern(key, 2);
}

int SummaryFixpoint::EntrySlot(int kind, int p_id) const {
  const int key[2] = {kind, p_id};
  const int id = p_id < 0 ? -1 : entries_.Find(key, 2);
  return id < 0 ? -1 : id - entry_begin_[kind];
}

void SummaryFixpoint::EntrySets(int summary, int slot, const int** begin,
                                const int** end) const {
  const int* header = summaries_.data(summary);
  const int* sets = header + 3 + header[1];
  *begin = sets + header[2 + slot];
  *end = sets + header[3 + slot];
}

std::pair<int, bool> SummaryFixpoint::ComputeSummary(int kind, int rule_pos) {
  BuildEntries(kind);
  rule_ = &kinds_.RulesOf(kind)[rule_pos];
  precomp_ = &artifact_.precomp(kind, rule_pos);
  ++stamp_;
  slot_w_.clear();
  slot_clauses_.clear();
  clauses_.clear();
  succs_.clear();

  // Seed the game with every entry state of this kind, in rule form, then
  // expand states in discovery order; expansion discovers their moves.
  const int first_entry = entry_begin_[kind];
  const int num_entries = entry_end_[kind] - first_entry;
  entry_slot_of_.resize(num_entries);
  for (int e = 0; e < num_entries; ++e) {
    ToW(entries_.data(first_entry + e)[1], rule_->head);
    entry_slot_of_[e] = Discover(w_key_.data(), w_key_.size());
  }
  for (std::size_t slot = 0; slot < slot_w_.size(); ++slot) {
    slot_clauses_.push_back(clauses_.size());
    const int w = slot_w_[slot];
    expand_key_.assign(w_states_.data(w), w_states_.data(w) + w_states_.length(w));
    game_.Expand(expand_key_.data(), expand_key_.size(), *this);
  }
  slot_clauses_.push_back(clauses_.size());
  Solve();

  // The summary: per entry, the antichain of its W-state, flattened and
  // interned (structural hash plus equality) with its kind.
  summary_.assign(3 + num_entries, 0);
  summary_[0] = kind;
  summary_[1] = num_entries;
  std::uint64_t sets = 0;
  for (int e = 0; e < num_entries; ++e) {
    const Vec<int>& value = values_[entry_slot_of_[e]];
    for (std::size_t i = 0; i < value.size(); i += 1 + value[i]) ++sets;
    summary_.insert(summary_.end(), value.begin(), value.end());
    summary_[3 + e] = static_cast<int>(summary_.size()) - 3 - num_entries;
  }
  const auto found = summaries_.Intern(summary_);
  if (found.second) run_->antichain_sets += sets;
  return found;
}

int SummaryFixpoint::Discover(const int* w_state, std::size_t n) {
  const int w = w_states_.Intern(w_state, n).first;
  if (static_cast<std::size_t>(w) >= slot_of_.size()) {
    slot_of_.resize(w + 1, -1);
    slot_stamp_.resize(w + 1, 0);
  }
  if (slot_stamp_[w] != stamp_) {
    slot_stamp_[w] = stamp_;
    slot_of_[w] = static_cast<int>(slot_w_.size());
    slot_w_.push_back(w);
    ++run_->game_states;
  }
  return slot_of_[w];
}

void SummaryFixpoint::AddSuccessor(const int* state, std::size_t n) {
  succs_.push_back(Discover(state, n));
}

void SummaryFixpoint::EndClause() {
  clauses_.push_back(Clause{-1, clause_begin_, succs_.size()});
}

void SummaryFixpoint::AddExit(const int* state, std::size_t n) {
  const std::size_t off = game_.BindingsOffset(state);
  const std::vector<int>& head_pos = precomp_->head_pos;
  p_key_.assign(state, state + off);
  for (std::size_t i = off; i < n; ++i) {
    const std::size_t w = static_cast<std::size_t>(state[i]);
    const int pos = w < head_pos.size() ? head_pos[w] : -1;
    if (pos < 0) return;  // a binding buried below the interface
    p_key_.push_back(pos);
  }
  const int exit = p_states_.Intern(p_key_).first;
  clauses_.push_back(Clause{exit, succs_.size(), succs_.size()});
}

void SummaryFixpoint::AddDescend(const int* state, std::size_t n) {
  const std::size_t off = game_.BindingsOffset(state);
  for (std::size_t c = 0; c < rule_->idb_atoms.size(); ++c) {
    const InstIdbAtom& child = rule_->idb_atoms[c];
    p_key_.assign(state, state + off);
    bool ok = true;
    for (std::size_t i = off; i < n && ok; ++i) {
      const auto it =
          std::find(child.terms.begin(), child.terms.end(), state[i]);
      ok = it != child.terms.end();
      if (ok) p_key_.push_back(static_cast<int>(it - child.terms.begin()));
    }
    if (!ok) continue;
    const int slot =
        EntrySlot(child.kind_id, p_states_.Find(p_key_.data(), p_key_.size()));
    if (slot < 0) continue;
    const int summary = kind_summaries_[child.kind_id][combo_[c]];
    const int* begin;
    const int* end;
    EntrySets(summary, slot, &begin, &end);
    for (const int* s = begin; s < end; s += 1 + *s) {
      BeginClause();
      for (int i = 1; i <= *s; ++i) {
        ToW(s[i], child.terms);
        AddSuccessor(w_key_.data(), w_key_.size());
      }
      EndClause();
    }
  }
}

// Rewrites position-form state `p_id` into rule form through `terms` (the
// head terms of the node its positions refer to), into w_key_.
void SummaryFixpoint::ToW(int p_id, const std::vector<int>& terms) {
  const int* p = p_states_.data(p_id);
  const std::size_t n = p_states_.length(p_id);
  const std::size_t off = game_.BindingsOffset(p);
  w_key_.assign(p, p + off);
  for (std::size_t i = off; i < n; ++i) w_key_.push_back(terms[p[i]]);
}

void SummaryFixpoint::Solve() {
  const std::size_t n = slot_w_.size();
  // Reverse dependencies, as a flat adjacency: slot t -> clauses reading t.
  dep_start_.assign(n + 1, 0);
  for (int t : succs_) ++dep_start_[t + 1];
  for (std::size_t i = 0; i < n; ++i) dep_start_[i + 1] += dep_start_[i];
  deps_.resize(succs_.size());
  {
    Vec<std::size_t>& fill = dep_fill_;
    fill.assign(dep_start_.begin(), dep_start_.end() - 1);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t c = slot_clauses_[s]; c < slot_clauses_[s + 1]; ++c) {
        for (std::size_t i = clauses_[c].succ_begin; i < clauses_[c].succ_end;
             ++i) {
          deps_[fill[succs_[i]]++] = static_cast<int>(s);
        }
      }
    }
  }
  if (values_.size() < n) values_.resize(n);
  for (std::size_t s = 0; s < n; ++s) values_[s].clear();
  // Later discoveries are mostly successors of earlier ones, so the first
  // pass runs in reverse discovery order.
  queue_.resize(n);
  for (std::size_t s = 0; s < n; ++s) queue_[s] = static_cast<int>(n - 1 - s);
  queued_.assign(n, 1);
  // Kleene iteration from the empty antichains, re-evaluating only the
  // states whose successors changed: the least fixpoint is unique, so this
  // reaches the same values as full sweeps.
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int s = queue_[head];
    queued_[s] = 0;
    Evaluate(s, &result_);
    if (result_ == values_[s]) continue;
    values_[s].swap(result_);
    for (std::size_t i = dep_start_[s]; i < dep_start_[s + 1]; ++i) {
      const int d = deps_[i];
      if (!queued_[d]) {
        queued_[d] = 1;
        queue_.push_back(d);
      }
    }
  }
}

void SummaryFixpoint::Evaluate(int slot, Vec<int>* out) {
  out->clear();
  for (std::size_t c = slot_clauses_[slot]; c < slot_clauses_[slot + 1]; ++c) {
    Product(clauses_[c], out);
  }
  Canonicalize(out);
}

// Inserts into `out` every union of the clause's constant exit with one
// exit set per successor, enumerated by an odometer over the successors'
// antichains (acc_[i] holds the union of the picks before successor i).
void SummaryFixpoint::Product(const Clause& clause, Vec<int>* out) {
  const std::size_t n = clause.succ_end - clause.succ_begin;
  parts_.clear();
  for (std::size_t i = clause.succ_begin; i < clause.succ_end; ++i) {
    const Vec<int>& part = values_[succs_[i]];
    if (part.empty()) return;
    parts_.push_back(&part);
  }
  if (n == 1 && clause.exit < 0) {  // the successor's sets, as they are
    const Vec<int>& part = *parts_[0];
    for (std::size_t i = 0; i < part.size(); i += 1 + part[i]) {
      AntichainInsert(out, part.data() + i + 1, part[i]);
    }
    return;
  }
  if (acc_.size() < n + 1) acc_.resize(n + 1);
  acc_[0].clear();
  if (clause.exit >= 0) acc_[0].push_back(clause.exit);
  Vec<std::size_t>& pick = pick_;
  pick.assign(n, 0);
  std::size_t i = 0;
  while (true) {
    if (i == n) {
      AntichainInsert(out, acc_[n].data(), static_cast<int>(acc_[n].size()));
      // Backtrack to the deepest successor with another exit set.
      while (true) {
        if (i == 0) return;
        --i;
        pick[i] += 1 + (*parts_[i])[pick[i]];
        if (pick[i] < parts_[i]->size()) break;
        pick[i] = 0;
      }
    }
    const int* set = parts_[i]->data() + pick[i] + 1;
    const int len = (*parts_[i])[pick[i]];
    acc_[i + 1].clear();
    std::set_union(acc_[i].begin(), acc_[i].end(), set, set + len,
                   std::back_inserter(acc_[i + 1]));
    ++i;
  }
}

// Sorts the sets of an antichain lexicographically, so equal antichains
// have equal encodings.
void SummaryFixpoint::Canonicalize(Vec<int>* antichain) {
  const Vec<int>& ac = *antichain;
  order_.clear();
  for (std::size_t i = 0; i < ac.size(); i += 1 + ac[i]) {
    order_.push_back(static_cast<int>(i));
  }
  auto less = [&ac](int a, int b) {
    return std::lexicographical_compare(ac.begin() + a + 1,
                                        ac.begin() + a + 1 + ac[a],
                                        ac.begin() + b + 1,
                                        ac.begin() + b + 1 + ac[b]);
  };
  if (std::is_sorted(order_.begin(), order_.end(), less)) return;
  std::sort(order_.begin(), order_.end(), less);
  sorted_.clear();
  for (int i : order_) {
    sorted_.insert(sorted_.end(), ac.begin() + i, ac.begin() + i + 1 + ac[i]);
  }
  antichain->swap(sorted_);
}

}  // namespace internal
}  // namespace qcont
