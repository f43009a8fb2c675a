#ifndef QCONT_CORE_SUMMARY_FIXPOINT_H_
#define QCONT_CORE_SUMMARY_FIXPOINT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "core/datalog_ucq.h"
#include "core/instantiate.h"
#include "core/program_artifact_cache.h"
#include "obs/obs.h"

namespace qcont {
namespace internal {

// The summary fixpoint shared by the ACk (Theorem 6) and ACRk (Theorem 9)
// engines. Both decide Π ⊆ Θ by complementing a 2ATA B that walks Θ over
// the proof trees of Π. The acceptance game of B on a finite proof tree is
// a reachability game for Eve, so a subtree's behaviour is summarized
// exactly by the map (entry state) -> antichain of minimal exit-state sets
// Eve can enforce. A least fixpoint over (kind, summary) pairs finds every
// realizable summary; Π ⊆ Θ iff every realizable root summary accepts.
//
// The engines differ only in B's states and moves (a `SummaryGame`). This
// class owns the rest: the combination rounds and budgets, the local game
// solved at each proof-tree node, summary deduplication, the root check,
// witness assembly, and the counters.
//
// States are small integer tuples `header..., bindings...`. In *position
// form* (P) the bindings are head positions of the subtree's kind; in
// *rule form* (W) they are rule-variable representatives of the node's
// InstRule. Both forms are interned to dense ids once per run, so exit
// sets are sorted id vectors and the hot loops compare integers.

std::uint64_t HashInts(const int* data, std::size_t n);

/// Dense ids for integer tuples: the tuples are stored back to back in one
/// arena and indexed by an open-addressing table of (hash, id) slots. Keys
/// passed in must not point into the table's own arena.
class TupleTable {
 public:
  explicit TupleTable(std::pmr::memory_resource* memory)
      : hashes_(memory), ids_(memory), arena_(memory), start_(1, 0, memory) {}

  /// The id of `key`, and whether it was inserted by this call.
  std::pair<int, bool> Intern(const int* key, std::size_t n);
  template <typename Vector>
  std::pair<int, bool> Intern(const Vector& key) {
    return Intern(key.data(), key.size());
  }
  /// The id of `key`, or -1.
  int Find(const int* key, std::size_t n) const {
    return ids_.empty() ? -1 : ids_[Slot(HashInts(key, n), key, n)];
  }

  const int* data(int id) const { return arena_.data() + start_[id]; }
  std::size_t length(int id) const { return start_[id + 1] - start_[id]; }
  std::size_t size() const { return start_.size() - 1; }

 private:
  // The slot holding `key`, or the empty slot where it would go.
  std::size_t Slot(std::uint64_t hash, const int* key, std::size_t n) const {
    const std::size_t mask = ids_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const int id = ids_[i];
      if (id < 0 || (hashes_[i] == hash && length(id) == n &&
                     std::equal(key, key + n, data(id)))) {
        return i;
      }
    }
  }
  void Grow();

  std::pmr::vector<std::uint64_t> hashes_;
  std::pmr::vector<int> ids_;  // -1: empty slot
  std::pmr::vector<int> arena_;
  std::pmr::vector<std::size_t> start_;
};

/// One run's counters. The per-event fields (`combos`, `game_states`) are
/// valid on every exit path; the snapshot fields only once `summarized`.
struct FixpointRun {
  std::uint64_t kinds = 0;
  std::uint64_t summaries = 0;
  std::uint64_t combos = 0;
  std::uint64_t game_states = 0;
  std::uint64_t antichain_sets = 0;
  bool summarized = false;
};

/// Static description of one engine: budgets, the prefix of its budget
/// error messages ("ACk-engine"), its round span ("ack/round") and the
/// prefix of its metrics ("ack" for `ack.combos`, ...).
struct FixpointConfig {
  std::uint64_t max_summaries = 0;
  std::uint64_t max_combos = 0;
  const ObsContext* obs = nullptr;
  const char* error_prefix = "";
  const char* round_span = "";
  const char* metric_prefix = "";
};

class SummaryFixpoint;

/// The engine-specific half: B's states and moves.
class SummaryGame {
 public:
  virtual ~SummaryGame() = default;

  /// Calls `fx.AddEntry` for every entry state of a kind whose canonical
  /// head positions (first occurrence of each value) are `canonical`.
  virtual void EntryStates(const std::vector<int>& canonical,
                           SummaryFixpoint& fx) const = 0;

  /// Index of the first binding in a state tuple.
  virtual int BindingsOffset(const int* state) const = 0;

  /// Adds the moves of rule-form state `state` at the node being solved
  /// (`fx.rule()`), as clauses (`BeginClause`/`AddSuccessor`/`EndClause`)
  /// and through the shared `AddExit`/`AddDescend` moves.
  virtual void Expand(const int* state, std::size_t n,
                      SummaryFixpoint& fx) const = 0;

  /// Whether root summary `summary` of `kind` (head pattern `pattern`)
  /// lets Eve win outright.
  virtual bool RootAccepts(const SummaryFixpoint& fx, int kind, int summary,
                           const std::vector<int>& pattern) const = 0;
};

class SummaryFixpoint {
 public:
  /// `artifact`, `game` and `run` are borrowed and must outlive the object.
  SummaryFixpoint(const ProgramArtifact& artifact, const SummaryGame& game,
                  const FixpointConfig& config, FixpointRun* run);

  /// Runs the fixpoint, then checks every root summary: contained, or not
  /// contained with a witness expansion from the first rejecting summary.
  Result<ContainmentAnswer> Decide();

  // ---- Building blocks for SummaryGame::EntryStates / Expand.

  void AddEntry(const int* state, std::size_t n);
  template <typename Vector>
  void AddEntry(const Vector& state) {
    AddEntry(state.data(), state.size());
  }
  const InstRule& rule() const { return *rule_; }
  const InstRulePrecomp& precomp() const { return *precomp_; }
  /// A clause is a conjunction of successor states: it contributes every
  /// union of one exit set per successor. A clause without successors is
  /// an immediate win (the empty exit set).
  void BeginClause() { clause_begin_ = succs_.size(); }
  void AddSuccessor(const int* state, std::size_t n);
  template <typename Vector>
  void AddSuccessor(const Vector& state) {
    AddSuccessor(state.data(), state.size());
  }
  void EndClause();
  /// Exit upward: possible iff every binding survives into the head.
  void AddExit(const int* state, std::size_t n);
  /// Move into every proof child whose head carries all the bindings,
  /// continuing each exit set of the child's summary at this node.
  void AddDescend(const int* state, std::size_t n);

  // ---- Reading summaries (SummaryGame::RootAccepts).

  /// The tuple of position-form state `id`.
  const int* PState(int id) const { return p_states_.data(id); }
  /// Whether some exit set of entry `entry` in summary `summary` of `kind`
  /// satisfies `accept(ids, count)`; false when `entry` is no entry.
  template <typename Accept>
  bool AnyExitSet(int kind, int summary, const int* entry, std::size_t n,
                  Accept&& accept) const {
    const int slot = EntrySlot(kind, p_states_.Find(entry, n));
    if (slot < 0) return false;
    const int* begin;
    const int* end;
    EntrySets(kind_summaries_[kind][summary], slot, &begin, &end);
    for (const int* s = begin; s < end; s += 1 + *s) {
      if (accept(s + 1, *s)) return true;
    }
    return false;
  }

 private:
  struct Clause {
    int exit = -1;  // constant exit-state id, or -1
    std::size_t succ_begin = 0;
    std::size_t succ_end = 0;
  };
  template <typename T>
  using Vec = std::pmr::vector<T>;

  Status Fixpoint();
  void BuildEntries(int kind);
  int EntrySlot(int kind, int p_id) const;
  void EntrySets(int summary, int slot, const int** begin,
                 const int** end) const;
  // Solves the local game at a node of `kind` labeled by its `rule_pos`-th
  // rule with child summaries `combo_`; returns the global summary id and
  // whether it is new.
  std::pair<int, bool> ComputeSummary(int kind, int rule_pos);
  int Discover(const int* w_state, std::size_t n);
  void Solve();
  void Evaluate(int slot, Vec<int>* out);
  void Product(const Clause& clause, Vec<int>* out);
  void Canonicalize(Vec<int>* antichain);
  void ToW(int p_id, const std::vector<int>& terms);
  ContainmentAnswer Witness(int kind, int index) const;

  const ProgramArtifact& artifact_;
  const KindSpace& kinds_;
  const SummaryGame& game_;
  FixpointConfig config_;
  FixpointRun* run_;

  // Every container below draws from this run-local arena: its first
  // blocks come from `buffer_`, so a typical run's tables and scratch never
  // reach the heap, and all of it is released at once with the object.
  std::array<std::byte, 16384> buffer_;
  std::pmr::monotonic_buffer_resource memory_{buffer_.data(), buffer_.size()};

  TupleTable p_states_{&memory_};
  TupleTable w_states_{&memory_};
  TupleTable combos_{&memory_};
  // Entry states as (kind, P-id) tuples, numbered kind by kind: the entries
  // of kind k are ids [entry_begin_[k], entry_end_[k]) (-1: not built yet),
  // and an entry's slot is its offset in that range.
  TupleTable entries_{&memory_};
  Vec<int> entry_begin_{&memory_}, entry_end_{&memory_};
  int entry_kind_ = -1;  // the kind BuildEntries is collecting for
  // Per kind: summary ids in discovery order.
  Vec<Vec<int>> kind_summaries_{&memory_};
  // Summaries as tuples [kind, E, E+1 offsets, exit sets...]: the exit sets
  // of entry e span offsets [e, e+1) past the header, each set its length
  // followed by its sorted P-ids. Provenance per summary id: the id of the
  // combination key that produced it.
  TupleTable summaries_{&memory_};
  Vec<int> prov_combo_{&memory_};

  // The node being solved and its local game. Slots number the game's
  // W-states in discovery order; `slot_of_` maps W-ids to slots for the
  // current game (valid where `slot_stamp_` equals `stamp_`).
  const InstRule* rule_ = nullptr;
  const InstRulePrecomp* precomp_ = nullptr;
  Vec<int> combo_{&memory_};
  Vec<int> slot_of_{&memory_};
  Vec<std::uint32_t> slot_stamp_{&memory_};
  std::uint32_t stamp_ = 0;
  Vec<int> slot_w_{&memory_};
  Vec<std::size_t> slot_clauses_{&memory_};
  Vec<Clause> clauses_{&memory_};
  Vec<int> succs_{&memory_};
  std::size_t clause_begin_ = 0;
  Vec<std::size_t> dep_start_{&memory_}, dep_fill_{&memory_};
  Vec<int> deps_{&memory_};
  Vec<Vec<int>> values_{&memory_};  // per slot antichain, reused across games
  Vec<int> queue_{&memory_};
  Vec<char> queued_{&memory_};

  // Scratch, reused across games.
  Vec<int> key_{&memory_}, expand_key_{&memory_}, p_key_{&memory_},
      w_key_{&memory_}, result_{&memory_}, sorted_{&memory_}, order_{&memory_},
      summary_{&memory_}, entry_slot_of_{&memory_};
  Vec<Vec<int>> acc_{&memory_};
  Vec<std::size_t> pick_{&memory_};
  Vec<const Vec<int>*> parts_{&memory_};
};

/// Publishes one run's counters to the registry and the caller's legacy
/// stats sink (AckEngineStats / AcrkEngineStats): the per-event counters
/// unconditionally, the post-fixpoint snapshot fields only once the
/// fixpoint completed. Levels are the engines' own.
template <typename Stats>
void FlushFixpointRun(const FixpointConfig& config, const FixpointRun& run,
                      Stats* stats) {
  if (MetricRegistry* metrics = ObsMetrics(config.obs)) {
    auto name = [&config](const char* field) {
      std::string out = config.metric_prefix;
      out += '.';
      out += field;
      return out;
    };
    metrics->Add(name("combos"), run.combos);
    metrics->Add(name("game_states"), run.game_states);
    if (run.summarized) {
      metrics->Add(name("summaries"), run.summaries);
      metrics->Add(name("antichain_sets"), run.antichain_sets);
      metrics->SetGauge(name("kinds"), run.kinds);
    }
  }
  if (stats == nullptr) return;
  stats->combos += run.combos;
  stats->game_states += run.game_states;
  if (run.summarized) {
    stats->kinds = run.kinds;
    stats->summaries += run.summaries;
    stats->antichain_sets += run.antichain_sets;
  }
}

}  // namespace internal
}  // namespace qcont

#endif  // QCONT_CORE_SUMMARY_FIXPOINT_H_
