#ifndef QCONT_CORE_INSTANTIATE_H_
#define QCONT_CORE_INSTANTIATE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cq/query.h"
#include "datalog/program.h"

namespace qcont {
namespace internal {

/// Canonical equality pattern of a tuple: pattern[i] = first position
/// holding the same value as position i (e.g. (x,y,x) -> [0,1,0]).
template <typename T>
std::vector<int> PatternOf(const std::vector<T>& tuple) {
  std::vector<int> pattern(tuple.size());
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    pattern[i] = static_cast<int>(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (tuple[j] == tuple[i]) {
        pattern[i] = static_cast<int>(j);
        break;
      }
    }
  }
  return pattern;
}

/// A "kind" of expansion subtree: the head predicate together with the
/// equality pattern of the head tuple. By the freshness condition on
/// expansion trees, the kind determines everything the context can observe
/// about a subtree up to renaming, so engine state is keyed by kinds.
struct KindKey {
  std::string pred;
  std::vector<int> pattern;

  friend bool operator<(const KindKey& a, const KindKey& b) {
    if (a.pred != b.pred) return a.pred < b.pred;
    return a.pattern < b.pattern;
  }
};

struct InstIdbAtom {
  int kind_id;
  std::vector<int> terms;  // W representatives
};

/// A rule of Π specialized to a head equality pattern. "W representatives"
/// are rule-variable indices after merging per the pattern.
struct InstRule {
  int rule_index = -1;
  std::vector<int> head;  // W rep per head position
  std::vector<std::pair<std::string, std::vector<int>>> edb_atoms;
  std::vector<InstIdbAtom> idb_atoms;
};

/// The lazily-discovered space of kinds of a program, with each kind's
/// applicable specialized rules. Child kinds referenced by InstIdbAtom are
/// discovered transitively.
class KindSpace {
 public:
  explicit KindSpace(const DatalogProgram& program) : program_(&program) {}

  /// Returns the id of `key`, discovering and instantiating it (and,
  /// transitively, every kind reachable from it) on first use.
  int GetKind(const KindKey& key);

  std::size_t NumKinds() const { return keys_.size(); }
  const KindKey& KeyOf(int kind_id) const { return keys_[kind_id]; }
  const std::vector<InstRule>& RulesOf(int kind_id) const {
    return rules_[kind_id];
  }

  /// Root kinds of the program: one per goal rule, keyed by that rule's own
  /// head pattern (checking these suffices; coarser root instances are
  /// substitution instances of these and preserve both directions of the
  /// containment test).
  std::vector<int> RootKinds();

  /// Drops the program reference. The instantiated rules and keys carry
  /// their own data, so a fully expanded space serves every read without
  /// the program; discovering a kind afterwards is a checked error.
  void Freeze() { program_ = nullptr; }

 private:
  void InstantiatePending();
  std::optional<InstRule> Instantiate(int rule, const std::vector<int>& pattern);

  const DatalogProgram* program_;  // null once frozen
  std::map<KindKey, int> ids_;
  std::vector<KindKey> keys_;
  std::vector<std::vector<InstRule>> rules_;
  std::vector<bool> instantiated_;
  std::vector<int> pending_;
};

/// Rebuilds the expansion CQ of a tree described by a per-node callback:
/// `expand(kind_id, node_token)` returns the InstRule used at the node and
/// the tokens of its children (one per idb atom). Used by the engines to
/// turn provenance chains into counterexample witnesses.
struct WitnessNode {
  const InstRule* rule;
  std::vector<long> child_tokens;
};

ConjunctiveQuery BuildWitnessCq(
    const KindSpace& kinds, int root_kind, long root_token,
    const std::function<WitnessNode(int kind_id, long token)>& expand);

}  // namespace internal
}  // namespace qcont

#endif  // QCONT_CORE_INSTANTIATE_H_
