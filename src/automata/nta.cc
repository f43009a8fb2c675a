#include "automata/nta.h"

#include <map>
#include <queue>

#include "base/check.h"
#include "base/hash.h"

namespace qcont {

void TreeAutomaton::AddTransition(int state, int symbol,
                                  std::vector<int> children) {
  QCONT_CHECK(state >= 0 && state < num_states_);
  for (int c : children) QCONT_CHECK(c >= 0 && c < num_states_);
  transitions_.push_back(Transition{state, symbol, std::move(children)});
}

std::set<int> TreeAutomaton::AcceptingStatesAt(const RankedTree& tree,
                                               int node) const {
  std::vector<std::set<int>> child_states;
  for (int c : tree.Children(node)) {
    child_states.push_back(AcceptingStatesAt(tree, c));
  }
  std::set<int> out;
  for (const Transition& t : transitions_) {
    if (t.symbol != tree.Symbol(node)) continue;
    if (t.children.size() != child_states.size()) continue;
    if (out.count(t.state)) continue;
    bool ok = true;
    for (std::size_t i = 0; i < t.children.size(); ++i) {
      if (!child_states[i].count(t.children[i])) {
        ok = false;
        break;
      }
    }
    if (ok) out.insert(t.state);
  }
  return out;
}

bool TreeAutomaton::Accepts(const RankedTree& tree) const {
  std::set<int> root_states = AcceptingStatesAt(tree, tree.root());
  for (int q : initial_) {
    if (root_states.count(q)) return true;
  }
  return false;
}

bool TreeAutomaton::IsEmpty(std::optional<RankedTree>* witness) const {
  // Productive states: q is productive if some transition from q has all
  // children productive. Track one witness transition per state for
  // reconstruction.
  std::vector<int> witness_transition(num_states_, -1);
  std::vector<bool> productive(num_states_, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < transitions_.size(); ++i) {
      const Transition& t = transitions_[i];
      if (productive[t.state]) continue;
      bool ok = true;
      for (int c : t.children) {
        if (!productive[c]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        productive[t.state] = true;
        witness_transition[t.state] = static_cast<int>(i);
        changed = true;
      }
    }
  }
  int initial_productive = -1;
  for (int q : initial_) {
    if (productive[q]) {
      initial_productive = q;
      break;
    }
  }
  if (initial_productive < 0) return true;
  if (witness != nullptr) {
    const Transition& root_t = transitions_[witness_transition[initial_productive]];
    RankedTree tree(root_t.symbol);
    // BFS expansion following witness transitions.
    std::queue<std::pair<int, int>> frontier;  // (tree node, state)
    for (int c : root_t.children) frontier.emplace(tree.root(), c);
    while (!frontier.empty()) {
      auto [parent_node, state] = frontier.front();
      frontier.pop();
      const Transition& t = transitions_[witness_transition[state]];
      int node = tree.AddChild(parent_node, t.symbol);
      for (int c : t.children) frontier.emplace(node, c);
    }
    *witness = std::move(tree);
  }
  return false;
}

TreeAutomaton TreeAutomaton::Intersection(const TreeAutomaton& a,
                                          const TreeAutomaton& b) {
  TreeAutomaton out;
  auto encode = [&](int qa, int qb) { return qa * b.num_states() + qb; };
  for (int i = 0; i < a.num_states() * b.num_states(); ++i) out.AddState();
  for (int qa : a.initial()) {
    for (int qb : b.initial()) out.AddInitial(encode(qa, qb));
  }
  for (const Transition& ta : a.transitions()) {
    for (const Transition& tb : b.transitions()) {
      if (ta.symbol != tb.symbol || ta.children.size() != tb.children.size()) {
        continue;
      }
      std::vector<int> children;
      children.reserve(ta.children.size());
      for (std::size_t i = 0; i < ta.children.size(); ++i) {
        children.push_back(encode(ta.children[i], tb.children[i]));
      }
      out.AddTransition(encode(ta.state, tb.state), ta.symbol,
                        std::move(children));
    }
  }
  return out;
}

TreeAutomaton TreeAutomaton::Complement(
    const TreeAutomaton& a, const std::vector<std::pair<int, int>>& alphabet) {
  // Bottom-up subset construction over *reachable* subsets. A subtree
  // evaluates (deterministically) to the set of states accepting it; the
  // complement flips which root subsets are accepting.
  std::map<std::set<int>, int> subset_id;
  std::vector<std::set<int>> subsets;
  auto id_of = [&](const std::set<int>& s) {
    auto [it, inserted] = subset_id.emplace(s, static_cast<int>(subsets.size()));
    if (inserted) subsets.push_back(s);
    return it->second;
  };
  struct DetTransition {
    int symbol;
    std::vector<int> children;  // subset ids
    int result;                 // subset id
  };
  std::vector<DetTransition> det;
  std::set<std::string> recorded;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto [symbol, arity] : alphabet) {
      // All combinations of currently known subsets as children.
      std::vector<int> combo(arity, 0);
      const int known = static_cast<int>(subsets.size());
      if (arity > 0 && known == 0) continue;
      while (true) {
        std::string key = std::to_string(symbol);
        for (int c : combo) {
          key += ',';
          key += std::to_string(c);
        }
        if (recorded.insert(key).second) {
          std::set<int> result;
          for (const Transition& t : a.transitions_) {
            if (t.symbol != symbol ||
                t.children.size() != static_cast<std::size_t>(arity)) {
              continue;
            }
            bool ok = true;
            for (int i = 0; i < arity; ++i) {
              if (!subsets[combo[i]].count(t.children[i])) {
                ok = false;
                break;
              }
            }
            if (ok) result.insert(t.state);
          }
          int result_id = id_of(result);
          if (result_id >= known) changed = true;
          det.push_back(DetTransition{symbol, combo, result_id});
          changed = changed || result_id >= known;
        }
        int pos = 0;
        while (pos < arity) {
          if (++combo[pos] < known) break;
          combo[pos] = 0;
          ++pos;
        }
        if (pos == arity) break;
      }
    }
  }
  TreeAutomaton out;
  for (std::size_t i = 0; i < subsets.size(); ++i) out.AddState();
  for (const DetTransition& t : det) {
    out.AddTransition(t.result, t.symbol, t.children);
  }
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    bool accepts_original = false;
    for (int q : a.initial_) accepts_original = accepts_original || subsets[i].count(q);
    if (!accepts_original) out.AddInitial(static_cast<int>(i));
  }
  return out;
}

bool TreeAutomaton::Contains(const TreeAutomaton& a, const TreeAutomaton& b,
                             const std::vector<std::pair<int, int>>& alphabet,
                             std::optional<RankedTree>* witness) {
  TreeAutomaton not_b = Complement(b, alphabet);
  return Intersection(a, not_b).IsEmpty(witness);
}

TreeAutomaton TreeAutomaton::Union(const TreeAutomaton& a,
                                   const TreeAutomaton& b) {
  TreeAutomaton out;
  for (int i = 0; i < a.num_states() + b.num_states(); ++i) out.AddState();
  const int offset = a.num_states();
  for (int q : a.initial()) out.AddInitial(q);
  for (int q : b.initial()) out.AddInitial(q + offset);
  for (const Transition& t : a.transitions()) {
    out.AddTransition(t.state, t.symbol, t.children);
  }
  for (const Transition& t : b.transitions()) {
    std::vector<int> children;
    children.reserve(t.children.size());
    for (int c : t.children) children.push_back(c + offset);
    out.AddTransition(t.state + offset, t.symbol, std::move(children));
  }
  return out;
}

}  // namespace qcont
