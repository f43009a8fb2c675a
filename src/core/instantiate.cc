#include "core/instantiate.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "base/check.h"
#include "cq/query.h"

namespace qcont {
namespace internal {

int KindSpace::GetKind(const KindKey& key) {
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  int id = static_cast<int>(keys_.size());
  ids_.emplace(key, id);
  keys_.push_back(key);
  rules_.emplace_back();
  instantiated_.push_back(false);
  pending_.push_back(id);
  InstantiatePending();
  return id;
}

void KindSpace::InstantiatePending() {
  QCONT_CHECK_MSG(program_ != nullptr, "kind discovery on a frozen KindSpace");
  while (!pending_.empty()) {
    int id = pending_.back();
    pending_.pop_back();
    if (instantiated_[id]) continue;
    instantiated_[id] = true;
    KindKey key = keys_[id];  // copy: vectors may grow below
    std::vector<InstRule> rules;
    for (int r : program_->RulesFor(key.pred)) {
      std::optional<InstRule> inst = Instantiate(r, key.pattern);
      if (inst.has_value()) rules.push_back(std::move(*inst));
    }
    rules_[id] = std::move(rules);
  }
}

std::optional<InstRule> KindSpace::Instantiate(int r,
                                               const std::vector<int>& pattern) {
  const Rule& rule = program_->rules()[r];
  std::vector<std::string> vars = rule.Variables();
  std::unordered_map<std::string, int> var_index;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    var_index.emplace(vars[i], static_cast<int>(i));
  }
  std::vector<int> parent(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  const std::vector<Term>& head = rule.head.terms();
  // The pattern can only merge variables; a rule whose head repeats a
  // variable across positions the pattern keeps distinct cannot produce
  // instances of this kind.
  for (std::size_t i = 0; i < head.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (head[i].name() == head[j].name() && pattern[i] != pattern[j]) {
        return std::nullopt;
      }
    }
  }
  for (std::size_t i = 0; i < head.size(); ++i) {
    int a = find(var_index.at(head[i].name()));
    int b = find(var_index.at(head[pattern[i]].name()));
    if (a != b) parent[a] = b;
  }
  InstRule inst;
  inst.rule_index = r;
  for (const Term& t : head) {
    inst.head.push_back(find(var_index.at(t.name())));
  }
  for (const Atom& atom : rule.body) {
    std::vector<int> terms;
    for (const Term& t : atom.terms()) {
      terms.push_back(find(var_index.at(t.name())));
    }
    if (program_->IsIntensional(atom.predicate())) {
      KindKey child_key{atom.predicate(), PatternOf(terms)};
      // Note: GetKind may be re-entered; the pending_ worklist serializes
      // instantiation, so just record the id here.
      auto it = ids_.find(child_key);
      int child_id;
      if (it != ids_.end()) {
        child_id = it->second;
      } else {
        child_id = static_cast<int>(keys_.size());
        ids_.emplace(child_key, child_id);
        keys_.push_back(child_key);
        rules_.emplace_back();
        instantiated_.push_back(false);
        pending_.push_back(child_id);
      }
      inst.idb_atoms.push_back(InstIdbAtom{child_id, std::move(terms)});
    } else {
      inst.edb_atoms.emplace_back(atom.predicate(), std::move(terms));
    }
  }
  return inst;
}

std::vector<int> KindSpace::RootKinds() {
  QCONT_CHECK_MSG(program_ != nullptr, "kind discovery on a frozen KindSpace");
  std::vector<int> out;
  for (int r : program_->RulesFor(program_->goal_predicate())) {
    std::vector<std::string> head_names;
    for (const Term& t : program_->rules()[r].head.terms()) {
      head_names.push_back(t.name());
    }
    int id = GetKind(KindKey{program_->goal_predicate(), PatternOf(head_names)});
    bool seen = false;
    for (int existing : out) seen = seen || existing == id;
    if (!seen) out.push_back(id);
  }
  return out;
}

ConjunctiveQuery BuildWitnessCq(
    const KindSpace& kinds, int root_kind, long root_token,
    const std::function<WitnessNode(int kind_id, long token)>& expand) {
  std::vector<Atom> atoms;
  int fresh = 0;
  const std::vector<int>& pattern = kinds.KeyOf(root_kind).pattern;
  std::vector<std::string> head_names(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    head_names[i] = 'x';
    head_names[i] += std::to_string(pattern[i]);
  }
  std::function<void(int, long, const std::vector<std::string>&)> collect =
      [&](int kind_id, long token, const std::vector<std::string>& names_in) {
        WitnessNode node = expand(kind_id, token);
        const InstRule& rule = *node.rule;
        std::map<int, std::string> names;
        for (std::size_t i = 0; i < rule.head.size(); ++i) {
          names.emplace(rule.head[i], names_in[i]);
        }
        auto name_of = [&](int w) -> const std::string& {
          auto [it, inserted] = names.emplace(w, "");
          if (inserted) {
            it->second = 'v';
            it->second += std::to_string(fresh++);
          }
          return it->second;
        };
        for (const auto& [pred, terms] : rule.edb_atoms) {
          std::vector<Term> ts;
          ts.reserve(terms.size());
          for (int w : terms) ts.push_back(Term::Variable(name_of(w)));
          atoms.emplace_back(pred, std::move(ts));
        }
        QCONT_CHECK(node.child_tokens.size() == rule.idb_atoms.size());
        for (std::size_t j = 0; j < rule.idb_atoms.size(); ++j) {
          std::vector<std::string> child_head;
          child_head.reserve(rule.idb_atoms[j].terms.size());
          for (int w : rule.idb_atoms[j].terms) child_head.push_back(name_of(w));
          collect(rule.idb_atoms[j].kind_id, node.child_tokens[j], child_head);
        }
      };
  collect(root_kind, root_token, head_names);
  std::vector<Term> head;
  for (const std::string& name : head_names) {
    head.push_back(Term::Variable(name));
  }
  std::vector<Atom> dedup;
  for (Atom& a : atoms) {
    if (std::find(dedup.begin(), dedup.end(), a) == dedup.end()) {
      dedup.push_back(std::move(a));
    }
  }
  return ConjunctiveQuery(std::move(head), std::move(dedup));
}

}  // namespace internal
}  // namespace qcont
