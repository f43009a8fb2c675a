#ifndef QCONT_TESTS_HOM_ORACLE_H_
#define QCONT_TESTS_HOM_ORACLE_H_

// Scan reference for the homomorphism search (cq/homomorphism.h) and the
// Datalog join (datalog/eval.h), for differential tests. It shares no code
// with the indexed search: facts are read as strings from a
// testgen::DatabaseOracle, the atoms are ordered once by a static greedy
// rule, and every atom expansion scans its whole relation. Counters follow
// HomSearchStats: every fact tried is an atom attempt and a scan
// candidate, and the index counters stay 0.
//
// Freezing uses bare names, so a variable and a constant of the same name
// collide: compare containment against this oracle on constant-free
// queries only.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "cq/query.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "tests/db_oracle.h"

namespace qcont {
namespace oracle {

using FactStore = testgen::DatabaseOracle;

/// The facts of `db` in its insertion order.
inline FactStore FactsOf(const Database& db) {
  FactStore out;
  for (const std::string& rel : db.Relations()) {
    for (const Tuple& t : db.Facts(rel)) out.Add(rel, t);
  }
  return out;
}

/// Backtracking over the atoms in a static greedy order, atom i matched
/// against every fact of its relation in `*dbs[i]`, with string bindings.
struct ScanSearcher {
  std::vector<Atom> atoms;            // ordered at construction
  std::vector<const FactStore*> dbs;  // parallel to `atoms`
  Assignment binding;
  HomSearchStats* stats;
  const std::function<bool(const Assignment&)>* visit = nullptr;
  bool stopped = false;

  ScanSearcher(const std::vector<Atom>& atoms_in,
               const std::vector<const FactStore*>& dbs_in,
               const Assignment& fixed, HomSearchStats* stats_in)
      : atoms(atoms_in), dbs(dbs_in), binding(fixed), stats(stats_in) {
    OrderAtoms();
  }

  // Greedy static order: repeatedly pick the atom with the most variables
  // already covered by earlier atoms (or `fixed`), tie-broken by smaller
  // relation. Keeps the search close to a join order a planner would pick.
  void OrderAtoms() {
    std::vector<Atom> ordered;
    std::vector<const FactStore*> ordered_dbs;
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

/// Enumerates the homomorphisms of `atoms` (atom i into `*dbs[i]`) that
/// extend `fixed`; stops early when `visit` returns false.
inline void ScanEnumerate(const std::vector<Atom>& atoms,
                          const std::vector<const FactStore*>& dbs,
                          const Assignment& fixed,
                          const std::function<bool(const Assignment&)>& visit,
                          HomSearchStats* stats) {
  ScanSearcher searcher(atoms, dbs, fixed, stats);
  searcher.visit = &visit;
  searcher.Recurse(0);
}

inline std::optional<Assignment> FindHomomorphism(
    const ConjunctiveQuery& cq, const Database& db,
    const Assignment& fixed = {}, HomSearchStats* stats = nullptr) {
  const FactStore facts = FactsOf(db);
  const std::vector<const FactStore*> dbs(cq.atoms().size(), &facts);
  std::optional<Assignment> found;
  ScanEnumerate(
      cq.atoms(), dbs, fixed,
      [&found](const Assignment& h) {
        found = h;
        return false;  // stop at the first homomorphism
      },
      stats);
  return found;
}

inline std::vector<Tuple> EvaluateCq(const ConjunctiveQuery& cq,
                                     const Database& db,
                                     HomSearchStats* stats = nullptr) {
  const FactStore facts = FactsOf(db);
  const std::vector<const FactStore*> dbs(cq.atoms().size(), &facts);
  std::set<Tuple> results;
  ScanEnumerate(
      cq.atoms(), dbs, /*fixed=*/{},
      [&](const Assignment& h) {
        Tuple out;
        for (const Term& t : cq.head()) out.push_back(h.at(t.name()));
        results.insert(std::move(out));
        return true;
      },
      stats);
  return std::vector<Tuple>(results.begin(), results.end());
}

inline std::vector<Tuple> EvaluateUcq(const UnionQuery& ucq,
                                      const Database& db,
                                      HomSearchStats* stats = nullptr) {
  std::set<Tuple> results;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    for (Tuple& t : oracle::EvaluateCq(cq, db, stats)) {
      results.insert(std::move(t));
    }
  }
  return std::vector<Tuple>(results.begin(), results.end());
}

/// Sagiv-Yannakakis: every disjunct of `theta`, frozen, has a homomorphism
/// from some disjunct of `theta_prime` that maps head onto frozen head.
inline Result<bool> UcqContained(const UnionQuery& theta,
                                 const UnionQuery& theta_prime) {
  for (const ConjunctiveQuery& left : theta.disjuncts()) {
    FactStore frozen;
    for (const Atom& a : left.atoms()) {
      Tuple fact;
      for (const Term& t : a.terms()) fact.push_back(t.name());
      frozen.Add(a.predicate(), fact);
    }
    bool found = false;
    for (const ConjunctiveQuery& right : theta_prime.disjuncts()) {
      if (left.arity() != right.arity()) {
        return InvalidArgumentError("containment between queries of arities " +
                                    std::to_string(left.arity()) + " and " +
                                    std::to_string(right.arity()));
      }
      // A repeated head variable of `right` needs equal frozen values.
      Assignment fixed;
      bool consistent = true;
      for (std::size_t i = 0; i < right.head().size(); ++i) {
        const std::string& value = left.head()[i].name();
        auto [it, added] = fixed.emplace(right.head()[i].name(), value);
        consistent = consistent && (added || it->second == value);
      }
      if (!consistent) continue;
      const std::vector<const FactStore*> dbs(right.atoms().size(), &frozen);
      ScanEnumerate(
          right.atoms(), dbs, fixed,
          [&found](const Assignment&) {
            found = true;
            return false;
          },
          nullptr);
      if (found) break;
    }
    if (!found) return false;
  }
  return true;
}

/// The goal tuples of `program` over `edb`, sorted, with every rule body
/// matched by the scan searcher. A naive sweep, and semi-naive round 0,
/// fires the rules in program order, each seeing the facts the rules
/// before it added. A later semi-naive round fires every rule once per
/// intensional body position whose relation has delta facts: that atom
/// against the previous round's delta, the other atoms against the
/// database as it stood at the start of the round. The round's heads are
/// added at its end, and the new ones are the next delta. `stats` gets
/// `iterations`, `rule_firings`, `derived_facts` and the scan counters as
/// datalog/eval.h defines them.
inline Result<std::vector<Tuple>> EvaluateGoal(
    const DatalogProgram& program, const Database& edb,
    EvalStrategy strategy = EvalStrategy::kSemiNaive,
    DatalogEvalStats* stats = nullptr) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  DatalogEvalStats run;
  FactStore all = FactsOf(edb);
  // Adds every match of `rule` (atom i into `*dbs[i]`) to `heads`.
  auto fire = [&](const Rule& rule, const std::vector<const FactStore*>& dbs,
                  std::vector<std::pair<std::string, Tuple>>* heads) {
    ScanEnumerate(rule.body, dbs, /*fixed=*/{},
                  [&](const Assignment& h) {
                    Tuple head;
                    for (const Term& t : rule.head.terms()) {
                      head.push_back(h.at(t.name()));
                    }
                    heads->emplace_back(rule.head.predicate(), std::move(head));
                    ++run.rule_firings;
                    return true;
                  },
                  &run.hom);
  };
  // Adds `heads` to `all` and the new ones to `delta`.
  auto commit = [&](const std::vector<std::pair<std::string, Tuple>>& heads,
                    FactStore* delta) {
    for (const auto& [rel, t] : heads) {
      if (!all.Add(rel, t)) continue;
      delta->Add(rel, t);
      ++run.derived_facts;
    }
  };
  auto sweep = [&](FactStore* delta) {
    ++run.iterations;
    for (const Rule& rule : program.rules()) {
      std::vector<std::pair<std::string, Tuple>> heads;
      fire(rule, std::vector<const FactStore*>(rule.body.size(), &all), &heads);
      commit(heads, delta);
    }
  };
  FactStore delta;
  sweep(&delta);
  while (delta.NumFacts() > 0) {
    FactStore next;
    if (strategy == EvalStrategy::kNaive) {
      sweep(&next);
    } else {
      ++run.iterations;
      std::vector<std::pair<std::string, Tuple>> heads;
      for (const Rule& rule : program.rules()) {
        for (std::size_t i = 0; i < rule.body.size(); ++i) {
          const std::string& pred = rule.body[i].predicate();
          if (!program.IsIntensional(pred) || delta.Facts(pred).empty()) {
            continue;
          }
          std::vector<const FactStore*> dbs(rule.body.size(), &all);
          dbs[i] = &delta;
          fire(rule, dbs, &heads);
        }
      }
      commit(heads, &next);
    }
    delta = std::move(next);
  }
  if (stats != nullptr) stats->Merge(run);
  std::vector<Tuple> goal = all.Facts(program.goal_predicate());
  std::sort(goal.begin(), goal.end());
  return goal;
}

}  // namespace oracle
}  // namespace qcont

#endif  // QCONT_TESTS_HOM_ORACLE_H_
