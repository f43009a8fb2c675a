#ifndef QCONT_TESTS_GENERATORS_H_
#define QCONT_TESTS_GENERATORS_H_

// Seeded random-instance generators shared by the property-based tests.

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cq/database.h"
#include "cq/query.h"
#include "datalog/program.h"

namespace qcont {
namespace testgen {

/// `prefix` followed by the decimal `i` ("x" + std::to_string(i)). Built by
/// appending: GCC 12 reports a false -Wrestrict on `literal + std::string`.
inline std::string Numbered(std::string prefix, long long i) {
  prefix += std::to_string(i);
  return prefix;
}

struct SchemaSpec {
  std::vector<std::pair<std::string, int>> relations;  // (name, arity)
};

inline SchemaSpec SmallSchema() {
  return SchemaSpec{{{"a", 2}, {"b", 2}, {"u", 1}}};
}

inline SchemaSpec BinarySchema() { return SchemaSpec{{{"a", 2}, {"b", 2}}}; }

/// `facts` random (relation, tuple) draws over `schema` with values
/// v0..v{domain-1}, duplicates included, in draw order.
inline std::vector<std::pair<std::string, Tuple>> RandomFacts(
    std::mt19937* rng, const SchemaSpec& schema, int domain, int facts) {
  std::vector<std::pair<std::string, Tuple>> out;
  for (int i = 0; i < facts; ++i) {
    const auto& [name, arity] = schema.relations[(*rng)() % schema.relations.size()];
    Tuple t;
    for (int j = 0; j < arity; ++j) {
      t.push_back(Numbered("v", (*rng)() % domain));
    }
    out.emplace_back(name, std::move(t));
  }
  return out;
}

/// A random database over `schema`: the RandomFacts draws, inserted in order.
inline Database RandomDatabase(std::mt19937* rng, const SchemaSpec& schema,
                               int domain, int facts) {
  Database db;
  for (auto& [name, t] : RandomFacts(rng, schema, domain, facts)) {
    db.AddFact(name, std::move(t));
  }
  return db;
}

/// A random CQ over `schema` with `num_atoms` atoms over `num_vars`
/// variables and `arity` free variables (safety is ensured by drawing the
/// head from variables that occur in the body).
inline ConjunctiveQuery RandomCq(std::mt19937* rng, const SchemaSpec& schema,
                                 int num_atoms, int num_vars, int arity) {
  std::vector<Atom> atoms;
  std::vector<std::string> used;
  for (int i = 0; i < num_atoms; ++i) {
    const auto& [name, rel_arity] =
        schema.relations[(*rng)() % schema.relations.size()];
    std::vector<Term> terms;
    for (int j = 0; j < rel_arity; ++j) {
      std::string var = "x";
      var += std::to_string((*rng)() % num_vars);
      used.push_back(var);
      terms.push_back(Term::Variable(var));
    }
    atoms.emplace_back(name, std::move(terms));
  }
  std::vector<Term> head;
  for (int i = 0; i < arity && !used.empty(); ++i) {
    head.push_back(Term::Variable(used[(*rng)() % used.size()]));
  }
  return ConjunctiveQuery(std::move(head), std::move(atoms));
}

/// A random *acyclic* CQ built by an ear construction: atom i > 0 shares a
/// subset of one earlier atom's variables and otherwise uses fresh
/// variables, which guarantees a join tree by construction.
inline ConjunctiveQuery RandomAcyclicCq(std::mt19937* rng,
                                        const SchemaSpec& schema,
                                        int num_atoms, int arity) {
  std::vector<Atom> atoms;
  std::vector<std::vector<std::string>> atom_vars;
  int fresh = 0;
  std::vector<std::string> used;
  for (int i = 0; i < num_atoms; ++i) {
    const auto& [name, rel_arity] =
        schema.relations[(*rng)() % schema.relations.size()];
    std::vector<std::string> pool;
    if (i > 0) {
      // Borrow from one earlier atom only (its bag in the join tree).
      pool = atom_vars[(*rng)() % atom_vars.size()];
    }
    std::vector<Term> terms;
    std::vector<std::string> vars;
    for (int j = 0; j < rel_arity; ++j) {
      std::string var;
      if (!pool.empty() && (*rng)() % 2 == 0) {
        var = pool[(*rng)() % pool.size()];
      } else {
        var = Numbered("y", fresh++);
      }
      vars.push_back(var);
      used.push_back(var);
      terms.push_back(Term::Variable(var));
    }
    atom_vars.push_back(vars);
    atoms.emplace_back(name, std::move(terms));
  }
  std::vector<Term> head;
  for (int i = 0; i < arity && !used.empty(); ++i) {
    head.push_back(Term::Variable(used[(*rng)() % used.size()]));
  }
  return ConjunctiveQuery(std::move(head), std::move(atoms));
}

/// A random acyclic UCQ.
inline UnionQuery RandomAcyclicUcq(std::mt19937* rng, const SchemaSpec& schema,
                                   int disjuncts, int atoms_per_disjunct,
                                   int arity) {
  std::vector<ConjunctiveQuery> cqs;
  for (int i = 0; i < disjuncts; ++i) {
    cqs.push_back(RandomAcyclicCq(rng, schema, 1 + static_cast<int>((*rng)() %
                                                   atoms_per_disjunct),
                                  arity));
  }
  return UnionQuery(std::move(cqs));
}

/// A small random Datalog program over `schema` with one recursive
/// intensional predicate p (the goal). Shapes are constrained so that the
/// containment engines stay small: 1 base rule + 1-2 recursive rules with a
/// single intensional atom each.
inline DatalogProgram RandomLinearProgram(std::mt19937* rng,
                                          const SchemaSpec& schema,
                                          int goal_arity) {
  auto random_edb_atom = [&](const std::vector<std::string>& vars) {
    const auto& [name, rel_arity] =
        schema.relations[(*rng)() % schema.relations.size()];
    std::vector<Term> terms;
    for (int j = 0; j < rel_arity; ++j) {
      terms.push_back(Term::Variable(vars[(*rng)() % vars.size()]));
    }
    return Atom(name, std::move(terms));
  };
  std::vector<std::string> vars = {"x", "y", "z", "w"};
  auto head_of = [&](const std::vector<Term>& body_choice) {
    std::vector<Term> head;
    for (int i = 0; i < goal_arity; ++i) {
      head.push_back(body_choice[(*rng)() % body_choice.size()]);
    }
    return head;
  };
  std::vector<Rule> rules;
  // Base rule: p(head) <- 1-2 EDB atoms.
  {
    std::vector<Atom> body;
    int n = 1 + static_cast<int>((*rng)() % 2);
    for (int i = 0; i < n; ++i) body.push_back(random_edb_atom(vars));
    std::vector<Term> body_vars;
    for (const Atom& a : body) {
      for (const Term& t : a.terms()) body_vars.push_back(t);
    }
    rules.push_back(Rule{Atom("p", head_of(body_vars)), std::move(body)});
  }
  // 1-2 recursive rules: p(head) <- EDB atom(s), p(vars).
  int recs = 1 + static_cast<int>((*rng)() % 2);
  for (int r = 0; r < recs; ++r) {
    std::vector<Atom> body;
    int n = 1 + static_cast<int>((*rng)() % 2);
    for (int i = 0; i < n; ++i) body.push_back(random_edb_atom(vars));
    std::vector<Term> p_args;
    for (int i = 0; i < goal_arity; ++i) {
      p_args.push_back(Term::Variable(vars[(*rng)() % vars.size()]));
    }
    body.emplace_back("p", p_args);
    std::vector<Term> body_vars;
    for (const Atom& a : body) {
      for (const Term& t : a.terms()) body_vars.push_back(t);
    }
    rules.push_back(Rule{Atom("p", head_of(body_vars)), std::move(body)});
  }
  return DatalogProgram(std::move(rules), "p");
}

}  // namespace testgen
}  // namespace qcont

#endif  // QCONT_TESTS_GENERATORS_H_
