#ifndef QCONT_TESTS_CQ_ORACLE_H_
#define QCONT_TESTS_CQ_ORACLE_H_

// Reference cores and UCQ minimization for differential tests of the
// small-CQ kernel (cq/small_cq.h). It shares no code with the kernel: the
// query is frozen into a string Database, every retraction is a
// FindHomomorphism call into the facts that avoid the folded variable, and
// subsumption is the scan-based oracle::UcqContained (tests/hom_oracle.h).
//
// Freezing uses bare names, so a variable and a constant of the same name
// collide: compare against this oracle on constant-free queries only.

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cq/database.h"
#include "cq/homomorphism.h"
#include "cq/query.h"
#include "tests/hom_oracle.h"

namespace qcont {
namespace oracle {

// The query `cq` mapped through the value-level homomorphism `h`, printed
// duplicates dropped.
inline ConjunctiveQuery ApplyRetraction(
    const ConjunctiveQuery& cq, const Assignment& h,
    const std::unordered_map<std::string, Term>& term_of_value) {
  std::vector<Atom> new_atoms;
  std::unordered_set<std::string> seen;
  for (const Atom& a : cq.atoms()) {
    std::vector<Term> terms;
    terms.reserve(a.arity());
    for (const Term& t : a.terms()) {
      if (t.is_constant()) {
        terms.push_back(t);
      } else {
        terms.push_back(term_of_value.at(h.at(t.name())));
      }
    }
    Atom image(a.predicate(), std::move(terms));
    if (seen.insert(image.ToString()).second) new_atoms.push_back(image);
  }
  return ConjunctiveQuery(cq.head(), std::move(new_atoms));
}

inline Result<ConjunctiveQuery> CoreOf(const ConjunctiveQuery& cq) {
  QCONT_RETURN_IF_ERROR(cq.Validate());
  std::vector<Atom> unique_atoms;
  std::unordered_set<std::string> atom_keys;
  for (const Atom& a : cq.atoms()) {
    if (atom_keys.insert(a.ToString()).second) unique_atoms.push_back(a);
  }
  ConjunctiveQuery current(cq.head(), std::move(unique_atoms));
  bool changed = true;
  while (changed) {
    changed = false;
    Database canonical = CanonicalDatabase(current);
    Assignment fixed;
    std::unordered_map<std::string, Term> term_of_value;
    for (const Term& t : current.head()) fixed.emplace(t.name(), t.name());
    for (const Atom& a : current.atoms()) {
      for (const Term& t : a.terms()) term_of_value.insert({t.name(), t});
    }
    for (const Term& v : current.ExistentialVariables()) {
      Database restricted;
      for (const std::string& rel : canonical.Relations()) {
        for (const Tuple& fact : canonical.Facts(rel)) {
          bool mentions_v = false;
          for (const Value& val : fact) mentions_v = mentions_v || val == v.name();
          if (!mentions_v) restricted.AddFact(rel, fact);
        }
      }
      std::optional<Assignment> h =
          qcont::FindHomomorphism(current, restricted, fixed);
      if (h.has_value()) {
        current = ApplyRetraction(current, *h, term_of_value);
        changed = true;
        break;
      }
    }
  }
  return current;
}

inline Result<bool> IsCore(const ConjunctiveQuery& cq) {
  QCONT_ASSIGN_OR_RETURN(ConjunctiveQuery core, oracle::CoreOf(cq));
  return core.Variables().size() == cq.Variables().size();
}

// Scan-reference Chandra–Merlin test of two CQs of equal arity.
inline Result<bool> CqContained(const ConjunctiveQuery& theta,
                                const ConjunctiveQuery& theta_prime) {
  return oracle::UcqContained(UnionQuery({theta}), UnionQuery({theta_prime}));
}

// The server's minimization pre-pass before the kernel: oracle cores, then
// pairwise subsumption (ties keep the earliest disjunct).
inline Result<UnionQuery> MinimizeUcq(const UnionQuery& ucq) {
  std::vector<ConjunctiveQuery> cores;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    QCONT_ASSIGN_OR_RETURN(ConjunctiveQuery core, oracle::CoreOf(cq));
    cores.push_back(std::move(core));
  }
  const std::size_t n = cores.size();
  std::vector<bool> dead(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n && !dead[i]; ++j) {
      if (j == i || dead[j]) continue;
      QCONT_ASSIGN_OR_RETURN(bool fwd,
                             oracle::CqContained(cores[i], cores[j]));
      if (!fwd) continue;
      if (j < i) {
        dead[i] = true;
      } else {
        QCONT_ASSIGN_OR_RETURN(bool back,
                               oracle::CqContained(cores[j], cores[i]));
        if (!back) dead[i] = true;
      }
    }
  }
  std::vector<ConjunctiveQuery> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead[i]) kept.push_back(std::move(cores[i]));
  }
  return UnionQuery(std::move(kept));
}

}  // namespace oracle
}  // namespace qcont

#endif  // QCONT_TESTS_CQ_ORACLE_H_
