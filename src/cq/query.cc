#include "cq/query.h"

#include <unordered_set>

#include "base/name_table.h"

namespace qcont {

namespace {

void AddDistinct(const Term& t, std::vector<Term>* out,
                 std::unordered_set<std::string>* seen) {
  if (!t.is_variable()) return;
  if (seen->insert(t.name()).second) out->push_back(t);
}

}  // namespace

std::vector<Term> ConjunctiveQuery::Variables() const {
  std::vector<Term> out;
  std::unordered_set<std::string> seen;
  for (const Atom& a : atoms_) {
    for (const Term& t : a.terms()) AddDistinct(t, &out, &seen);
  }
  return out;
}

std::vector<Term> ConjunctiveQuery::ExistentialVariables() const {
  std::unordered_set<std::string> free;
  for (const Term& t : head_) free.insert(t.name());
  std::vector<Term> out;
  std::unordered_set<std::string> seen = free;  // skip free variables
  for (const Atom& a : atoms_) {
    for (const Term& t : a.terms()) AddDistinct(t, &out, &seen);
  }
  return out;
}

Status ConjunctiveQuery::Validate() const {
  std::size_t terms = 0;
  for (const Atom& a : atoms_) terms += a.arity();
  NameTable predicates, body_vars;
  predicates.Reset(atoms_.size());
  body_vars.Reset(terms + 1);  // + the one unsafe head variable
  StackBuffer<std::size_t, 32> arity(atoms_.size());
  for (const Atom& a : atoms_) {
    const std::uint32_t fresh = predicates.size();
    const std::uint32_t p = predicates.Intern(a.predicate());
    if (p == fresh) {
      arity[p] = a.arity();
    } else if (arity[p] != a.arity()) {
      return InvalidArgumentError("predicate '" + a.predicate() +
                                  "' used with inconsistent arities");
    }
    for (const Term& t : a.terms()) {
      if (t.is_variable()) body_vars.Intern(t.name());
    }
  }
  for (const Term& t : head_) {
    if (!t.is_variable()) {
      return InvalidArgumentError("head term " + t.ToString() +
                                  " is not a variable");
    }
    const std::uint32_t known = body_vars.size();
    if (body_vars.Intern(t.name()) == known) {
      return InvalidArgumentError("free variable " + t.name() +
                                  " does not occur in the body");
    }
  }
  return Status::Ok();
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ",";
    out += head_[i].ToString();
  }
  out += ") <- ";
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms_[i].ToString();
  }
  return out;
}

Status UnionQuery::Validate() const {
  if (disjuncts_.empty()) {
    return InvalidArgumentError("a UCQ must have at least one disjunct");
  }
  std::size_t atoms = 0;
  for (const ConjunctiveQuery& cq : disjuncts_) atoms += cq.atoms().size();
  NameTable predicates;
  predicates.Reset(atoms);
  StackBuffer<std::size_t, 32> arity(atoms);
  for (const ConjunctiveQuery& cq : disjuncts_) {
    QCONT_RETURN_IF_ERROR(cq.Validate());
    if (cq.arity() != disjuncts_.front().arity()) {
      return InvalidArgumentError("UCQ disjuncts have different arities");
    }
    for (const Atom& a : cq.atoms()) {
      const std::uint32_t fresh = predicates.size();
      const std::uint32_t p = predicates.Intern(a.predicate());
      if (p == fresh) {
        arity[p] = a.arity();
      } else if (arity[p] != a.arity()) {
        return InvalidArgumentError("predicate '" + a.predicate() +
                                    "' used with inconsistent arities");
      }
    }
  }
  return Status::Ok();
}

std::string UnionQuery::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += "  UNION  ";
    out += disjuncts_[i].ToString();
  }
  return out;
}

}  // namespace qcont
