#include "graphdb/c2rpq.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "cq/homomorphism.h"
#include "structure/acyclic_eval.h"
#include "structure/join_tree.h"

namespace qcont {

Result<RpqAtom> MakeRpqAtom(const std::string& pattern, const Term& x,
                            const Term& y) {
  QCONT_ASSIGN_OR_RETURN(Nfa nfa, ParseRegex(pattern));
  return RpqAtom{pattern, std::move(nfa), x, y};
}

Status C2rpq::Validate() const {
  if (atoms_.empty()) {
    return InvalidArgumentError("a C2RPQ must have at least one atom");
  }
  std::set<std::string> vars;
  for (const RpqAtom& a : atoms_) {
    if (!a.x.is_variable() || !a.y.is_variable()) {
      return InvalidArgumentError("C2RPQ endpoints must be variables");
    }
    vars.insert(a.x.name());
    vars.insert(a.y.name());
  }
  for (const Term& t : head_) {
    if (!t.is_variable() || !vars.count(t.name())) {
      return InvalidArgumentError("free variable " + t.ToString() +
                                  " does not occur in any atom");
    }
  }
  return Status::Ok();
}

ConjunctiveQuery C2rpq::UnderlyingCq() const {
  std::vector<Atom> atoms;
  atoms.reserve(atoms_.size());
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    atoms.emplace_back("_T" + std::to_string(i),
                       std::vector<Term>{atoms_[i].x, atoms_[i].y});
  }
  return ConjunctiveQuery(head_, std::move(atoms));
}

std::string C2rpq::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ",";
    out += head_[i].ToString();
  }
  out += ") <- ";
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "[" + atoms_[i].pattern + "](" + atoms_[i].x.ToString() + "," +
           atoms_[i].y.ToString() + ")";
  }
  return out;
}

Status UC2rpq::Validate() const {
  if (disjuncts_.empty()) {
    return InvalidArgumentError("a UC2RPQ must have at least one disjunct");
  }
  for (const C2rpq& q : disjuncts_) {
    QCONT_RETURN_IF_ERROR(q.Validate());
    if (q.arity() != disjuncts_.front().arity()) {
      return InvalidArgumentError("UC2RPQ disjuncts have different arities");
    }
  }
  return Status::Ok();
}

std::string UC2rpq::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += "  UNION  ";
    out += disjuncts_[i].ToString();
  }
  return out;
}

namespace {

// Materializes each atom's 2RPQ relation as a database over the fresh
// predicates of the underlying CQ.
Database MaterializeAtoms(const C2rpq& query, const GraphDatabase& g,
                          RpqEvalStats* stats) {
  Database db;
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    const std::string rel = "_T" + std::to_string(i);
    for (auto& [from, to] : EvaluateRpq(query.atoms()[i].nfa, g, stats)) {
      db.AddFact(rel, {from, to});
    }
  }
  return db;
}

}  // namespace

Result<std::vector<Tuple>> EvaluateC2rpq(const C2rpq& query,
                                         const GraphDatabase& g,
                                         RpqEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(query.Validate());
  Database db = MaterializeAtoms(query, g, stats);
  return EvaluateCq(query.UnderlyingCq(), db);
}

Result<std::vector<Tuple>> EvaluateAcyclicC2rpq(const C2rpq& query,
                                                const GraphDatabase& g,
                                                RpqEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(query.Validate());
  Database db = MaterializeAtoms(query, g, stats);
  return EvaluateAcyclicCq(query.UnderlyingCq(), db);
}

Result<std::vector<Tuple>> EvaluateUC2rpq(const UC2rpq& query,
                                          const GraphDatabase& g,
                                          RpqEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(query.Validate());
  std::set<Tuple> out;
  for (const C2rpq& q : query.disjuncts()) {
    QCONT_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, EvaluateC2rpq(q, g, stats));
    for (Tuple& t : tuples) out.insert(std::move(t));
  }
  return std::vector<Tuple>(out.begin(), out.end());
}

bool IsAcyclicC2rpq(const C2rpq& query) {
  return IsAcyclic(query.UnderlyingCq());
}

Result<bool> IsAcyclicUC2rpq(const UC2rpq& query) {
  QCONT_RETURN_IF_ERROR(query.Validate());
  for (const C2rpq& q : query.disjuncts()) {
    if (!IsAcyclicC2rpq(q)) return false;
  }
  return true;
}

Result<int> AcrkLevel(const UC2rpq& query) {
  QCONT_ASSIGN_OR_RETURN(bool acyclic, IsAcyclicUC2rpq(query));
  if (!acyclic) {
    return FailedPreconditionError("UC2RPQ is not acyclic; ACRk is undefined");
  }
  int k = 1;
  for (const C2rpq& q : query.disjuncts()) {
    std::map<std::pair<std::string, std::string>, int> count;
    for (const RpqAtom& a : q.atoms()) {
      if (a.x.name() == a.y.name()) continue;  // loops belong to no pair
      std::string lo = std::min(a.x.name(), a.y.name());
      std::string hi = std::max(a.x.name(), a.y.name());
      k = std::max(k, ++count[{lo, hi}]);
    }
  }
  return k;
}

Result<bool> UcqContainedInUC2rpq(const UnionQuery& theta, const UC2rpq& gamma,
                                  RpqEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(gamma.Validate());
  if (theta.arity() != gamma.arity()) {
    return InvalidArgumentError("arity mismatch in containment test");
  }
  for (const ConjunctiveQuery& disjunct : theta.disjuncts()) {
    for (const Atom& a : disjunct.atoms()) {
      if (a.arity() != 2) {
        return InvalidArgumentError(
            "UCQ-in-UC2RPQ containment requires a binary schema");
      }
    }
    FrozenQuery frozen = Freeze(disjunct);  // C2RPQs have no constants
    GraphDatabase g = GraphDatabase::FromDatabase(frozen.database);
    QCONT_ASSIGN_OR_RETURN(std::vector<Tuple> result,
                           EvaluateUC2rpq(gamma, g, stats));
    if (std::find(result.begin(), result.end(), frozen.head) ==
        result.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace qcont
