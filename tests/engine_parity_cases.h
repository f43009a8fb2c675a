#ifndef QCONT_TESTS_ENGINE_PARITY_CASES_H_
#define QCONT_TESTS_ENGINE_PARITY_CASES_H_

// Fixed instance sets that pin the ACk and ACRk engines bit for bit: the
// E4/E7 benchmark families plus seeded random draws. Each instance is
// turned into one record string (verdict, counters, level, witness) by
// `ParityRecord`; ack_engine_test and acrk_engine_test compare the records
// against literals captured from a reference build of the engines.

#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "core/datalog_ucq.h"
#include "cq/query.h"
#include "datalog/program.h"
#include "graphdb/c2rpq.h"
#include "tests/generators.h"

namespace qcont {
namespace parity {

struct AckCase {
  std::string name;
  DatalogProgram program;
  UnionQuery ucq;
};

struct AcrkCase {
  std::string name;
  DatalogProgram program;
  UC2rpq gamma;
};

inline Term V(const std::string& name) { return Term::Variable(name); }

/// `prefix` followed by `i` (appends rather than `operator+`, which trips a
/// GCC 12 -Wrestrict false positive).
inline std::string Name(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

/// E4 StarFanout: e(x,y) plus `fan` atoms e(x,u_i).
inline UnionQuery StarFanUcq(int fan) {
  std::vector<Atom> atoms = {Atom("e", {V("x"), V("y")})};
  for (int i = 0; i < fan; ++i) {
    atoms.push_back(Atom("e", {V("x"), V(Name("u", i))}));
  }
  return UnionQuery({ConjunctiveQuery({V("x"), V("y")}, std::move(atoms))});
}

/// E4 SharedVariableWidth: Π and Θ whose two atoms share k variables.
inline std::pair<DatalogProgram, UnionQuery> SharedWidthPair(int k) {
  std::vector<Term> ys, us;
  for (int i = 0; i < k; ++i) {
    ys.push_back(V(Name("y", i)));
    us.push_back(V(Name("u", i)));
  }
  std::vector<Term> t_args = {V("x")};
  t_args.insert(t_args.end(), ys.begin(), ys.end());
  std::vector<Rule> rules;
  rules.push_back(Rule{Atom("p", {V("x")}), {Atom("t", t_args), Atom("m", ys)}});
  rules.push_back(Rule{Atom("p", {V("x")}),
                       {Atom("t", t_args), Atom("m", ys), Atom("p", {ys[0]})}});
  std::vector<Term> tu = {V("x")};
  tu.insert(tu.end(), us.begin(), us.end());
  return {DatalogProgram(std::move(rules), "p"),
          UnionQuery({ConjunctiveQuery({V("x")},
                                       {Atom("t", tu), Atom("m", us)})})};
}

/// Nonlinear transitive closure: the recursive rule has two IDB children,
/// so the fixpoint enumerates two-dimensional combinations.
inline DatalogProgram NonlinearTc() {
  std::vector<Rule> rules;
  rules.push_back(Rule{Atom("t", {V("x"), V("y")}), {Atom("e", {V("x"), V("y")})}});
  rules.push_back(Rule{Atom("t", {V("x"), V("y")}),
                       {Atom("t", {V("x"), V("z")}), Atom("t", {V("z"), V("y")})}});
  return DatalogProgram(std::move(rules), "t");
}

/// A random program with one base rule and one rule with two IDB atoms
/// (plus an optional EDB atom), over `schema`, goal p of `arity`.
inline DatalogProgram RandomNonlinearProgram(std::mt19937* rng,
                                             const testgen::SchemaSpec& schema,
                                             int arity) {
  const std::vector<std::string> vars = {"x", "y", "z", "w"};
  auto pick = [&]() { return V(vars[(*rng)() % vars.size()]); };
  auto edb = [&]() {
    const auto& [name, rel_arity] =
        schema.relations[(*rng)() % schema.relations.size()];
    std::vector<Term> terms;
    for (int j = 0; j < rel_arity; ++j) terms.push_back(pick());
    return Atom(name, std::move(terms));
  };
  auto head_from = [&](const std::vector<Atom>& body) {
    std::vector<Term> pool;
    for (const Atom& a : body) {
      for (const Term& t : a.terms()) pool.push_back(t);
    }
    std::vector<Term> head;
    for (int i = 0; i < arity; ++i) head.push_back(pool[(*rng)() % pool.size()]);
    return Atom("p", std::move(head));
  };
  auto idb = [&]() {
    std::vector<Term> terms;
    for (int i = 0; i < arity; ++i) terms.push_back(pick());
    return Atom("p", std::move(terms));
  };
  std::vector<Rule> rules;
  std::vector<Atom> base = {edb()};
  if ((*rng)() % 2 == 0) base.push_back(edb());
  rules.push_back(Rule{head_from(base), base});
  std::vector<Atom> rec = {idb(), idb()};
  if ((*rng)() % 2 == 0) rec.push_back(edb());
  rules.push_back(Rule{head_from(rec), rec});
  return DatalogProgram(std::move(rules), "p");
}

/// ~200 ACk instances: the E4 families, nonlinear TC against chain unions,
/// and seeded linear and nonlinear draws over SmallSchema. Draws that fail
/// validation are skipped, deterministically.
inline std::vector<AckCase> AckCases() {
  std::vector<AckCase> out;
  for (int m = 1; m <= 5; ++m) {
    out.push_back({Name("tc_vs_chains/", m), bench::TcProgram(),
                   bench::ChainUnion(m)});
  }
  for (int w = 1; w <= 6; ++w) {
    std::vector<ConjunctiveQuery> disjuncts = {bench::ChainCq(1, "e", 2)};
    disjuncts.push_back(ConjunctiveQuery(
        {V("a0"), V("a3")},
        {Atom("e", {V("a0"), V("a1")}), Atom("e", {V("a2"), V("a3")})}));
    out.push_back({Name("contained_family/", w),
                   bench::StrideProgram(w), UnionQuery(std::move(disjuncts))});
  }
  for (int fan = 2; fan <= 12; fan += 2) {
    out.push_back({Name("star_fanout/", fan), bench::TcProgram(),
                   StarFanUcq(fan)});
  }
  for (int k = 1; k <= 4; ++k) {
    auto [program, ucq] = SharedWidthPair(k);
    out.push_back({Name("shared_width/", k), std::move(program),
                   std::move(ucq)});
  }
  for (int m = 1; m <= 4; ++m) {
    out.push_back({Name("nonlinear_tc/", m), NonlinearTc(),
                   bench::ChainUnion(m)});
  }
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int draw = 0; draw < 240 && out.size() < 200; ++draw) {
    std::mt19937 rng(7000 + draw);
    const int arity = draw % 3;
    DatalogProgram program =
        draw % 4 == 3 ? RandomNonlinearProgram(&rng, schema, arity)
                      : testgen::RandomLinearProgram(&rng, schema, arity);
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema,
                                               1 + static_cast<int>(rng() % 2),
                                               3, arity);
    if (!program.Validate().ok() || !ucq.Validate().ok()) continue;
    out.push_back({Name("draw/", draw), std::move(program),
                   std::move(ucq)});
  }
  return out;
}

/// ~200 ACRk instances: the E7 families and seeded draws of binary-schema
/// programs against acyclic UC2RPQs (chains, multiedges, loops, stars,
/// unions). Draws that fail validation or acyclicity are skipped.
inline std::vector<AcrkCase> AcrkCases() {
  std::vector<AcrkCase> out;
  auto atom = [](const std::string& pattern, const std::string& x,
                 const std::string& y) {
    return *MakeRpqAtom(pattern, V(x), V(y));
  };
  auto single = [](std::vector<Term> head, std::vector<RpqAtom> atoms) {
    return UC2rpq({C2rpq(std::move(head), std::move(atoms))});
  };
  for (int pad = 0; pad <= 8; pad += 2) {
    std::string pattern = "e+";
    for (int i = 0; i < pad; ++i) pattern += " e?";
    out.push_back({Name("padded_regex/", pad), bench::TcProgram(),
                   single({V("x"), V("y")}, {atom(pattern, "x", "y")})});
  }
  for (int stride = 1; stride <= 5; ++stride) {
    out.push_back({Name("stride_in_star/", stride),
                   bench::StrideProgram(stride),
                   single({V("x"), V("y")}, {atom("e e*", "x", "y")})});
  }
  for (int stride = 1; stride <= 4; ++stride) {
    out.push_back({Name("parity_refutation/", stride),
                   bench::StrideProgram(stride),
                   single({V("x"), V("y")}, {atom("e e (e e)*", "x", "y")})});
  }
  for (int depth = 1; depth <= 4; ++depth) {
    std::vector<RpqAtom> atoms;
    for (int i = 0; i < depth; ++i) {
      atoms.push_back(atom("e*", Name("x", i), Name("x", i + 1)));
    }
    out.push_back({Name("deep_variable_tree/", depth),
                   bench::TcProgram(),
                   single({V("x0"), V(Name("x", depth))},
                          std::move(atoms))});
  }
  const std::vector<std::string> patterns = {
      "a", "b", "a b", "a+", "(a|b)*", "a-", "b a*", "a|b", "b-", "a a",
      "(a b)*"};
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int draw = 0; draw < 400 && out.size() < 200; ++draw) {
    std::mt19937 rng(9000 + draw);
    const int arity = draw % 3;
    DatalogProgram program =
        draw % 4 == 3 ? RandomNonlinearProgram(&rng, schema, arity)
                      : testgen::RandomLinearProgram(&rng, schema, arity);
    auto pattern = [&]() { return patterns[rng() % patterns.size()]; };
    std::vector<C2rpq> disjuncts;
    const int num_disjuncts = 1 + static_cast<int>(rng() % 2);
    for (int d = 0; d < num_disjuncts; ++d) {
      std::vector<RpqAtom> atoms;
      std::vector<std::string> vars = {"x0", "x1"};
      switch (rng() % 4) {
        case 0: {  // chain of 1-3 atoms
          const int len = 1 + static_cast<int>(rng() % 3);
          for (int i = 0; i < len; ++i) {
            if (i > 0) vars.push_back(Name("x", i + 1));
            atoms.push_back(atom(pattern(), Name("x", i), Name("x", i + 1)));
          }
          break;
        }
        case 1:  // multiedge, the second atom possibly reversed
          atoms.push_back(atom(pattern(), "x0", "x1"));
          if (rng() % 2 == 0) {
            atoms.push_back(atom(pattern(), "x0", "x1"));
          } else {
            atoms.push_back(atom(pattern(), "x1", "x0"));
          }
          break;
        case 2:  // edge plus a loop on its source
          atoms.push_back(atom(pattern(), "x0", "x1"));
          atoms.push_back(atom(pattern(), "x0", "x0"));
          break;
        default:  // star around x0
          vars.push_back("x2");
          atoms.push_back(atom(pattern(), "x0", "x1"));
          atoms.push_back(atom(pattern(), "x0", "x2"));
          break;
      }
      std::vector<Term> head;
      for (int i = 0; i < arity; ++i) head.push_back(V(vars[rng() % vars.size()]));
      disjuncts.emplace_back(std::move(head), std::move(atoms));
    }
    UC2rpq gamma(std::move(disjuncts));
    if (!program.Validate().ok() || !gamma.Validate().ok()) continue;
    auto acyclic = IsAcyclicUC2rpq(gamma);
    if (!acyclic.ok() || !*acyclic) continue;
    out.push_back({Name("draw/", draw), std::move(program),
                   std::move(gamma)});
  }
  return out;
}

/// One line per run: verdict (or error code and message), the engine
/// counters, the level, and the witness text.
inline std::string ParityRecord(const Result<ContainmentAnswer>& answer,
                                std::uint64_t kinds, std::uint64_t summaries,
                                std::uint64_t combos, std::uint64_t game_states,
                                std::uint64_t antichain_sets, int level) {
  std::string out;
  if (!answer.ok()) {
    out = "error ";
    out += answer.status().ToString();
  } else {
    out = answer->contained ? "contained" : "not_contained";
  }
  char counters[160];
  std::snprintf(counters, sizeof(counters),
                " kinds=%llu summaries=%llu combos=%llu game_states=%llu "
                "antichain_sets=%llu level=%d",
                static_cast<unsigned long long>(kinds),
                static_cast<unsigned long long>(summaries),
                static_cast<unsigned long long>(combos),
                static_cast<unsigned long long>(game_states),
                static_cast<unsigned long long>(antichain_sets), level);
  out += counters;
  if (answer.ok() && answer->witness.has_value()) {
    out += " witness=";
    out += answer->witness->ToString();
  }
  return out;
}

}  // namespace parity
}  // namespace qcont

#endif  // QCONT_TESTS_ENGINE_PARITY_CASES_H_
