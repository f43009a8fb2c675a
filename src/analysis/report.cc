#include "analysis/report.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/name_table.h"
#include "structure/classify.h"
#include "structure/decomposition.h"
#include "structure/graph.h"
#include "structure/join_tree.h"

namespace qcont {
namespace analysis {

namespace {

// Streams the alpha-renamed form byte-by-byte into an FNV-1a state. The
// hash is the per-call cache-consult cost (the report itself is cached),
// so no intermediate string is ever materialized. Text fields are
// NUL-terminated inside the stream and structural markers are distinct
// bytes, so fields cannot run into each other.
struct CanonicalHasher {
  std::uint64_t state = 14695981039346656037ULL;

  void Byte(unsigned char c) {
    state ^= c;
    state *= 1099511628211ULL;
  }
  void Text(std::string_view s) {
    for (char c : s) Byte(static_cast<unsigned char>(c));
    Byte(0);
  }
  void Number(int v) {
    for (int shift = 0; shift < 32; shift += 8) {
      Byte(static_cast<unsigned char>((static_cast<unsigned>(v) >> shift)));
    }
  }
  std::uint64_t Finish() const { return Mix64(state); }
};

// Hashes `atom` with variables renamed to dense ids in first-occurrence
// order (tracked in `names`, which keys them by the name itself, so two
// distinct variables never share an id); constants pass through by name.
void HashCanonicalAtom(const Atom& atom, NameTable* names,
                       CanonicalHasher* h) {
  h->Byte('(');
  h->Text(atom.predicate());
  for (const Term& t : atom.terms()) {
    if (t.is_variable()) {
      h->Byte('v');
      h->Number(static_cast<int>(names->Intern(t.name())));
    } else {
      h->Byte('\'');
      h->Text(t.name());
    }
  }
  h->Byte(')');
}

}  // namespace

std::uint64_t CanonicalQueryHash(const UnionQuery& ucq) {
  CanonicalHasher h;
  NameTable names;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    std::size_t terms = cq.head().size();
    for (const Atom& atom : cq.atoms()) terms += atom.arity();
    names.Reset(terms);
    h.Byte('[');
    for (const Term& t : cq.head()) {
      h.Byte('v');
      h.Number(static_cast<int>(names.Intern(t.name())));
    }
    h.Byte('-');
    for (const Atom& atom : cq.atoms()) {
      HashCanonicalAtom(atom, &names, &h);
    }
    h.Byte(']');
  }
  return h.Finish();
}

std::uint64_t CanonicalProgramHash(const DatalogProgram& program) {
  CanonicalHasher h;
  NameTable names;
  h.Byte('g');
  h.Text(program.goal_predicate());
  for (const Rule& rule : program.rules()) {
    std::size_t terms = rule.head.arity();
    for (const Atom& atom : rule.body) terms += atom.arity();
    names.Reset(terms);
    HashCanonicalAtom(rule.head, &names, &h);
    h.Byte(':');
    for (const Atom& atom : rule.body) {
      HashCanonicalAtom(atom, &names, &h);
    }
    h.Byte(';');
  }
  return h.Finish();
}

std::uint64_t CanonicalDatabaseHash(const Database& db) {
  // Per-fact FNV-1a digests combined with + : commutative, so the hash is
  // a function of the fact *set*. Facts are self-delimiting inside their
  // digest (Text() NUL-terminates), so fields cannot run into each other.
  // Rows are read as pool ids and named through the pool, one relation's
  // arena at a time.
  std::uint64_t combined = 0;
  std::vector<const std::string*> names;
  for (const RelationId rel : db.RelationIds()) {
    const std::span<const ValueId> arena = db.Arena(rel);
    const std::size_t arity = db.Arity(rel);
    names.resize(arena.size() + 1);
    names[0] = &db.pool()->NameOf(rel);
    db.pool()->NamesOf(arena, names.data() + 1);
    for (std::size_t r = 0; r < db.NumRows(rel); ++r) {
      CanonicalHasher h;
      h.Text(*names[0]);
      for (std::size_t j = 1; j <= arity; ++j) h.Text(*names[r * arity + j]);
      combined += h.Finish();
    }
  }
  return Mix64(combined);
}

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kYannakakis: return "yannakakis";
    case EngineKind::kDecompDp: return "decomp-dp";
    case EngineKind::kGenericHomSearch: return "generic-hom-search";
    case EngineKind::kAckEngine: return "ack";
    case EngineKind::kTypeEngine: return "type-engine";
  }
  return "unknown";
}

EngineKind ChooseEngine(const AnalysisReport& report, RoutingGoal goal) {
  // Cyclic queries up to this verified treewidth are evaluated by the
  // decomposition DP rather than the general homomorphism search.
  constexpr int kDecompWidthThreshold = 3;
  if (goal == RoutingGoal::kContainment) {
    return report.acyclic ? EngineKind::kAckEngine : EngineKind::kTypeEngine;
  }
  if (report.acyclic) return EngineKind::kYannakakis;
  if (report.treewidth <= kDecompWidthThreshold) return EngineKind::kDecompDp;
  return EngineKind::kGenericHomSearch;
}

namespace {

AnalysisReport BuildReport(const DatalogProgram* program,
                           const UnionQuery& ucq,
                           const RoutingOptions& options) {
  ObsSpan span(options.obs, "analysis/report", "analysis");
  AnalysisReport out;
  out.query_hash = CanonicalQueryHash(ucq);
  out.num_disjuncts = static_cast<int>(ucq.disjuncts().size());

  // UCQ structure, all through the certified decomposition module.
  out.acyclic = true;
  out.treewidth_exact = true;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    out.acyclic = out.acyclic && IsAcyclic(cq);
    out.max_shared_vars = std::max(out.max_shared_vars, MaxSharedVariables(cq));
    UndirectedGraph gaifman = GaifmanGraph(cq);
    DecomposeOptions decompose;
    decompose.obs = options.obs;
    DecompositionCertificate tree = DecomposeGraph(gaifman, decompose);
    out.treewidth = std::max(out.treewidth, std::max(0, tree.claimed_width));
    out.treewidth_exact = out.treewidth_exact && tree.exact;
    // GaifmanGraph and CqHypergraph both number variables in body
    // first-occurrence order, so the Gaifman graph is the hypergraph's
    // primal graph and its decomposition is reused, not rebuilt.
    DecompositionCertificate ghd =
        DecomposeHypergraph(CqHypergraph(cq), std::move(tree), decompose);
    out.ghw = std::max(out.ghw, ghd.claimed_width);
  }
  if (out.acyclic) {
    auto level = AckLevel(ucq);
    out.ack_level = level.ok() ? *level : std::max(1, out.max_shared_vars);
  }

  if (program != nullptr) {
    out.has_program = true;
    out.program_hash = CanonicalProgramHash(*program);
    out.recursive = program->IsRecursive();
    out.program = AnalyzeProgramStructure(*program);
  }

  out.eval_engine = ChooseEngine(out, RoutingGoal::kEvaluate);
  out.containment_engine = ChooseEngine(out, RoutingGoal::kContainment);
  span.AddArg("disjuncts", static_cast<std::uint64_t>(out.num_disjuncts));
  span.AddArg("acyclic", out.acyclic ? 1 : 0);
  span.AddArg("treewidth", static_cast<std::uint64_t>(out.treewidth));
  return out;
}

using ReportCache =
    LruCache<std::pair<std::uint64_t, std::uint64_t>, AnalysisReport,
             PairHash<std::uint64_t, std::uint64_t>>;

ReportCache& Cache() {
  static ReportCache* cache = new ReportCache(kGlobalAnalysisCacheCapacity);
  return *cache;
}

AnalysisReport CachedReport(const DatalogProgram* program,
                            const UnionQuery& ucq,
                            const RoutingOptions& options) {
  if (!options.use_cache) return BuildReport(program, ucq, options);
  const std::pair<std::uint64_t, std::uint64_t> key = {
      program != nullptr ? CanonicalProgramHash(*program) : 0,
      CanonicalQueryHash(ucq)};
  if (std::optional<AnalysisReport> hit = Cache().Lookup(key)) {
    ObsCount(options.obs, "analysis.cache_hits", 1);
    return *std::move(hit);
  }
  AnalysisReport report = BuildReport(program, ucq, options);
  Cache().Insert(key, report);
  ObsCount(options.obs, "analysis.cache_misses", 1);
  return report;
}

}  // namespace

AnalysisReport AnalyzeForRouting(const UnionQuery& ucq,
                                 const RoutingOptions& options) {
  return CachedReport(nullptr, ucq, options);
}

AnalysisReport AnalyzeForRouting(const DatalogProgram& program,
                                 const UnionQuery& ucq,
                                 const RoutingOptions& options) {
  return CachedReport(&program, ucq, options);
}

AnalysisCacheStats GlobalAnalysisCacheStats() { return Cache().stats(); }

void ClearGlobalAnalysisCache() { Cache().Clear(); }

namespace {

std::string JsonBool(bool b) { return b ? "true" : "false"; }

std::string JsonHex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string("\"") + buf + "\"";
}

}  // namespace

std::string AnalysisReport::ToJson() const {
  std::string out = "{";
  out += "\"schema_version\":" + std::to_string(kSchemaVersion) + ",";
  out += "\"query_hash\":" + JsonHex(query_hash) + ",";
  out += "\"program_hash\":" + JsonHex(program_hash) + ",";
  out += "\"ucq\":{";
  out += "\"disjuncts\":" + std::to_string(num_disjuncts) + ",";
  out += "\"acyclic\":" + JsonBool(acyclic) + ",";
  out += "\"ack_level\":" + std::to_string(ack_level) + ",";
  out += "\"treewidth\":" + std::to_string(treewidth) + ",";
  out += "\"treewidth_exact\":" + JsonBool(treewidth_exact) + ",";
  out += "\"ghw\":" + std::to_string(ghw) + ",";
  out += "\"max_shared_vars\":" + std::to_string(max_shared_vars);
  out += "},";
  out += "\"program\":{";
  out += "\"present\":" + JsonBool(has_program) + ",";
  out += "\"recursive\":" + JsonBool(recursive) + ",";
  out += "\"num_strata\":" +
         std::to_string(program.stratification.num_strata) + ",";
  out += "\"num_sccs\":" + std::to_string(program.stratification.num_sccs) +
         ",";
  out += "\"num_recursive_sccs\":" +
         std::to_string(program.stratification.num_recursive_sccs) + ",";
  out += "\"relevant_rules\":" +
         std::to_string(program.relevance.num_relevant_rules) + ",";
  out += "\"recursive_rules\":" +
         std::to_string(program.recursion.num_recursive_rules) + ",";
  out += "\"max_recursive_rule_vars\":" +
         std::to_string(program.recursion.max_recursive_rule_vars) + ",";
  out += "\"expansion_branching\":" +
         std::to_string(program.recursion.max_intensional_atoms) + ",";
  out += "\"linear\":" + JsonBool(program.fragment.linear) + ",";
  out += "\"monadic\":" + JsonBool(program.fragment.monadic) + ",";
  out += "\"guarded\":" + JsonBool(program.fragment.guarded) + ",";
  out += "\"frontier_guarded\":" +
         JsonBool(program.fragment.frontier_guarded);
  out += "},";
  out += "\"routing\":{";
  out += std::string("\"eval_engine\":\"") + EngineKindName(eval_engine) +
         "\",";
  out += std::string("\"containment_engine\":\"") +
         EngineKindName(containment_engine) + "\"";
  out += "}}";
  return out;
}

}  // namespace analysis
}  // namespace qcont
