#include "corpus.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>

namespace serverbench {

namespace {

/// splitmix64. Hand-rolled because the std:: distributions are
/// implementation-defined: the corpus bytes must depend on the seed only.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint32_t Below(std::uint32_t n) {
    return static_cast<std::uint32_t>(((Next() >> 32) * n) >> 32);
  }
  bool OneIn(std::uint32_t n) { return Below(n) == 0; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(static_cast<std::uint32_t>(i))]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t Fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

// ---------------------------------------------------------------------------
// Rules and queries as structures over variable indices, printed under a
// naming variant: variant 0 is the canonical text, variant k > 0 an
// alpha-renaming of it (same canonical hash, different bytes).

struct Atom {
  std::string rel;
  std::vector<int> vars;
};

struct Rule {
  Atom head;
  std::vector<Atom> body;
};

std::string VarName(int var, int variant) {
  static const char* const kNames[] = {"x", "y", "z", "w", "u", "v"};
  if (variant == 0) {
    return var < 6 ? kNames[var] : "v" + std::to_string(var);
  }
  return "q" + std::to_string(variant) + "v" + std::to_string(var);
}

void PrintAtom(const Atom& atom, int variant, std::string* out) {
  *out += atom.rel;
  *out += '(';
  for (std::size_t i = 0; i < atom.vars.size(); ++i) {
    if (i > 0) *out += ',';
    *out += VarName(atom.vars[i], variant);
  }
  *out += ')';
}

std::string PrintRules(const std::vector<Rule>& rules, int variant) {
  std::string out;
  for (const Rule& rule : rules) {
    if (!out.empty()) out += ' ';
    PrintAtom(rule.head, variant, &out);
    out += " :- ";
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += ", ";
      PrintAtom(rule.body[i], variant, &out);
    }
    out += '.';
  }
  return out;
}

std::string Rel(int index) { return "r" + std::to_string(index); }
constexpr int kRelations = 8;  // EDB schema r0..r7, all binary

Atom Edge(int rel, int u, int v) { return Atom{Rel(rel), {u, v}}; }

// ---------------------------------------------------------------------------
// Containment requests: Π over three of r0..r7 with binary goal g, and Θ a
// UCQ of one or two disjuncts with head Q(x,y).

struct Program {
  std::vector<Rule> rules;
  std::vector<int> rels;  // EDB relations Π mentions
  /// A UCQ that holds on every expansion of Π (so Π ⊆ Θ), as disjuncts
  /// of edges; see ContainedBase.
  std::vector<std::vector<Atom>> contained;
};

constexpr int kTemplates = 4;

Program GenProgram(Rng* rng, int shape) {
  std::vector<int> order(kRelations);
  for (int i = 0; i < kRelations; ++i) order[i] = i;
  rng->Shuffle(&order);
  const int a = order[0], b = order[1], c = order[2];
  const Atom g{"g", {0, 1}};
  Program p;
  p.rels = {a, b, c};
  // Variables: 0 = x, 1 = y, 2 = z, 3 = w. Each template lists, in
  // `contained`, disjuncts covering every expansion: what x's first edge
  // and y's last edge can be.
  switch (shape) {
    case 0:  // right-linear chains b* a
      p.rules = {{g, {Edge(a, 0, 1)}}, {g, {Edge(b, 0, 2), Atom{"g", {2, 1}}}}};
      p.rels = {a, b};
      p.contained = {{Edge(a, 0, 1)}, {Edge(b, 0, 2), Edge(a, 3, 1)}};
      break;
    case 1:  // chains c* a b*, recursing on both sides
      p.rules = {{g, {Edge(a, 0, 1)}},
                 {g, {Atom{"g", {0, 2}}, Edge(b, 2, 1)}},
                 {g, {Edge(c, 0, 2), Atom{"g", {2, 1}}}}};
      p.contained = {{Edge(a, 0, 1)},
                     {Edge(c, 0, 2), Edge(a, 3, 1)},
                     {Edge(c, 0, 2), Edge(b, 3, 1)},
                     {Edge(a, 0, 2), Edge(b, 3, 1)}};
      break;
    case 2:  // non-recursive
      p.rules = {{g, {Edge(a, 0, 2), Edge(b, 2, 1)}}, {g, {Edge(c, 1, 0)}}};
      p.contained = {{Edge(a, 0, 2), Edge(b, 3, 1)}, {Edge(c, 1, 0)}};
      break;
    default:  // recursion below a guarded base case
      p.rules = {{g, {Edge(a, 0, 1), Edge(b, 1, 2)}},
                 {g, {Edge(c, 0, 2), Atom{"g", {2, 1}}}}};
      p.contained = {{Edge(a, 0, 1), Edge(b, 1, 2)},
                     {Edge(c, 0, 2), Edge(b, 1, 3)}};
      break;
  }
  return p;
}

struct Disjunct {
  std::vector<Atom> atoms;  // sorted by relation, variables canonically named
  std::vector<int> rels;    // sorted
};

/// Sorts the atoms by relation and names the variables by first occurrence
/// (x and y first). When a disjunct's atoms use distinct relations it is a
/// core (an endomorphism must map every atom onto itself), and two such
/// disjuncts print alike iff they are isomorphic.
Disjunct Canonical(std::vector<Atom> atoms) {
  std::sort(atoms.begin(), atoms.end(),
            [](const Atom& l, const Atom& r) { return l.rel < r.rel; });
  std::map<int, int> rename = {{0, 0}, {1, 1}};
  Disjunct out;
  for (Atom& atom : atoms) {
    for (int& var : atom.vars) {
      const int fresh = static_cast<int>(rename.size());
      var = rename.emplace(var, fresh).first->second;
    }
    out.rels.push_back(std::stoi(atom.rel.substr(1)));
  }
  std::sort(out.rels.begin(), out.rels.end());
  out.atoms = std::move(atoms);
  return out;
}

/// A random disjunct over distinct relations drawn from `mine` (three in
/// four) and `others`: a forest through x and y, or a cycle through both.
Disjunct GenDisjunct(Rng* rng, std::vector<int> mine, std::vector<int> others,
                     bool cyclic) {
  // Edges over variable indices (0 = x, 1 = y); a forest when acyclic.
  std::vector<std::pair<int, int>> edges;
  int next_var = 2;
  if (cyclic) {
    const int length = rng->OneIn(3) ? 4 : 3;  // x, y, then fresh variables
    std::vector<int> ring = {0, 1};
    while (static_cast<int>(ring.size()) < length) ring.push_back(next_var++);
    for (int i = 0; i < length; ++i) {
      edges.emplace_back(ring[i], ring[(i + 1) % length]);
    }
    if (rng->OneIn(3)) {
      edges.emplace_back(ring[rng->Below(length)], next_var++);
    }
  } else {
    // An x..y path of 1-2 edges, or x and y in separate components; then
    // pendant edges to fresh variables, up to three edges in all.
    const int atoms = 1 + static_cast<int>(rng->Below(3));
    if (atoms == 1 || rng->OneIn(2)) {
      const int length = std::min(atoms, 1 + static_cast<int>(rng->Below(2)));
      int prev = 0;
      for (int i = 0; i + 1 < length; ++i) {
        edges.emplace_back(prev, next_var);
        prev = next_var++;
      }
      edges.emplace_back(prev, 1);
    } else {
      edges.emplace_back(0, next_var++);
      edges.emplace_back(1, next_var++);
    }
    while (static_cast<int>(edges.size()) < atoms) {
      const int anchor = static_cast<int>(rng->Below(next_var));
      edges.emplace_back(anchor, next_var++);
    }
  }

  // Distinct relations, three in four drawn from `mine` while it lasts.
  rng->Shuffle(&mine);
  rng->Shuffle(&others);
  std::vector<Atom> atoms;
  for (auto [u, v] : edges) {
    int rel;
    if (!mine.empty() && (others.empty() || !rng->OneIn(4))) {
      rel = mine.back();
      mine.pop_back();
    } else {
      rel = others.back();
      others.pop_back();
    }
    if (rng->OneIn(2)) std::swap(u, v);
    atoms.push_back(Edge(rel, u, v));
  }
  return Canonical(std::move(atoms));
}

std::string DisjunctText(const Disjunct& d, int variant) {
  return PrintRules({Rule{Atom{"Q", {0, 1}}, d.atoms}}, variant);
}

struct ContainmentRequest {
  const Program* program;
  std::vector<Disjunct> theta;  // in canonical (text) order
  bool acyclic;

  std::string ProgramText(int variant) const {
    return PrintRules(program->rules, variant) + " goal g.";
  }
  std::string QueryText(int variant) const {
    std::string out;
    for (const Disjunct& d : theta) {
      if (!out.empty()) out += ' ';
      out += DisjunctText(d, variant);
    }
    return out;
  }
};

/// Draws containment requests whose Θ never repeats (up to isomorphism),
/// so every request has a fresh canonical key in the query-keyed cache
/// layers. Half the programs come from a small hot pool.
class ContainmentGen {
 public:
  explicit ContainmentGen(Rng* rng) : rng_(rng) {
    // Every template equally often, so the hot pool's cost does not
    // depend on the seed.
    for (int i = 0; i < kHotPrograms; ++i) {
      hot_.push_back(GenProgram(rng_, i % kTemplates));
    }
  }

  ContainmentRequest Next() {
    ContainmentRequest req;
    if (rng_->OneIn(2)) {
      req.program = &hot_[rng_->Below(kHotPrograms)];
    } else {
      fresh_.push_back(GenProgram(rng_, rng_->Below(kTemplates)));
      req.program = &fresh_.back();
    }
    const std::vector<int>& mine = req.program->rels;
    std::vector<int> others;
    for (int r = 0; r < kRelations; ++r) {
      if (std::find(mine.begin(), mine.end(), r) == mine.end()) {
        others.push_back(r);
      }
    }
    const bool cyclic = rng_->OneIn(4);
    const bool contained = rng_->OneIn(5);
    req.acyclic = !cyclic;
    for (;;) {
      req.theta.clear();
      if (contained) {
        // Π's covering disjuncts plus one over relations Π never uses: it
        // cannot match an expansion (the verdict stays "contained") and is
        // incomparable with the rest, so minimization keeps it and the
        // query stays unique.
        for (const std::vector<Atom>& atoms : req.program->contained) {
          req.theta.push_back(Canonical(atoms));
        }
        req.theta.push_back(GenDisjunct(rng_, {}, others, cyclic));
      } else {
        req.theta.push_back(GenDisjunct(rng_, mine, others, cyclic));
        if (rng_->OneIn(3)) {
          // A second disjunct over an incomparable relation set, so neither
          // disjunct maps into the other and minimization keeps both.
          Disjunct second = GenDisjunct(rng_, mine, others, false);
          const auto& a = req.theta[0].rels;
          const auto& b = second.rels;
          if (std::includes(a.begin(), a.end(), b.begin(), b.end()) ||
              std::includes(b.begin(), b.end(), a.begin(), a.end())) {
            continue;
          }
          req.theta.push_back(std::move(second));
        }
      }
      std::sort(req.theta.begin(), req.theta.end(),
                [](const Disjunct& l, const Disjunct& r) {
                  return DisjunctText(l, 0) < DisjunctText(r, 0);
                });
      if (seen_.insert(req.QueryText(0)).second) return req;
    }
  }

  const Program& Hot() { return hot_[rng_->Below(kHotPrograms)]; }

 private:
  static constexpr int kHotPrograms = 8;
  Rng* rng_;
  std::vector<Program> hot_;
  std::deque<Program> fresh_;  // stable addresses
  std::set<std::string> seen_;
};

// ---------------------------------------------------------------------------
// Eval requests: a TC-style program over a random digraph on nodes n0..

struct EvalRequest {
  int kind;  // which TC program
  int nodes;
  std::vector<std::pair<int, int>> edges;
  std::vector<bool> in_f;  // kind 2 splits the edges between e and f
};

std::vector<Rule> TcProgram(int kind) {
  const Atom t{"t", {0, 1}};
  auto e = [](const char* rel, int u, int v) { return Atom{rel, {u, v}}; };
  switch (kind) {
    case 0:
      return {{t, {e("e", 0, 1)}}, {t, {e("e", 0, 2), e("t", 2, 1)}}};
    case 1:
      return {{t, {e("e", 0, 1)}}, {t, {e("t", 0, 2), e("e", 2, 1)}}};
    default:
      return {{t, {e("e", 0, 1)}},
              {t, {e("f", 0, 1)}},
              {t, {e("e", 0, 2), e("t", 2, 1)}},
              {t, {e("f", 0, 2), e("t", 2, 1)}}};
  }
}

EvalRequest GenEval(Rng* rng, int nodes, int edges) {
  EvalRequest req;
  req.kind = static_cast<int>(rng->Below(3));
  req.nodes = nodes;
  std::set<std::pair<int, int>> seen;
  while (static_cast<int>(req.edges.size()) < edges) {
    const int u = static_cast<int>(rng->Below(nodes));
    const int v = static_cast<int>(rng->Below(nodes));
    if (u == v || !seen.emplace(u, v).second) continue;
    req.edges.emplace_back(u, v);
    req.in_f.push_back(req.kind == 2 && rng->OneIn(2));
  }
  return req;
}

std::string Node(int i) { return "n" + std::to_string(i); }

/// Program text under naming `variant`; facts in a seeded order (the
/// server's database hash is order-independent, so every order is the same
/// canonical request).
std::string EvalLine(const EvalRequest& req, int variant, Rng* order_rng,
                     std::size_t id) {
  std::vector<std::size_t> order(req.edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (order_rng != nullptr) order_rng->Shuffle(&order);
  std::string db;
  for (std::size_t i : order) {
    if (!db.empty()) db += ' ';
    db += req.in_f[i] ? "f(" : "e(";
    db += Node(req.edges[i].first) + "," + Node(req.edges[i].second) + ").";
  }
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"eval\",\"program\":\"" +
         PrintRules(TcProgram(req.kind), variant) +
         " goal t.\",\"database\":\"" + db + "\"}";
}

/// Renders the server's eval result object for goal `goal` over the sorted
/// tuples (the wire format of DESIGN.md §15).
std::string RenderEvalResult(
    const std::string& goal,
    const std::vector<std::pair<std::string, std::string>>& sorted_pairs) {
  std::string out = "{\"goal\":\"" + goal + "\",\"tuples\":[";
  for (std::size_t i = 0; i < sorted_pairs.size(); ++i) {
    if (i > 0) out += ',';
    out += "[\"" + sorted_pairs[i].first + "\",\"" + sorted_pairs[i].second +
           "\"]";
  }
  return out + "]}";
}

/// Every TC program computes the transitive closure of the union of its
/// edge relations; BFS from each node gives the expected goal tuples.
std::uint64_t ExpectedEvalDigest(const EvalRequest& req) {
  std::vector<std::vector<int>> adj(req.nodes);
  for (auto [u, v] : req.edges) adj[u].push_back(v);
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<int> stack;
  for (int s = 0; s < req.nodes; ++s) {
    std::vector<bool> seen(req.nodes, false);
    stack.assign(adj[s].begin(), adj[s].end());
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = true;
      pairs.emplace_back(Node(s), Node(v));
      for (int w : adj[v]) {
        if (!seen[w]) stack.push_back(w);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return ResultDigest(RenderEvalResult("t", pairs));
}

// ---------------------------------------------------------------------------

class CorpusWriter {
 public:
  explicit CorpusWriter(Corpus* corpus) : corpus_(corpus) {}

  std::uint32_t Containment(const ContainmentRequest& req, int variant) {
    const std::size_t id = corpus_->lines.size();
    return Add("{\"id\":" + std::to_string(id) +
                   ",\"op\":\"containment\",\"program\":\"" +
                   req.ProgramText(variant) + "\",\"query\":\"" +
                   req.QueryText(variant) + "\"}",
               LineInfo{Op::kContainment, req.acyclic, 0});
  }

  std::uint32_t Analyze(const ContainmentRequest& req, bool with_program,
                        int variant) {
    const std::size_t id = corpus_->lines.size();
    std::string line = "{\"id\":" + std::to_string(id) +
                       ",\"op\":\"analyze\",\"query\":\"" +
                       req.QueryText(variant) + "\"";
    if (with_program) {
      line += ",\"program\":\"" + req.ProgramText(variant) + "\"";
    }
    return Add(line + "}", LineInfo{Op::kAnalyze, req.acyclic, 0});
  }

  std::uint32_t Eval(const EvalRequest& req, int variant, Rng* order_rng,
                     std::uint64_t expected) {
    return Add(EvalLine(req, variant, order_rng, corpus_->lines.size()),
               LineInfo{Op::kEval, false, expected});
  }

 private:
  std::uint32_t Add(std::string line, LineInfo info) {
    corpus_->lines.push_back(std::move(line));
    corpus_->info.push_back(info);
    return static_cast<std::uint32_t>(corpus_->lines.size() - 1);
  }
  Corpus* corpus_;
};

void AppendRange(std::vector<std::uint32_t>* out, std::uint32_t begin,
                 std::uint32_t end) {
  for (std::uint32_t i = begin; i < end; ++i) out->push_back(i);
}

// Sizes. The plan cache defaults hold 4096 verdicts/reports/cores and 512
// eval results (ServerOptions::cache); the cold streams cycle through more
// distinct keys than that, so a line's entry is always evicted before the
// line comes round again, and set-up sends more than a cache-full first.
constexpr std::uint32_t kColdLines = 8192;
constexpr std::uint32_t kColdFill = 4608;
constexpr std::uint32_t kBatchUnique = 24;   // fresh requests per batch
constexpr std::uint32_t kBatchDups = 8;      // in-batch alpha-renamed copies
constexpr std::uint32_t kBatchGroups = 342;  // 342 * 24 = 8208 fresh keys
constexpr std::uint32_t kBatchFillGroups = 192;
constexpr std::uint32_t kHotCanonical = 256;
constexpr int kHotVariants = 4;
constexpr std::uint32_t kHotStream = 1 << 16;
constexpr std::uint32_t kGraphLines = 1024;
constexpr std::uint32_t kGraphFill = 576;
constexpr int kGraphNodes = 64;

void BuildContainCold(Rng* rng, Corpus* corpus) {
  ContainmentGen gen(rng);
  CorpusWriter b(corpus);
  for (std::uint32_t i = 0; i < kColdLines; ++i) b.Containment(gen.Next(), 0);
  AppendRange(&corpus->setup, kColdLines - kColdFill, kColdLines);
  AppendRange(&corpus->timed, 0, kColdLines);
}

void BuildContainBatch(Rng* rng, Corpus* corpus) {
  ContainmentGen gen(rng);
  CorpusWriter b(corpus);
  std::vector<std::uint32_t> stream;
  for (std::uint32_t g = 0; g < kBatchGroups; ++g) {
    std::vector<ContainmentRequest> reqs;
    std::vector<std::uint32_t> slots;
    for (std::uint32_t i = 0; i < kBatchUnique; ++i) {
      reqs.push_back(gen.Next());
      slots.push_back(b.Containment(reqs.back(), 0));
    }
    std::vector<std::uint32_t> pick(kBatchUnique);
    for (std::uint32_t i = 0; i < kBatchUnique; ++i) pick[i] = i;
    rng->Shuffle(&pick);
    for (std::uint32_t i = 0; i < kBatchDups; ++i) {
      slots.push_back(b.Containment(reqs[pick[i]], 1));
    }
    rng->Shuffle(&slots);
    stream.insert(stream.end(), slots.begin(), slots.end());
  }
  const std::size_t per_batch = kBatchUnique + kBatchDups;
  corpus->setup.assign(
      stream.end() - kBatchFillGroups * per_batch, stream.end());
  corpus->timed = std::move(stream);
}

void BuildReplayHot(Rng* rng, Corpus* corpus) {
  ContainmentGen gen(rng);
  CorpusWriter b(corpus);
  // The working set: 5/8 containment, 1/8 analyze, 2/8 small evals, each
  // under kHotVariants namings (variant 0 first, so set-up computes every
  // canonical request once and hits on the renamings).
  std::vector<ContainmentRequest> containments;
  std::vector<std::pair<ContainmentRequest, bool>> analyzes;
  std::vector<std::pair<EvalRequest, std::uint64_t>> evals;
  for (std::uint32_t w = 0; w < kHotCanonical; ++w) {
    switch (w % 8) {
      case 5: {
        ContainmentRequest req = gen.Next();
        if (rng->OneIn(2)) req.program = &gen.Hot();
        analyzes.emplace_back(std::move(req), rng->OneIn(2));
        break;
      }
      case 6:
      case 7: {
        EvalRequest req = GenEval(rng, 8, 12);
        const std::uint64_t expected = ExpectedEvalDigest(req);
        evals.emplace_back(std::move(req), expected);
        break;
      }
      default:
        containments.push_back(gen.Next());
    }
  }
  for (int variant = 0; variant < kHotVariants; ++variant) {
    for (const auto& req : containments) b.Containment(req, variant);
    for (const auto& [req, with_program] : analyzes) {
      b.Analyze(req, with_program, variant);
    }
    for (const auto& [req, expected] : evals) {
      b.Eval(req, variant, variant == 0 ? nullptr : rng, expected);
    }
  }
  const auto n = static_cast<std::uint32_t>(corpus->lines.size());
  AppendRange(&corpus->setup, 0, n);
  corpus->timed.reserve(kHotStream);
  for (std::uint32_t i = 0; i < kHotStream; ++i) {
    corpus->timed.push_back(rng->Below(n));
  }
}

void BuildEvalGraph(Rng* rng, Corpus* corpus) {
  CorpusWriter b(corpus);
  for (std::uint32_t i = 0; i < kGraphLines; ++i) {
    EvalRequest req = GenEval(rng, kGraphNodes, 2 * kGraphNodes);
    b.Eval(req, 0, nullptr, ExpectedEvalDigest(req));
  }
  AppendRange(&corpus->setup, kGraphLines - kGraphFill, kGraphLines);
  AppendRange(&corpus->timed, 0, kGraphLines);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"contain_cold", 1, 1},
      {"replay_hot", 1, 1},
      {"eval_graph", 1, 1},
      {"contain_batch", 2, kBatchUnique + kBatchDups},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Corpus BuildCorpus(const WorkloadSpec& workload, std::uint64_t seed) {
  Corpus corpus;
  corpus.batch = workload.batch;
  Rng rng(Fnv1a(kFnvOffset, workload.name) ^ seed);
  const std::string name = workload.name;
  if (name == "contain_cold") {
    BuildContainCold(&rng, &corpus);
  } else if (name == "contain_batch") {
    BuildContainBatch(&rng, &corpus);
  } else if (name == "replay_hot") {
    BuildReplayHot(&rng, &corpus);
  } else {
    BuildEvalGraph(&rng, &corpus);
  }
  return corpus;
}

std::uint64_t Corpus::Digest() const {
  std::uint64_t h = kFnvOffset;
  for (const std::string& line : lines) {
    h = Fnv1a(h, line);
    h = Fnv1a(h, "\n");
  }
  for (const auto* stream : {&setup, &timed}) {
    for (std::uint32_t i : *stream) {
      h = Fnv1a(h, std::string_view(reinterpret_cast<const char*>(&i),
                                    sizeof(i)));
    }
    h = Fnv1a(h, "|");
  }
  return Fnv1a(h, std::to_string(batch));
}

std::size_t Corpus::Bytes() const {
  std::size_t bytes = (setup.capacity() + timed.capacity()) *
                          sizeof(std::uint32_t) +
                      info.capacity() * sizeof(LineInfo);
  for (const std::string& line : lines) bytes += line.capacity();
  return bytes;
}

std::uint64_t ResultDigest(std::string_view result) {
  return std::hash<std::string_view>{}(result);
}

}  // namespace serverbench
