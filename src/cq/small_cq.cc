#include "cq/small_cq.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "base/hash.h"
#include "cq/homomorphism.h"

namespace qcont {

namespace {

using Code = SmallUcq::Code;
constexpr std::uint32_t kUnbound = std::numeric_limits<std::uint32_t>::max();

std::size_t Words(std::size_t bits) { return bits == 0 ? 1 : (bits + 63) / 64; }

}  // namespace

// Backtracking homomorphism search from one compiled disjunct (the source)
// into the atoms of another (the target, possibly the same disjunct),
// frozen: target variables are distinct values, target constants are
// values after them. Bit k of a mask is the target's k-th surviving atom.
// The counters follow the indexed searcher's accounting (HomSearchStats).
class SmallUcq::Search {
 public:
  Search(const SmallUcq& q, const View& src, const View& tgt)
      : src_(src), tgt_(tgt), words_(Words(tgt.num_atoms)) {
    num_values_ = tgt.num_vars + q.num_constants_;
    max_arity_ = 0;
    tgt_terms_.Reset(tgt.num_atoms);
    for (std::uint32_t k = 0; k < tgt.num_atoms; ++k) {
      const std::uint32_t g = tgt.atom_base + tgt.kept[k];
      tgt_terms_[k] = q.terms_.data() + q.term_begin_[g];
      max_arity_ = std::max(max_arity_, q.term_begin_[g + 1] - q.term_begin_[g]);
    }
    // at_[(p * num_values_ + value) * words_]: target atoms holding `value`
    // at position p; of_pred_[pred * words_]: target atoms of `pred`, of
    // arity pred_arity[pred]; the row past the last predicate stays empty.
    const std::size_t table = std::size_t{max_arity_} * num_values_ * words_;
    at_.Reset(table);
    std::fill(at_.data(), at_.data() + table, 0);
    const std::size_t rows = std::size_t{q.num_preds_ + 1} * words_;
    of_pred_.Reset(rows);
    std::fill(of_pred_.data(), of_pred_.data() + rows, 0);
    StackBuffer<std::uint32_t, 16> pred_arity(q.num_preds_);
    std::fill(pred_arity.data(), pred_arity.data() + q.num_preds_, kUnbound);
    for (std::uint32_t k = 0; k < tgt.num_atoms; ++k) {
      const std::uint32_t g = tgt.atom_base + tgt.kept[k];
      const std::uint32_t arity = q.term_begin_[g + 1] - q.term_begin_[g];
      const std::uint64_t bit = std::uint64_t{1} << (k % 64);
      for (std::uint32_t p = 0; p < arity; ++p) {
        at_[Slot(p, TargetValue(tgt_terms_[k][p])) + k / 64] |= bit;
      }
      of_pred_[std::size_t{q.pred_[g]} * words_ + k / 64] |= bit;
      pred_arity[q.pred_[g]] = arity;
    }
    // Per source atom: its terms and the target atoms of its predicate —
    // none when the target uses the predicate's name at another arity.
    src_arity_.Reset(src.num_atoms);
    src_terms_.Reset(src.num_atoms);
    src_pred_.Reset(src.num_atoms);
    for (std::uint32_t i = 0; i < src.num_atoms; ++i) {
      const std::uint32_t g = src.atom_base + src.kept[i];
      src_arity_[i] = q.term_begin_[g + 1] - q.term_begin_[g];
      src_terms_[i] = q.terms_.data() + q.term_begin_[g];
      const std::uint32_t pred = q.pred_[g];
      const bool match =
          pred_arity[pred] == kUnbound || pred_arity[pred] == src_arity_[i];
      src_pred_[i] = of_pred_.data() + (match ? pred : q.num_preds_) * words_;
    }
    binding_.Reset(src.num_vars);
    trail_.Reset(src.num_vars);
    choice_.Reset(src.num_atoms);
    used_.Reset(src.num_atoms);
    masks_.Reset(std::size_t{src.num_atoms} * 2 * words_);
    allowed_.Reset(words_);
  }

  // Every target atom allowed.
  void AllowAll() {
    std::fill(allowed_.data(), allowed_.data() + words_, ~std::uint64_t{0});
    if (tgt_.num_atoms % 64 != 0) {
      allowed_[words_ - 1] = (std::uint64_t{1} << (tgt_.num_atoms % 64)) - 1;
    } else if (tgt_.num_atoms == 0) {
      allowed_[0] = 0;
    }
  }

  // Removes the target atoms that mention target variable `v`.
  void Forbid(Code v) {
    for (std::uint32_t p = 0; p < max_arity_; ++p) {
      const std::uint64_t* mask = &at_[Slot(p, v)];
      for (std::size_t w = 0; w < words_; ++w) allowed_[w] &= ~mask[w];
    }
  }

  void Unbind() {
    std::fill(binding_.data(), binding_.data() + src_.num_vars, kUnbound);
    trail_size_ = 0;
  }

  // Pins source variable `var` to target value `value`; false if it is
  // already pinned elsewhere.
  bool Pin(Code var, std::uint32_t value) {
    if (binding_[var] != kUnbound) return binding_[var] == value;
    binding_[var] = value;
    return true;
  }

  bool Run() {
    std::fill(used_.data(), used_.data() + src_.num_atoms, 0);
    return Recurse(0);
  }

  // The target atom (surviving-atom position) source atom `i` mapped to.
  std::uint32_t choice(std::uint32_t i) const { return choice_[i]; }

  const HomSearchStats& stats() const { return stats_; }

 private:
  std::size_t Slot(std::uint32_t p, std::uint32_t value) const {
    return (std::size_t{p} * num_values_ + value) * words_;
  }

  std::uint32_t TargetValue(Code code) const {
    return (code & kConstantBit) != 0 ? tgt_.num_vars + (code & ~kConstantBit)
                                      : code;
  }

  // The target value a source term is bound to, or kUnbound.
  std::uint32_t BoundValue(Code code) const {
    return (code & kConstantBit) != 0 ? tgt_.num_vars + (code & ~kConstantBit)
                                      : binding_[code];
  }

  int BoundCount(std::uint32_t i) const {
    int bound = 0;
    for (std::uint32_t p = 0; p < src_arity_[i]; ++p) {
      if (BoundValue(src_terms_[i][p]) != kUnbound) ++bound;
    }
    return bound;
  }

  // Candidates of source atom `i` under the current binding, into `out`;
  // returns their number.
  std::size_t Candidates(std::uint32_t i, std::uint64_t* out) const {
    const std::uint64_t* pred = src_pred_[i];
    for (std::size_t w = 0; w < words_; ++w) out[w] = pred[w] & allowed_[w];
    for (std::uint32_t p = 0; p < src_arity_[i]; ++p) {
      const std::uint32_t value = BoundValue(src_terms_[i][p]);
      if (value == kUnbound) continue;
      if (p >= max_arity_ || value >= num_values_) {
        std::fill(out, out + words_, 0);
        return 0;
      }
      const std::uint64_t* mask = &at_[Slot(p, value)];
      for (std::size_t w = 0; w < words_; ++w) out[w] &= mask[w];
    }
    std::size_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) count += std::popcount(out[w]);
    return count;
  }

  // Binds the unbound variables of source atom `i` to target atom `k`;
  // false on a clash between two occurrences of one variable (the other
  // positions are already filtered by Candidates).
  bool Extend(std::uint32_t i, std::uint32_t k) {
    const Code* s = src_terms_[i];
    const Code* t = tgt_terms_[k];
    for (std::uint32_t p = 0; p < src_arity_[i]; ++p) {
      if ((s[p] & kConstantBit) != 0) continue;
      const std::uint32_t value = TargetValue(t[p]);
      if (binding_[s[p]] == kUnbound) {
        binding_[s[p]] = value;
        trail_[trail_size_++] = s[p];
      } else if (binding_[s[p]] != value) {
        return false;
      }
    }
    return true;
  }

  // Counts as the indexed searcher does: a probe per tier atom with a
  // bound position, an attempt per candidate tried (index or scan by
  // whether a position was bound), a backtrack per empty tier and per
  // clash inside an atom.
  bool Recurse(std::uint32_t depth) {
    if (depth == src_.num_atoms) return true;
    // The most constrained atom: among the unused atoms with the most
    // bound positions, the first with the fewest candidates.
    int max_bound = -1;
    for (std::uint32_t i = 0; i < src_.num_atoms; ++i) {
      if (used_[i] == 0) max_bound = std::max(max_bound, BoundCount(i));
    }
    std::uint64_t* best_mask = &masks_[std::size_t{depth} * 2 * words_];
    std::uint64_t* trial = best_mask + words_;
    std::uint32_t best = 0;
    std::size_t best_count = std::numeric_limits<std::size_t>::max();
    for (std::uint32_t i = 0; i < src_.num_atoms; ++i) {
      if (used_[i] != 0 || BoundCount(i) != max_bound) continue;
      const std::size_t count = Candidates(i, trial);
      if (max_bound > 0) ++stats_.index_probes;
      if (count < best_count) {
        best = i;
        best_count = count;
        std::swap(best_mask, trial);
        if (count == 0) break;
      }
    }
    if (best_count == 0) {
      ++stats_.backtracks;
      return false;
    }
    used_[best] = 1;
    std::uint64_t& tried =
        max_bound > 0 ? stats_.index_candidates : stats_.scan_candidates;
    const std::uint32_t mark = trail_size_;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = best_mask[w]; bits != 0; bits &= bits - 1) {
        const auto k =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        ++stats_.atom_attempts;
        ++tried;
        if (Extend(best, k)) {
          choice_[best] = k;
          if (Recurse(depth + 1)) return true;
        } else {
          ++stats_.backtracks;
        }
        while (trail_size_ > mark) binding_[trail_[--trail_size_]] = kUnbound;
      }
    }
    used_[best] = 0;
    return false;
  }

  const View src_;
  const View tgt_;
  const std::size_t words_;
  std::uint32_t num_values_ = 0;
  std::uint32_t max_arity_ = 0;
  std::uint32_t trail_size_ = 0;
  StackBuffer<const Code*, 64> tgt_terms_;
  StackBuffer<std::uint64_t, 512> at_;
  StackBuffer<std::uint64_t, 16> of_pred_;
  StackBuffer<std::uint32_t, 64> src_arity_;
  StackBuffer<const Code*, 64> src_terms_;
  StackBuffer<const std::uint64_t*, 64> src_pred_;
  StackBuffer<std::uint32_t, 128> binding_;
  StackBuffer<Code, 128> trail_;
  StackBuffer<std::uint32_t, 64> choice_;
  StackBuffer<std::uint8_t, 64> used_;
  StackBuffer<std::uint64_t, 128> masks_;
  StackBuffer<std::uint64_t, 4> allowed_;
  HomSearchStats stats_;
};

Status SmallUcq::Compile(const ConjunctiveQuery* const* cqs, std::size_t n) {
  cqs_ = cqs;
  std::size_t atoms = 0, terms = 0, heads = 0;
  for (std::size_t d = 0; d < n; ++d) {
    atoms += cqs[d]->atoms().size();
    for (const Atom& a : cqs[d]->atoms()) terms += a.arity();
    heads += cqs[d]->head().size();
  }
  atom_begin_.Reset(n + 1);
  head_begin_.Reset(n + 1);
  num_vars_.Reset(n);
  kept_count_.Reset(n);
  had_duplicates_.Reset(n);
  pred_.Reset(atoms);
  term_begin_.Reset(atoms + 1);
  kept_.Reset(atoms);
  terms_.Reset(terms);
  head_.Reset(heads);

  // Predicates (with the disjunct that last used each, and its arity
  // there) and constants are keyed by name across the run; per disjunct,
  // variables by name and the surviving atoms by predicate and codes. One
  // name may have two arities in two queries; the search keeps them apart.
  NameTable preds, constants, variables;
  preds.Reset(atoms);
  constants.Reset(terms);
  StackBuffer<std::uint32_t, 32> pred_user(atoms);
  StackBuffer<std::uint32_t, 32> pred_arity(atoms);
  KeyIndex unique_atoms;

  std::uint32_t g = 0, t = 0, h = 0;
  for (std::size_t d = 0; d < n; ++d) {
    const ConjunctiveQuery& cq = *cqs[d];
    atom_begin_[d] = g;
    head_begin_[d] = h;
    std::size_t names = cq.head().size();
    for (const Atom& atom : cq.atoms()) names += atom.arity();
    variables.Reset(names);
    unique_atoms.Reset(cq.atoms().size());
    std::uint32_t kept = 0;
    for (const Atom& atom : cq.atoms()) {
      const auto arity = static_cast<std::uint32_t>(atom.arity());
      const std::uint32_t fresh = preds.size();
      const std::uint32_t pred = preds.Intern(atom.predicate());
      if (pred != fresh && pred_user[pred] == d && pred_arity[pred] != arity) {
        return cq.Validate();  // inconsistent arities within the query
      }
      pred_user[pred] = static_cast<std::uint32_t>(d);
      pred_arity[pred] = arity;
      pred_[g] = pred;
      term_begin_[g] = t;
      for (const Term& term : atom.terms()) {
        terms_[t++] = term.is_constant()
                          ? kConstantBit | constants.Intern(term.name())
                          : variables.Intern(term.name());
      }
      term_begin_[g + 1] = t;
      // Keep the atom unless an earlier survivor is the same atom.
      std::uint32_t* survivors = kept_.data() + atom_begin_[d];
      survivors[kept] = g - atom_begin_[d];
      auto global = [&](std::uint32_t k) {
        return atom_begin_[d] + survivors[k];
      };
      const std::uint32_t first = unique_atoms.Add(
          [&](std::uint32_t k) {
            std::uint64_t hash = Mix64(pred_[global(k)]);
            for (std::uint32_t p = term_begin_[global(k)];
                 p < term_begin_[global(k) + 1]; ++p) {
              hash = Mix64(hash ^ terms_[p]);
            }
            return hash;
          },
          [&](std::uint32_t a, std::uint32_t b) {
            const Code* codes = terms_.data();
            return pred_[global(a)] == pred_[global(b)] &&
                   std::equal(codes + term_begin_[global(a)],
                              codes + term_begin_[global(a) + 1],
                              codes + term_begin_[global(b)]);
          });
      kept += first == kept ? 1 : 0;
      ++g;
    }
    const std::uint32_t vars = variables.size();
    for (const Term& term : cq.head()) {
      const std::uint32_t v =
          term.is_variable() ? variables.Intern(term.name()) : vars;
      if (v >= vars) return cq.Validate();  // constant or unsafe head term
      head_[h++] = v;
    }
    num_vars_[d] = vars;
    kept_count_[d] = kept;
    had_duplicates_[d] = kept != cq.atoms().size() ? 1 : 0;
  }
  num_preds_ = preds.size();
  num_constants_ = constants.size();
  atom_begin_[n] = g;
  head_begin_[n] = h;
  return Status::Ok();
}

SmallUcq::View SmallUcq::ViewOf(std::size_t d) const {
  View v;
  v.num_atoms = kept_count_[d];
  v.num_vars = num_vars_[d];
  v.head_size = head_begin_[d + 1] - head_begin_[d];
  v.kept = kept_.data() + atom_begin_[d];
  v.atom_base = atom_begin_[d];
  v.head = head_.data() + head_begin_[d];
  return v;
}

bool SmallUcq::FoldToCore(std::size_t d) {
  const std::uint32_t num_vars = num_vars_[d];
  StackBuffer<std::uint8_t, 64> flags(num_vars);  // 1 = head, 2 = listed
  StackBuffer<Code, 64> existentials(num_vars);
  StackBuffer<std::uint32_t, 64> image(kept_count_[d]);
  StackBuffer<std::uint64_t, 4> imaged(Words(kept_count_[d]));
  bool folded = false;
  while (true) {
    const View view = ViewOf(d);
    std::fill(flags.data(), flags.data() + num_vars, 0);
    for (std::uint32_t j = 0; j < view.head_size; ++j) flags[view.head[j]] = 1;
    std::uint32_t num_existentials = 0;
    for (std::uint32_t k = 0; k < view.num_atoms; ++k) {
      const std::uint32_t g = view.atom_base + view.kept[k];
      for (std::uint32_t p = term_begin_[g]; p < term_begin_[g + 1]; ++p) {
        const Code code = terms_[p];
        if ((code & kConstantBit) != 0 || flags[code] != 0) continue;
        flags[code] = 2;
        existentials[num_existentials++] = code;
      }
    }
    Search search(*this, view, view);
    bool step = false;
    for (std::uint32_t e = 0; e < num_existentials && !step; ++e) {
      search.AllowAll();
      search.Forbid(existentials[e]);
      search.Unbind();
      for (std::uint32_t j = 0; j < view.head_size; ++j) {
        search.Pin(view.head[j], view.head[j]);
      }
      step = search.Run();
    }
    if (!step) return folded;
    folded = true;
    // The image of the retraction, in source order, without repeats.
    const std::size_t words = Words(view.num_atoms);
    std::fill(imaged.data(), imaged.data() + words, 0);
    std::uint32_t size = 0;
    for (std::uint32_t i = 0; i < view.num_atoms; ++i) {
      const std::uint32_t k = search.choice(i);
      std::uint64_t& word = imaged[k / 64];
      const std::uint64_t bit = std::uint64_t{1} << (k % 64);
      if ((word & bit) != 0) continue;
      word |= bit;
      image[size++] = view.kept[k];
    }
    std::copy(image.data(), image.data() + size, kept_.data() + atom_begin_[d]);
    kept_count_[d] = size;
  }
}

bool SmallUcq::Contained(std::size_t d, std::size_t e,
                         HomSearchStats* stats) const {
  const View target = ViewOf(d);
  const View source = ViewOf(e);
  Search search(*this, source, target);
  search.AllowAll();
  search.Unbind();
  for (std::uint32_t j = 0; j < source.head_size; ++j) {
    if (!search.Pin(source.head[j], target.head[j])) return false;
  }
  const bool found = search.Run();
  if (stats != nullptr) stats->Merge(search.stats());
  return found;
}

ConjunctiveQuery SmallUcq::Build(std::size_t d) const {
  const ConjunctiveQuery& cq = *cqs_[d];
  std::vector<Atom> atoms;
  atoms.reserve(kept_count_[d]);
  for (std::uint32_t k = 0; k < kept_count_[d]; ++k) {
    atoms.push_back(cq.atoms()[kept_[atom_begin_[d] + k]]);
  }
  return ConjunctiveQuery(cq.head(), std::move(atoms));
}

}  // namespace qcont
