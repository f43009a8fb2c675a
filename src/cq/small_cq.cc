#include "cq/small_cq.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <vector>

namespace qcont {

namespace {

using Code = SmallUcq::Code;
constexpr std::uint32_t kUnbound = std::numeric_limits<std::uint32_t>::max();

std::size_t Words(std::size_t bits) { return bits == 0 ? 1 : (bits + 63) / 64; }

// Index of `name` in names[0, n), or n if absent.
std::uint32_t FindName(const std::string* const* names, std::uint32_t n,
                       const std::string& name) {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (*names[i] == name) return i;
  }
  return n;
}

}  // namespace

// Backtracking homomorphism search from one compiled disjunct (the source)
// into the atoms of another (the target, possibly the same disjunct),
// frozen: target variables are distinct values, target constants are
// values after them. Bit k of a mask is the target's k-th surviving atom.
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
    // at position p.
    const std::size_t table = std::size_t{max_arity_} * num_values_ * words_;
    at_.Reset(table);
    std::fill(at_.data(), at_.data() + table, 0);
    for (std::uint32_t k = 0; k < tgt.num_atoms; ++k) {
      const std::uint32_t g = tgt.atom_base + tgt.kept[k];
      const std::uint32_t arity = q.term_begin_[g + 1] - q.term_begin_[g];
      for (std::uint32_t p = 0; p < arity; ++p) {
        at_[Slot(p, TargetValue(tgt_terms_[k][p])) + k / 64] |=
            std::uint64_t{1} << (k % 64);
      }
    }
    // Per source atom: its terms and the target atoms of its predicate.
    src_arity_.Reset(src.num_atoms);
    src_terms_.Reset(src.num_atoms);
    same_pred_.Reset(std::size_t{src.num_atoms} * words_);
    for (std::uint32_t i = 0; i < src.num_atoms; ++i) {
      const std::uint32_t g = src.atom_base + src.kept[i];
      src_arity_[i] = q.term_begin_[g + 1] - q.term_begin_[g];
      src_terms_[i] = q.terms_.data() + q.term_begin_[g];
      std::uint64_t* mask = &same_pred_[std::size_t{i} * words_];
      std::fill(mask, mask + words_, 0);
      for (std::uint32_t k = 0; k < tgt.num_atoms; ++k) {
        if (q.pred_[tgt.atom_base + tgt.kept[k]] == q.pred_[g]) {
          mask[k / 64] |= std::uint64_t{1} << (k % 64);
        }
      }
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
    const std::uint64_t* pred = &same_pred_[std::size_t{i} * words_];
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
      if (count < best_count) {
        best = i;
        best_count = count;
        std::swap(best_mask, trial);
        if (count == 0) break;
      }
    }
    if (best_count == 0) return false;
    used_[best] = 1;
    const std::uint32_t mark = trail_size_;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = best_mask[w]; bits != 0; bits &= bits - 1) {
        const auto k =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        if (Extend(best, k)) {
          choice_[best] = k;
          if (Recurse(depth + 1)) return true;
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
  StackBuffer<std::uint32_t, 64> src_arity_;
  StackBuffer<const Code*, 64> src_terms_;
  StackBuffer<std::uint64_t, 64> same_pred_;
  StackBuffer<std::uint32_t, 128> binding_;
  StackBuffer<Code, 128> trail_;
  StackBuffer<std::uint32_t, 64> choice_;
  StackBuffer<std::uint8_t, 64> used_;
  StackBuffer<std::uint64_t, 128> masks_;
  StackBuffer<std::uint64_t, 4> allowed_;
};

Status SmallUcq::Compile(const ConjunctiveQuery* const* cqs, std::size_t n) {
  cqs_ = cqs;
  num_constants_ = 0;
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

  // Name tables: predicates by (name, arity) with the disjunct that last
  // used them, constants by name, variables by name per disjunct.
  StackBuffer<const std::string*, 32> pred_names(atoms);
  StackBuffer<std::uint32_t, 32> pred_arity(atoms);
  StackBuffer<std::uint32_t, 32> pred_user(atoms);
  StackBuffer<const std::string*, 32> const_names(terms);
  StackBuffer<const std::string*, 64> var_names(terms);
  std::uint32_t num_preds = 0;

  std::uint32_t g = 0, t = 0, h = 0;
  for (std::size_t d = 0; d < n; ++d) {
    const ConjunctiveQuery& cq = *cqs[d];
    atom_begin_[d] = g;
    head_begin_[d] = h;
    std::uint32_t vars = 0;
    std::uint32_t kept = 0;
    for (const Atom& atom : cq.atoms()) {
      const auto arity = static_cast<std::uint32_t>(atom.arity());
      std::uint32_t pred = num_preds;
      for (std::uint32_t i = 0; i < num_preds; ++i) {
        if (*pred_names[i] != atom.predicate()) continue;
        if (pred_arity[i] == arity) {
          pred = i;
        } else if (pred_user[i] == d) {
          return cq.Validate();  // inconsistent arities within the query
        }
      }
      if (pred == num_preds) {
        pred_names[num_preds] = &atom.predicate();
        pred_arity[num_preds] = arity;
        ++num_preds;
      }
      pred_user[pred] = static_cast<std::uint32_t>(d);
      pred_[g] = pred;
      term_begin_[g] = t;
      for (const Term& term : atom.terms()) {
        if (term.is_constant()) {
          std::uint32_t c = FindName(const_names.data(), num_constants_,
                                     term.name());
          if (c == num_constants_) const_names[num_constants_++] = &term.name();
          terms_[t++] = kConstantBit | c;
        } else {
          std::uint32_t v = FindName(var_names.data(), vars, term.name());
          if (v == vars) var_names[vars++] = &term.name();
          terms_[t++] = v;
        }
      }
      term_begin_[g + 1] = t;
      // Keep the atom unless an earlier survivor is the same atom.
      const std::uint32_t local = g - atom_begin_[d];
      bool duplicate = false;
      for (std::uint32_t k = 0; k < kept && !duplicate; ++k) {
        const std::uint32_t other = atom_begin_[d] + kept_[atom_begin_[d] + k];
        const Code* a = terms_.data() + term_begin_[other];
        duplicate = pred_[other] == pred &&
                    std::equal(a, a + arity, terms_.data() + term_begin_[g]);
      }
      if (!duplicate) kept_[atom_begin_[d] + kept++] = local;
      ++g;
    }
    for (const Term& term : cq.head()) {
      const std::uint32_t v = term.is_variable()
                                  ? FindName(var_names.data(), vars, term.name())
                                  : vars;
      if (v == vars) return cq.Validate();  // constant or unsafe head term
      head_[h++] = v;
    }
    num_vars_[d] = vars;
    kept_count_[d] = kept;
    had_duplicates_[d] = kept != cq.atoms().size() ? 1 : 0;
  }
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

bool SmallUcq::Contained(std::size_t d, std::size_t e) {
  const View target = ViewOf(d);
  const View source = ViewOf(e);
  Search search(*this, source, target);
  search.AllowAll();
  search.Unbind();
  for (std::uint32_t j = 0; j < source.head_size; ++j) {
    if (!search.Pin(source.head[j], target.head[j])) return false;
  }
  return search.Run();
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
