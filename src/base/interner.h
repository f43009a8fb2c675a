#ifndef QCONT_BASE_INTERNER_H_
#define QCONT_BASE_INTERNER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

namespace qcont {

/// Dense integer id handed out by an Interner. Ids are consecutive from 0 so
/// they can index vectors directly.
using SymbolId = std::uint32_t;

/// Maps strings to dense ids and back. Used for relation names, variable
/// names and alphabet symbols so the rest of the library works on integers.
///
/// Thread safety: all members may be called concurrently. `Intern` takes an
/// exclusive lock only when the name is new (double-checked under a shared
/// lock first), `Find`/`NameOf`/`size` take a shared lock. Names live in a
/// deque, so the reference returned by `NameOf` stays valid for the
/// interner's lifetime even while other threads intern new names. This is
/// what lets a long-running server share one value pool across concurrently
/// processed requests (DESIGN.md §15); id assignment then depends on
/// request interleaving, but each Database's own ids stay internally
/// consistent and all externally visible artifacts are strings.
///
/// Moving is allowed (engine-internal interners live in movable state
/// structs) but is NOT thread-safe: never move an interner other threads
/// may be touching. The moved-from interner is left valid and empty (it
/// keeps a live mutex), so accidental use degrades to an empty interner
/// instead of a null-mutex dereference.
class Interner {
 public:
  Interner() : mu_(std::make_unique<std::shared_mutex>()) {}
  Interner(Interner&& other)
      : mu_(std::make_unique<std::shared_mutex>()),
        ids_(std::move(other.ids_)),
        names_(std::move(other.names_)) {
    mu_.swap(other.mu_);  // take the old mutex, leave the fresh one behind
    other.ids_.clear();
    other.names_.clear();
  }
  Interner& operator=(Interner&& other) {
    if (this != &other) {
      mu_.swap(other.mu_);  // both stay non-null
      ids_ = std::move(other.ids_);
      names_ = std::move(other.names_);
      other.ids_.clear();
      other.names_.clear();
    }
    return *this;
  }

  /// Returns the id of `name`, creating one if it is new.
  SymbolId Intern(std::string_view name);

  /// Interns `names[i]` into `out[i]` for every i: the ids a loop of
  /// `Intern` calls in that order would return, so new names get ids in
  /// first-occurrence order. Takes the shared lock once and the exclusive
  /// lock at most once.
  void InternAll(std::span<const std::string_view> names, SymbolId* out);

  /// Returns the id of `name`, or `kMissing` if never interned.
  static constexpr SymbolId kMissing = static_cast<SymbolId>(-1);
  SymbolId Find(std::string_view name) const;

  /// Name for an id handed out by this interner. The reference is stable
  /// for the interner's lifetime.
  const std::string& NameOf(SymbolId id) const;

  /// `out[i] = &NameOf(ids[i])` for every i, under one shared lock.
  void NamesOf(std::span<const SymbolId> ids, const std::string** out) const;

  std::size_t size() const;

 private:
  // Behind a pointer so the interner itself stays movable.
  // Intern's insert half; the caller holds the exclusive lock.
  SymbolId InternLocked(std::string_view name);

  // Looks names up as views, so no probe builds a string.
  struct ViewHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  mutable std::unique_ptr<std::shared_mutex> mu_;
  std::unordered_map<std::string, SymbolId, ViewHash, std::equal_to<>> ids_;
  std::deque<std::string> names_;  // deque: stable refs under growth
};

}  // namespace qcont

#endif  // QCONT_BASE_INTERNER_H_
