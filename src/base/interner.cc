#include "base/interner.h"

#include <mutex>

namespace qcont {

SymbolId Interner::Intern(std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(*mu_);
  return InternLocked(name);
}

SymbolId Interner::InternLocked(std::string_view name) {
  // Double-check: another thread may have interned between the locks.
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

void Interner::InternAll(std::span<const std::string_view> names,
                         SymbolId* out) {
  bool missing = false;
  {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto it = ids_.find(names[i]);
      out[i] = it != ids_.end() ? it->second : kMissing;
      missing = missing || out[i] == kMissing;
    }
  }
  if (!missing) return;
  std::unique_lock<std::shared_mutex> lock(*mu_);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (out[i] == kMissing) out[i] = InternLocked(names[i]);
  }
}

SymbolId Interner::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = ids_.find(name);
  if (it == ids_.end()) return kMissing;
  return it->second;
}

const std::string& Interner::NameOf(SymbolId id) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return names_[id];
}

void Interner::NamesOf(std::span<const SymbolId> ids,
                       const std::string** out) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  for (std::size_t i = 0; i < ids.size(); ++i) out[i] = &names_[ids[i]];
}

std::size_t Interner::size() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return names_.size();
}

}  // namespace qcont
