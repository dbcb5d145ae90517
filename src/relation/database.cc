#include "relation/database.h"

#include <functional>

namespace cqbounds {

Value ValuePool::Intern(std::string_view spelling) {
  const std::hash<std::string_view> hash;
  const std::uint32_t id = index_.Intern(
      spellings_.size(), hash(spelling),
      [this, spelling](std::uint32_t i) { return spellings_[i] == spelling; },
      [this, &hash](std::size_t i) { return hash(spellings_[i]); });
  if (id == spellings_.size()) spellings_.emplace_back(spelling);
  return static_cast<Value>(id);
}

std::string ValuePool::Spelling(Value id) const {
  if (id < 0 || id >= static_cast<Value>(spellings_.size())) {
    return "?" + std::to_string(id);
  }
  return spellings_[static_cast<std::size_t>(id)];
}

std::string_view ValuePool::SpellingView(Value id) const {
  CQB_CHECK(id >= 0 && id < static_cast<Value>(spellings_.size()));
  return spellings_[static_cast<std::size_t>(id)];
}

Relation* Database::AddRelation(const std::string& name, int arity) {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    // Arity-mismatched re-declaration: a recoverable schema conflict (the
    // caller may be loading untrusted input), not a programming error --
    // report it by returning null instead of aborting the process.
    if (it->second.arity() != arity) return nullptr;
    return &it->second;
  }
  auto [inserted, ok] = relations_.emplace(name, Relation(name, arity));
  (void)ok;
  return &inserted->second;
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindMutable(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Result<std::size_t> Database::RMax(const Query& query) const {
  std::size_t rmax = 0;
  for (const Atom& atom : query.atoms()) {
    const Relation* r = Find(atom.relation);
    if (r == nullptr) {
      return Status::NotFound("rmax: relation '" + atom.relation +
                              "' missing from database");
    }
    rmax = std::max(rmax, r->size());
  }
  return rmax;
}

std::size_t Database::MaxRelationSize() const {
  std::size_t rmax = 0;
  for (const auto& [name, rel] : relations_) {
    rmax = std::max(rmax, rel.size());
  }
  return rmax;
}

Status Database::CheckFds(const Query& query) const {
  for (const FunctionalDependency& fd : query.fds()) {
    const Relation* r = Find(fd.relation);
    if (r == nullptr) continue;  // vacuously true
    if (!r->SatisfiesFd(fd.lhs, fd.rhs)) {
      std::string positions;
      for (int p : fd.lhs) positions += std::to_string(p + 1) + " ";
      return Status::FailedPrecondition(
          "relation '" + fd.relation + "' violates FD " + positions + "-> " +
          std::to_string(fd.rhs + 1));
    }
  }
  return Status::OK();
}

}  // namespace cqbounds
