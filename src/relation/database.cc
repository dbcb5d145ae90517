#include "relation/database.h"

#include <algorithm>
#include <cstring>

namespace cqbounds {

namespace {

/// Spellings of at most this many bytes are their own key.
constexpr std::size_t kInlineBytes = 7;
constexpr std::uint64_t kLow56 = (std::uint64_t{1} << 56) - 1;

/// A multiply-xorshift hash over 8-byte words, for spellings longer than
/// kInlineBytes; the last word overlaps the one before it.
std::uint64_t HashBytes(std::string_view s) {
  const auto mix = [](std::uint64_t h, const char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
  };
  std::uint64_t h = s.size();
  std::size_t i = 0;
  for (; i + 8 < s.size(); i += 8) h = mix(h, s.data() + i);
  return mix(h, s.data() + s.size() - 8);
}

/// The packed key: the length (saturated at 255) in the top byte, and below
/// it the spelling's bytes when it has at most kInlineBytes of them, else
/// HashBytes with its top byte cleared. Inline keys are equal only for equal
/// spellings.
std::uint64_t PackKey(std::string_view s) {
  std::uint64_t low = 0;
  if (s.size() > kInlineBytes) {
    low = HashBytes(s) & kLow56;
  } else if (!s.empty()) {
    std::memcpy(&low, s.data(), s.size());
  }
  return low | (std::min<std::uint64_t>(s.size(), 255) << 56);
}

}  // namespace

Value ValuePool::Intern(std::string_view spelling) {
  const std::uint64_t key = PackKey(spelling);
  const bool inline_key = spelling.size() <= kInlineBytes;
  const std::uint32_t id = index_.Intern(
      keys_.size(), FibonacciHash(key),
      [this, key, inline_key, spelling](std::uint32_t i) {
        return keys_[i] == key && (inline_key || View(i) == spelling);
      },
      [this](std::size_t i) { return FibonacciHash(keys_[i]); });
  if (id == keys_.size()) {
    CQB_CHECK(HasRoom(spelling.size()));
    arena_.append(spelling);
    offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
    keys_.push_back(key);
  }
  return static_cast<Value>(id);
}

std::string ValuePool::Spelling(Value id) const {
  if (id < 0 || id >= static_cast<Value>(size())) {
    return "?" + std::to_string(id);
  }
  return std::string(View(static_cast<std::size_t>(id)));
}

std::string_view ValuePool::SpellingView(Value id) const {
  CQB_CHECK(id >= 0 && id < static_cast<Value>(size()));
  return View(static_cast<std::size_t>(id));
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
