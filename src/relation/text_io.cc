#include "relation/text_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <sstream>
#include <string_view>
#include <vector>

namespace cqbounds {

namespace {

/// Bytes that would corrupt the line-oriented format if written verbatim
/// inside a token: the tokenizer's separators (whitespace), the comment
/// introducer, the escape character itself, and control characters (which
/// survive a write but make the file hostile to every other tool). A fixed
/// table -- {0x00-0x20, '#', '%', 0x7F}, the C locale's isspace and
/// iscntrl bytes plus two -- so the bytes written never follow the process
/// locale.
constexpr std::array<bool, 256> kEscaped = [] {
  std::array<bool, 256> escaped{};
  for (int c = 0; c <= 0x20; ++c) escaped[static_cast<std::size_t>(c)] = true;
  escaped['#'] = escaped['%'] = escaped[0x7F] = true;
  return escaped;
}();

bool NeedsEscape(char c) { return kEscaped[static_cast<unsigned char>(c)]; }

/// Appends `spelling` to `out` as one whitespace-delimited token:
/// unsafe bytes become %XX (uppercase hex), and the empty spelling -- which
/// would otherwise vanish between separators -- becomes the bare token "%".
/// Safe spellings pass through unchanged, so files of ordinary integer
/// values look exactly as before.
void AppendToken(std::string_view spelling, std::string* out) {
  if (spelling.empty()) {
    *out += '%';
    return;
  }
  if (std::none_of(spelling.begin(), spelling.end(), NeedsEscape)) {
    out->append(spelling);
    return;
  }
  static const char kHex[] = "0123456789ABCDEF";
  for (char c : spelling) {
    if (NeedsEscape(c)) {
      const unsigned char u = static_cast<unsigned char>(c);
      *out += '%';
      *out += kHex[u >> 4];
      *out += kHex[u & 0xF];
    } else {
      *out += c;
    }
  }
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Inverse of AppendToken over a buffer slice. Escape-free tokens -- the
/// overwhelmingly common case for ordinary integer values -- come back as
/// the slice itself, with no copy; only a token holding a '%' decodes, into
/// the caller's reused scratch string (the reader parses 10^5+ tokens; a
/// fresh std::string per token would dominate the parse). A malformed
/// escape (stray '%' not followed by two hex digits) is a parse error, not
/// silently passed through -- a file containing one was not produced by
/// WriteDatabaseText and guessing at its intent would corrupt the value
/// space silently.
Status DecodeToken(const char* tok, const char* end, int line_number,
                   std::string* scratch, std::string_view* out) {
  const std::size_t len = static_cast<std::size_t>(end - tok);
  if (len == 1 && *tok == '%') {
    *out = std::string_view();
    return Status::OK();
  }
  if (std::memchr(tok, '%', len) == nullptr) {
    *out = std::string_view(tok, len);
    return Status::OK();
  }
  scratch->clear();
  for (const char* c = tok; c < end; ++c) {
    if (*c != '%') {
      *scratch += *c;
      continue;
    }
    if (c + 2 >= end) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": truncated %XX escape in token '" +
                                std::string(tok, end) + "'");
    }
    const int hi = HexDigit(c[1]);
    const int lo = HexDigit(c[2]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": invalid %XX escape in token '" +
                                std::string(tok, end) + "'");
    }
    *scratch += static_cast<char>((hi << 4) | lo);
    c += 2;
  }
  *out = *scratch;
  return Status::OK();
}

/// Relation names are schema identifiers, not data: they appear unescaped
/// in both the declaration line and every tuple line, so a name the
/// tokenizer would split (whitespace), comment away ('#'), mis-decode
/// ('%'), drop (empty) or mistake for the declaration keyword cannot be
/// represented in the format at all. Rejecting it at write time turns a
/// silent corrupt-on-write into a recoverable error.
Status CheckWritableRelationName(const std::string& name) {
  if (name.empty()) {
    return Status::FailedPrecondition(
        "cannot write relation with empty name");
  }
  if (name == "relation") {
    return Status::FailedPrecondition(
        "cannot write relation named 'relation' (the declaration keyword)");
  }
  for (char c : name) {
    if (NeedsEscape(c)) {
      return Status::FailedPrecondition(
          "cannot write relation name '" + name +
          "': contains whitespace, '#', '%' or control characters");
    }
  }
  return Status::OK();
}

/// The reader proper, over the whole input in one flat buffer. Tokenized
/// in place with pointer scans -- no per-line stream extraction and no
/// per-token string construction: escape-free tokens intern straight from
/// their buffer slice. Tuple lines are parsed into per-relation buffers of
/// u32 pool ids (row-major, one vector per relation) and flushed in one
/// InsertDense batch per relation at end of input -- a single dedup pass
/// over the appended block, and a pool id -> code table instead of a
/// dictionary probe per value. Arity, escape and capacity errors carry
/// their line numbers (checked during the parse); on error nothing is
/// flushed.
Status ParseDatabaseText(std::string_view buf, Database* db) {
  struct PendingRows {
    Relation* rel = nullptr;
    std::vector<std::uint32_t> ids;
    std::size_t rows = 0;
  };
  // In first-tuple-seen relation order. Files declare a handful of
  // relations, so a linear scan finds a relation's slot.
  std::vector<PendingRows> pending;
  ValuePool* pool = db->value_pool();

  const char* p = buf.data();
  const char* const buf_end = p + buf.size();
  int line_number = 0;
  std::string scratch;
  // Tuple files cluster lines by relation, so one cached (name -> pending
  // slot) pair short-circuits nearly every relation lookup. An index, not a
  // pointer: pending reallocates as new relations appear.
  std::string last_name;
  std::size_t last_slot = static_cast<std::size_t>(-1);

  // '\n' terminates the line itself and cannot appear here.
  const auto is_sep = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  };

  while (p < buf_end) {
    ++line_number;
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(buf_end - p)));
    const char* const next_line = (nl != nullptr) ? nl + 1 : buf_end;
    const char* line_end = (nl != nullptr) ? nl : buf_end;
    const char* hash = static_cast<const char*>(
        std::memchr(p, '#', static_cast<std::size_t>(line_end - p)));
    if (hash != nullptr) line_end = hash;  // comment runs to end of line

    const auto next_token = [&]() {
      while (p < line_end && is_sep(*p)) ++p;
      const char* tok = p;
      while (p < line_end && !is_sep(*p)) ++p;
      return std::pair<const char*, const char*>(tok, p);
    };

    const auto [first, first_end] = next_token();
    if (first == first_end) {  // blank (or comment-only) line
      p = next_line;
      continue;
    }
    const std::size_t first_len = static_cast<std::size_t>(first_end - first);

    if (first_len == 8 && std::memcmp(first, "relation", 8) == 0) {
      const auto [name, name_end] = next_token();
      const auto [ar, ar_end] = next_token();
      int arity = -1;
      const auto parsed = std::from_chars(ar, ar_end, arity);
      if (name == name_end || ar == ar_end || parsed.ec != std::errc() ||
          parsed.ptr != ar_end || arity < 0 || arity > Relation::kMaxArity) {
        return Status::ParseError(
            "line " + std::to_string(line_number) +
            ": expected 'relation NAME ARITY', ARITY at most " +
            std::to_string(Relation::kMaxArity));
      }
      scratch.assign(name, static_cast<std::size_t>(name_end - name));
      if (db->AddRelation(scratch, arity) == nullptr) {
        return Status::ParseError("line " + std::to_string(line_number) +
                                  ": relation '" + scratch +
                                  "' re-declared with different arity");
      }
      p = next_line;
      continue;
    }

    std::size_t slot;
    if (last_slot != static_cast<std::size_t>(-1) &&
        last_name.size() == first_len &&
        std::memcmp(last_name.data(), first, first_len) == 0) {
      slot = last_slot;
    } else {
      scratch.assign(first, first_len);
      Relation* rel = db->FindMutable(scratch);
      if (rel == nullptr) {
        return Status::ParseError("line " + std::to_string(line_number) +
                                  ": tuple for undeclared relation '" +
                                  scratch + "'");
      }
      slot = 0;
      while (slot < pending.size() && pending[slot].rel != rel) ++slot;
      if (slot == pending.size()) {
        pending.emplace_back();
        pending.back().rel = rel;
      }
      last_name.assign(first, first_len);
      last_slot = slot;
    }
    PendingRows& rows = pending[slot];

    std::size_t width = 0;
    for (;;) {
      const auto [tok, tok_end] = next_token();
      if (tok == tok_end) break;
      std::string_view spelling;
      CQB_RETURN_NOT_OK(
          DecodeToken(tok, tok_end, line_number, &scratch, &spelling));
      // A full pool would abort in Intern; untrusted input gets a Status.
      if (pool->full()) {
        return Status::ResourceExhausted(
            "line " + std::to_string(line_number) +
            ": value pool is full (" +
            std::to_string(ValuePool::kMaxSpellings) + " spellings)");
      }
      rows.ids.push_back(static_cast<std::uint32_t>(pool->Intern(spelling)));
      ++width;
    }
    if (static_cast<int>(width) != rows.rel->arity()) {
      return Status::ParseError(
          "line " + std::to_string(line_number) + ": tuple of arity " +
          std::to_string(width) + " for relation '" + rows.rel->name() +
          "' of arity " + std::to_string(rows.rel->arity()));
    }
    ++rows.rows;
    p = next_line;
  }
  for (PendingRows& rows : pending) {
    rows.rel->InsertDense(rows.ids, rows.rows, pool->size());
  }
  return Status::OK();
}

}  // namespace

Status ReadDatabaseText(std::istream& in, Database* db) {
  // Slurp the stream straight from its buffer. A file or string stream
  // reports what is left (in_avail), so the buffer is sized once and read
  // in one go; anything past that comes in 64 KiB chunks.
  using Traits = std::streambuf::traits_type;
  constexpr std::streamsize kChunk = 1 << 16;
  std::string buf;
  if (std::streambuf* const sb = in.rdbuf()) {
    std::streamsize want = std::max(sb->in_avail(), kChunk);
    for (;;) {
      const std::size_t used = buf.size();
      buf.resize(used + static_cast<std::size_t>(want));
      const std::streamsize got = sb->sgetn(buf.data() + used, want);
      buf.resize(used + static_cast<std::size_t>(got));
      if (got < want || Traits::eq_int_type(sb->sgetc(), Traits::eof())) {
        break;
      }
      want = kChunk;
    }
  }
  return ParseDatabaseText(buf, db);
}

Status ReadDatabaseTextFromString(const std::string& text, Database* db) {
  return ParseDatabaseText(text, db);
}

Status WriteDatabaseText(const Database& db, std::ostream& out) {
  const ValuePool& pool = db.value_pool();
  const Value pool_size = static_cast<Value>(pool.size());
  // Each relation renders into this one reused buffer and leaves in a
  // single write.
  std::string text;
  for (const auto& [name, rel] : db.relations()) {
    CQB_RETURN_NOT_OK(CheckWritableRelationName(name));
    text.clear();
    text += "relation ";
    text += name;
    text += ' ';
    text += std::to_string(rel.arity());
    text += '\n';
    const ColumnStore& store = rel.store();
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row)) continue;
      text += name;
      for (int c = 0; c < rel.arity(); ++c) {
        const Value v = store.ValueAt(row, c);
        if (v < 0 || v >= pool_size) {
          // Spelling() would render the "?<id>" fallback, which reads back
          // as a *different* value -- the silent round-trip corruption this
          // error replaces.
          return Status::FailedPrecondition(
              "relation '" + name + "' holds value id " + std::to_string(v) +
              " that was never interned in the database's pool");
        }
        text += ' ';
        AppendToken(pool.SpellingView(v), &text);
      }
      text += '\n';
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  return Status::OK();
}

Result<std::string> WriteDatabaseTextToString(const Database& db) {
  std::ostringstream out;
  CQB_RETURN_NOT_OK(WriteDatabaseText(db, out));
  return out.str();
}

}  // namespace cqbounds
