#ifndef CQBOUNDS_RELATION_TEXT_IO_H_
#define CQBOUNDS_RELATION_TEXT_IO_H_

#include <iosfwd>
#include <string>

#include "relation/database.h"
#include "util/status.h"

namespace cqbounds {

/// Plain-text database format, for shipping example instances and for the
/// worst_case_db CLI's output to be re-loadable:
///
///   # comment
///   relation R 3         # declares R with arity 3
///   R a b c              # one tuple (values are whitespace-separated
///   R a b d              #  tokens, interned via the database's pool)
///   relation S 1
///   S x
///
/// Values that parse as plain integers are interned as their spelling, so
/// round-trips preserve identity (equality of tokens == equality of
/// values).
///
/// Value tokens are percent-encoded: a spelling containing whitespace, '#',
/// '%' or control characters is written with those bytes as %XX escapes (an
/// empty spelling is the bare token "%"), and the reader decodes them back,
/// so *every* interned spelling round-trips byte-exact. Ordinary spellings
/// contain none of those bytes and are written verbatim, so existing files
/// are unaffected; a stray '%' in a hand-written file that is not a valid
/// escape is a kParseError rather than a silent guess.
Status ReadDatabaseText(std::istream& in, Database* db);
Status ReadDatabaseTextFromString(const std::string& text, Database* db);

/// Writes `db` in the same format (relations sorted by name, tuples in
/// insertion order, values spelled via the pool, hostile spellings
/// percent-encoded as above). Errors with kFailedPrecondition -- instead of
/// emitting a file that reads back as different data -- when a tuple holds
/// a value id never interned in the database's pool (previously rendered as
/// the "?<id>" fallback spelling) or when a relation *name* cannot be
/// represented: names appear unescaped in the format, so an empty name, the
/// literal name "relation", or a name containing whitespace/'#'/'%'/control
/// characters is unwritable. Each relation reaches `out` in one write once
/// it has rendered completely; relations written before the error is
/// detected are left in `out` (callers writing to a file should write to a
/// string first).
Status WriteDatabaseText(const Database& db, std::ostream& out);
Result<std::string> WriteDatabaseTextToString(const Database& db);

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_TEXT_IO_H_
