#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "relation/evaluate.h"
#include "relation/text_io.h"

namespace cqbounds {
namespace {

TEST(TextIoTest, ParseBasicDatabase) {
  Database db;
  Status status = ReadDatabaseTextFromString(
      "# a comment\n"
      "relation R 2\n"
      "R a b\n"
      "R a c   # trailing comment\n"
      "\n"
      "relation S 1\n"
      "S a\n",
      &db);
  ASSERT_TRUE(status.ok()) << status;
  const Relation* r = db.Find("R");
  const Relation* s = db.Find("S");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(s->size(), 1u);
  // "a" means the same value in both relations.
  EXPECT_EQ(r->tuples()[0][0], s->tuples()[0][0]);
}

TEST(TextIoTest, Errors) {
  Database db;
  EXPECT_EQ(ReadDatabaseTextFromString("relation R\n", &db).code(),
            StatusCode::kParseError);
  EXPECT_EQ(ReadDatabaseTextFromString("R a b\n", &db).code(),
            StatusCode::kParseError);  // undeclared
  Database db2;
  EXPECT_EQ(ReadDatabaseTextFromString(
                "relation R 2\nR a\n", &db2).code(),
            StatusCode::kParseError);  // arity mismatch
  Database db3;
  EXPECT_EQ(ReadDatabaseTextFromString(
                "relation R 2\nrelation R 3\n", &db3).code(),
            StatusCode::kParseError);  // re-declared
  // An arity past Relation::kMaxArity is refused before any store is sized
  // by it; the error names the line.
  Database db4;
  const Status wide =
      ReadDatabaseTextFromString("relation E 2\nrelation R 2000000000\n", &db4);
  EXPECT_EQ(wide.code(), StatusCode::kParseError);
  EXPECT_NE(wide.message().find("line 2"), std::string::npos) << wide;
  EXPECT_EQ(db4.Find("R"), nullptr);
  Database db5;
  EXPECT_TRUE(ReadDatabaseTextFromString(
                  "relation R " + std::to_string(Relation::kMaxArity) + "\n",
                  &db5)
                  .ok());
}

TEST(TextIoTest, RoundTrip) {
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(
                  "relation E 2\nE 1 2\nE 2 3\nE 3 1\n", &db)
                  .ok());
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  auto rendered_again = WriteDatabaseTextToString(again);
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status();
  EXPECT_EQ(*rendered_again, *rendered);
  EXPECT_EQ(again.Find("E")->size(), 3u);
}

TEST(TextIoTest, HostileSpellingsRoundTrip) {
  // Spellings containing the format's own separators and special
  // characters: whitespace (would split into two tokens), '#' (everything
  // after it is stripped as a comment), '%' (the escape character), the
  // empty string (would vanish between separators), and a spelling that
  // *looks* like an escape. All must come back byte-exact.
  const std::vector<std::string> hostile = {
      "a b",  "with\ttab", "trail#comment", "50%", "%41", "", "new\nline",
  };
  Database db;
  Relation* r = db.AddRelation("R", 2);
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    r->Insert({db.value_pool()->Intern(hostile[i]),
               db.value_pool()->Intern("plain" + std::to_string(i))});
  }
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();

  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  const Relation* rr = again.Find("R");
  ASSERT_NE(rr, nullptr);
  ASSERT_EQ(rr->size(), hostile.size());
  // Every hostile spelling must exist in the reloaded pool with identical
  // bytes, paired with its original partner.
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const Tuple t = rr->store().Row(i);
    EXPECT_EQ(again.value_pool()->Spelling(t[0]), hostile[i]) << i;
    EXPECT_EQ(again.value_pool()->Spelling(t[1]), "plain" + std::to_string(i));
  }
  // And a second render is byte-identical (the escaping is canonical).
  auto rendered_again = WriteDatabaseTextToString(again);
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status();
  EXPECT_EQ(*rendered_again, *rendered);
}

TEST(TextIoTest, WriterBytesMatchFixedExpectation) {
  // The exact bytes: relations sorted by name, tuples in insertion order,
  // unsafe bytes as uppercase %XX, the empty spelling as the bare "%", and
  // safe spellings verbatim.
  Database db;
  ValuePool* pool = db.value_pool();
  Relation* s = db.AddRelation("S", 1);
  Relation* r = db.AddRelation("R", 2);
  r->Insert({pool->Intern("a b"), pool->Intern("")});
  r->Insert({pool->Intern("50%"), pool->Intern("plain")});
  s->Insert({pool->Intern("x#y")});
  s->Insert({pool->Intern(std::string("\x01\x7f", 2))});
  s->Insert({pool->Intern("-17")});
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_EQ(*rendered,
            "relation R 2\n"
            "R a%20b %\n"
            "R 50%25 plain\n"
            "relation S 1\n"
            "S x%23y\n"
            "S %01%7F\n"
            "S -17\n");
}

TEST(TextIoTest, StreamReadSpansManyChunksWithLineNumbers) {
  // ReadDatabaseText reads a stream in one sized read when the stream says
  // how much is left, else in chunks: either way an input several chunks
  // long must load exactly as the same text handed over as a string, and
  // an error past the first chunk still names its line.
  std::string text = "relation E 2\n";
  constexpr int kRows = 40000;  // ~0.5 MB of text
  for (int i = 0; i < kRows; ++i) {
    text += "E v" + std::to_string(i) + " v" + std::to_string(i % 97) + "\n";
  }
  Database from_string;
  ASSERT_TRUE(ReadDatabaseTextFromString(text, &from_string).ok());
  std::istringstream in(text);
  Database from_stream;
  ASSERT_TRUE(ReadDatabaseText(in, &from_stream).ok());
  EXPECT_EQ(from_stream.Find("E")->size(), static_cast<std::size_t>(kRows));
  auto a = WriteDatabaseTextToString(from_string);
  auto b = WriteDatabaseTextToString(from_stream);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  std::istringstream bad(text + "E lonely\n");
  Database rejected;
  const Status status = ReadDatabaseText(bad, &rejected);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line " + std::to_string(kRows + 2) + ":"),
            std::string::npos)
      << status;
  // Nothing is flushed on error.
  EXPECT_EQ(rejected.Find("E")->size(), 0u);

  // A stream that cannot say how much is left (a pipe, say) is read in
  // chunks: this one hands out 1000 bytes per refill and reports nothing
  // ahead.
  struct Trickle : std::streambuf {
    explicit Trickle(const std::string& s) : text(s) {}
    int_type underflow() override {
      if (next == text.size()) return traits_type::eof();
      char* begin = const_cast<char*>(text.data()) + next;
      const std::size_t n = std::min<std::size_t>(1000, text.size() - next);
      next += n;
      setg(begin, begin, begin + n);
      return traits_type::to_int_type(*begin);
    }
    const std::string& text;
    std::size_t next = 0;
  } trickle(text);
  std::istream piped(&trickle);
  Database from_pipe;
  ASSERT_TRUE(ReadDatabaseText(piped, &from_pipe).ok());
  auto c = WriteDatabaseTextToString(from_pipe);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *c);

  // A stream without a buffer reads as empty input.
  std::istream no_buffer(nullptr);
  Database empty;
  EXPECT_TRUE(ReadDatabaseText(no_buffer, &empty).ok());
  EXPECT_TRUE(empty.relations().empty());
}

TEST(TextIoTest, WriteRejectsUninternedValueIds) {
  Database db;
  Relation* r = db.AddRelation("R", 1);
  // A value id minted outside the database's pool: Spelling() would render
  // the "?<id>" fallback, which reads back as a different value.
  r->Insert({Value{42}});
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_FALSE(rendered.ok());
  EXPECT_EQ(rendered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TextIoTest, WriteRejectsUnrepresentableRelationNames) {
  // Relation names appear unescaped in the format, so these can never be
  // read back as written: whitespace splits the token, '#' comments out
  // the rest of the line, and "relation" is the declaration keyword.
  for (const std::string& name :
       {std::string("has space"), std::string("has#hash"), std::string(""),
        std::string("relation")}) {
    Database db;
    db.AddRelation(name, 1);
    auto rendered = WriteDatabaseTextToString(db);
    ASSERT_FALSE(rendered.ok()) << "name '" << name << "' accepted";
    EXPECT_EQ(rendered.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(TextIoTest, ReadRejectsMalformedEscapes) {
  for (const std::string& text :
       {std::string("relation R 1\nR %4\n"),     // truncated escape
        std::string("relation R 1\nR %zz\n"),    // non-hex digits
        std::string("relation R 1\nR a%\n")}) {  // trailing stray '%'
    Database db;
    EXPECT_EQ(ReadDatabaseTextFromString(text, &db).code(),
              StatusCode::kParseError)
        << text;
  }
}

TEST(TextIoTest, BulkRoundTripAtAHundredThousandTuples) {
  // The streamed-ingestion fast path at scale: 10^5 tuples across two
  // relations render, re-read through the whole-file tokenizer (one
  // InsertFlat per relation), and come back byte-exact -- same live
  // cardinalities, identical second render. Duplicate source lines and a
  // hostile spelling ride along so the dedup and escape paths are
  // exercised inside the bulk batch, not just in the small tests above.
  constexpr int kRows = 50000;  // per relation
  std::ostringstream text;
  text << "relation E 2\nrelation F 2\n";
  for (int i = 0; i < kRows; ++i) {
    text << "E v" << i << " v" << (i + 1) << "\n";
    text << "F v" << (i % 1000) << " w" << i << "\n";
  }
  text << "E v0 v1\n";        // duplicate: set semantics absorb it
  text << "F %20 plain\n";    // escaped spelling (" ") in the bulk batch
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(text.str(), &db).ok());
  const Relation* e = db.Find("E");
  const Relation* f = db.Find("F");
  ASSERT_NE(e, nullptr);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(e->size(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(f->size(), static_cast<std::size_t>(kRows) + 1);
  EXPECT_TRUE(f->Contains({db.value_pool()->Intern(" "),
                           db.value_pool()->Intern("plain")}));

  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  EXPECT_EQ(again.Find("E")->size(), e->size());
  EXPECT_EQ(again.Find("F")->size(), f->size());
  auto rendered_again = WriteDatabaseTextToString(again);
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status();
  EXPECT_EQ(*rendered_again, *rendered);
}

TEST(TextIoTest, LoadedDatabaseIsQueryable) {
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(
                  "relation E 2\n"
                  "E a b\nE b c\nE c a\n"   // a triangle
                  "E c d\n",
                  &db)
                  .ok());
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kJoinProject);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // the triangle in its 3 rotations
}

TEST(TextIoTest, ZeroArityRelation) {
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString("relation Nil 0\nNil\n", &db).ok());
  EXPECT_EQ(db.Find("Nil")->size(), 1u);  // the empty tuple
}

TEST(TextIoTest, EveryByteRoundTripsAndExactlyTheFixedSetIsEscaped) {
  // The escaped set is {0x00-0x20, '#', '%', 0x7F} whatever the locale;
  // every other byte is written as itself.
  Database db;
  Relation* r = db.AddRelation("R", 1);
  for (int b = 0; b < 256; ++b) {
    r->Insert({db.value_pool()->Intern(std::string(1, static_cast<char>(b)))});
  }
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  std::string expected = "relation R 1\n";
  for (int b = 0; b < 256; ++b) {
    const bool escaped = b <= 0x20 || b == '#' || b == '%' || b == 0x7F;
    static const char kHex[] = "0123456789ABCDEF";
    expected += "R ";
    if (escaped) {
      expected += {'%', kHex[b >> 4], kHex[b & 0xF]};
    } else {
      expected += static_cast<char>(b);
    }
    expected += '\n';
  }
  EXPECT_EQ(*rendered, expected);

  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  const Relation* back = again.Find("R");
  ASSERT_EQ(back->size(), 256u);
  for (std::size_t row = 0; row < 256; ++row) {
    EXPECT_EQ(again.value_pool()->Spelling(back->store().ValueAt(row, 0)),
              std::string(1, static_cast<char>(row)))
        << row;
  }
}

TEST(TextIoTest, ZeroSpellingsThatPackAlikeReadAsDistinctValues) {
  // "0", "00", "0" with a trailing NUL and the empty spelling read as four
  // values, with pool ids in first-seen order.
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(
                  "relation R 1\nR 0\nR 00\nR 0%00\nR %\nR 0\nR %\n", &db)
                  .ok());
  const Relation* r = db.Find("R");
  ASSERT_EQ(r->size(), 4u);
  const std::vector<std::string> spellings = {"0", "00", std::string("0\0", 2),
                                              ""};
  for (std::size_t row = 0; row < 4; ++row) {
    EXPECT_EQ(r->store().ValueAt(row, 0), static_cast<Value>(row));
    EXPECT_EQ(db.value_pool()->Spelling(static_cast<Value>(row)),
              spellings[row]);
  }
  EXPECT_EQ(db.value_pool()->Spelling(4), "?4");
}

/// The store state a load must reproduce: dictionary (code -> value), rows
/// in order with their codes and liveness, and the generation.
void ExpectSameStore(const Relation& got, const Relation& want) {
  const ColumnStore& a = got.store();
  const ColumnStore& b = want.store();
  ASSERT_EQ(a.dict().size(), b.dict().size()) << got.name();
  for (std::uint32_t code = 0; code < a.dict().size(); ++code) {
    EXPECT_EQ(a.dict().ValueOf(code), b.dict().ValueOf(code)) << code;
  }
  ASSERT_EQ(a.size(), b.size()) << got.name();
  for (std::size_t row = 0; row < a.size(); ++row) {
    EXPECT_EQ(a.IsLive(row), b.IsLive(row)) << row;
    for (int col = 0; col < a.arity(); ++col) {
      EXPECT_EQ(a.CodeAt(row, col), b.CodeAt(row, col)) << row << "," << col;
    }
  }
  EXPECT_EQ(got.generation(), want.generation()) << got.name();
  EXPECT_EQ(a.dict().CodeOf(-1), ValueDictionary::kNoCode);
  for (std::uint32_t code = 0; code < a.dict().size(); ++code) {
    EXPECT_EQ(a.dict().CodeOf(a.dict().ValueOf(code)), code) << code;
  }
}

/// Loads `text` into `*loaded` through the reader, and into `*reference`
/// by hand: each token interned in the pool in file order, then one
/// InsertFlat of the pool ids per relation, relations in first-tuple order.
/// The text holds no escapes and no comments.
void LoadBothWays(const std::string& text, Database* loaded,
                  Database* reference) {
  ASSERT_TRUE(ReadDatabaseTextFromString(text, loaded).ok());
  std::vector<std::pair<Relation*, std::vector<Value>>> pending;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string name, token;
    tokens >> name;
    if (name == "relation") {
      int arity = 0;
      tokens >> name >> arity;
      ASSERT_NE(reference->AddRelation(name, arity), nullptr);
      continue;
    }
    Relation* rel = reference->FindMutable(name);
    auto it = std::find_if(pending.begin(), pending.end(),
                           [rel](const auto& p) { return p.first == rel; });
    if (it == pending.end()) it = pending.insert(pending.end(), {rel, {}});
    while (tokens >> token) {
      it->second.push_back(reference->value_pool()->Intern(token));
    }
  }
  for (auto& [rel, flat] : pending) {
    rel->InsertFlat(flat, flat.size() / static_cast<std::size_t>(rel->arity()));
  }
  ASSERT_EQ(loaded->value_pool()->size(), reference->value_pool()->size());
}

TEST(TextIoTest, DenseDoorMintsWhatInsertFlatMints) {
  // Three interleaved relations sharing values, with repeats inside a row,
  // repeated rows and a value first seen in another relation.
  const std::string text =
      "relation R 2\nrelation S 3\nrelation T 1\n"
      "S 5 6 5\nR 1 2\nR 2 1\nS 5 6 5\nR 1 2\nT 9\nR 6 6\n"
      "S 1 9 7\nT 5\nR 3 1\nT 9\nS 7 7 7\n";
  Database loaded, reference;
  LoadBothWays(text, &loaded, &reference);
  for (const char* name : {"R", "S", "T"}) {
    ExpectSameStore(*loaded.Find(name), *reference.Find(name));
  }
  EXPECT_EQ(loaded.Find("R")->size(), 4u);
  EXPECT_EQ(loaded.Find("S")->size(), 3u);
}

TEST(TextIoTest, DenseDoorIntoARelationThatHoldsRows) {
  // Both databases start alike: pool spellings, rows over pool ids and
  // over values no pool id equals, and a removed row whose values stay in
  // the dictionary. The load must then mint as InsertFlat does.
  const auto prepare = [](Database* db) {
    ValuePool* pool = db->value_pool();
    Relation* r = db->AddRelation("R", 2);
    const Value a = pool->Intern("a");
    const Value b = pool->Intern("b");
    const Value c = pool->Intern("c");
    r->InsertFlat({b, -7, 1000000, a, c, c}, 3);
    ASSERT_TRUE(r->Remove({c, c}));
    pool->Intern("unused");
  };
  Database loaded, reference;
  prepare(&loaded);
  prepare(&reference);
  LoadBothWays("R a b\nR c a\nR b -7\nR d a\nR c c\nR 1000000 d\n",
               &loaded, &reference);
  ExpectSameStore(*loaded.Find("R"), *reference.Find("R"));
  EXPECT_EQ(loaded.Find("R")->size(), 8u);
}

}  // namespace
}  // namespace cqbounds
