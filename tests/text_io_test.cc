#include <gtest/gtest.h>

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
  // ReadDatabaseText slurps its stream in chunks: an input several chunks
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

}  // namespace
}  // namespace cqbounds
