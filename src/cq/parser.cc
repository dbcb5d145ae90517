#include "cq/parser.h"

#include <cctype>
#include <charconv>
#include <vector>

namespace cqbounds {

namespace {

/// Minimal recursive-descent tokenizer/parser over the grammar in parser.h.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Query> ParseAll() {
    Query query;
    CQB_RETURN_NOT_OK(ParseRule(&query));
    SkipSpace();
    while (!AtEnd()) {
      CQB_RETURN_NOT_OK(ParseDeclaration(&query));
      SkipSpace();
    }
    CQB_RETURN_NOT_OK(query.Validate());
    return query;
  }

 private:
  bool AtEnd() { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(const std::string& token) {
    SkipSpace();
    if (text_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  Status Expect(const std::string& token) {
    if (!Consume(token)) {
      return Status::ParseError("expected '" + token + "' at offset " +
                                std::to_string(pos_) + " in query text");
    }
    return Status::OK();
  }

  Result<std::string> ParseIdentifier() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                c == '\'';
      bool first_ok = std::isalpha(static_cast<unsigned char>(c)) || c == '_';
      if (pos_ == start ? !first_ok : !ok) break;
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError("expected identifier at offset " +
                                std::to_string(pos_));
    }
    return text_.substr(start, pos_ - start);
  }

  Result<int> ParseNumber() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError("expected number at offset " +
                                std::to_string(pos_));
    }
    int value = 0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, value).ec !=
        std::errc()) {
      return Status::ParseError("number out of range at offset " +
                                std::to_string(start));
    }
    return value;
  }

  /// relation(var, var, ...) -- interning variables into `query`.
  Status ParseAtomInto(Query* query, std::string* relation,
                       std::vector<int>* vars) {
    CQB_ASSIGN_OR_RETURN(*relation, ParseIdentifier());
    CQB_RETURN_NOT_OK(Expect("("));
    vars->clear();
    if (!Consume(")")) {
      while (true) {
        std::string name;
        CQB_ASSIGN_OR_RETURN(name, ParseIdentifier());
        vars->push_back(query->InternVariable(name));
        if (Consume(")")) break;
        CQB_RETURN_NOT_OK(Expect(","));
      }
    }
    return Status::OK();
  }

  Status ParseRule(Query* query) {
    std::string relation;
    std::vector<int> vars;
    CQB_RETURN_NOT_OK(ParseAtomInto(query, &relation, &vars));
    query->SetHead(std::move(relation), std::move(vars));
    CQB_RETURN_NOT_OK(Expect(":-"));
    while (true) {
      std::string body_rel;
      std::vector<int> body_vars;
      CQB_RETURN_NOT_OK(ParseAtomInto(query, &body_rel, &body_vars));
      query->AddAtom(std::move(body_rel), std::move(body_vars));
      if (Consume(".")) break;
      CQB_RETURN_NOT_OK(Expect(","));
    }
    return Status::OK();
  }

  Result<std::vector<int>> ParsePositionList() {
    std::vector<int> positions;
    while (true) {
      int p = 0;
      CQB_ASSIGN_OR_RETURN(p, ParseNumber());
      if (p < 1) {
        return Status::ParseError("positions are 1-based; got " +
                                  std::to_string(p));
      }
      positions.push_back(p - 1);
      if (!Consume(",")) break;
    }
    return positions;
  }

  Status ParseDeclaration(Query* query) {
    if (Consume("fd")) {
      std::string relation;
      CQB_ASSIGN_OR_RETURN(relation, ParseIdentifier());
      CQB_RETURN_NOT_OK(Expect(":"));
      std::vector<int> lhs;
      CQB_ASSIGN_OR_RETURN(lhs, ParsePositionList());
      CQB_RETURN_NOT_OK(Expect("->"));
      std::vector<int> rhs;
      CQB_ASSIGN_OR_RETURN(rhs, ParsePositionList());
      CQB_RETURN_NOT_OK(Expect("."));
      for (int r : rhs) {
        query->AddFd(FunctionalDependency{relation, lhs, r});
      }
      return Status::OK();
    }
    if (Consume("key")) {
      std::string relation;
      CQB_ASSIGN_OR_RETURN(relation, ParseIdentifier());
      CQB_RETURN_NOT_OK(Expect(":"));
      std::vector<int> lhs;
      CQB_ASSIGN_OR_RETURN(lhs, ParsePositionList());
      CQB_RETURN_NOT_OK(Expect("."));
      int arity = query->RelationArity(relation);
      if (arity < 0) {
        return Status::ParseError("key on unknown relation '" + relation +
                                  "'");
      }
      for (int r = 0; r < arity; ++r) {
        bool in_lhs = false;
        for (int l : lhs) in_lhs = in_lhs || l == r;
        if (!in_lhs) query->AddFd(FunctionalDependency{relation, lhs, r});
      }
      return Status::OK();
    }
    return Status::ParseError("expected 'fd' or 'key' declaration at offset " +
                              std::to_string(pos_));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  return Parser(text).ParseAll();
}

}  // namespace cqbounds
