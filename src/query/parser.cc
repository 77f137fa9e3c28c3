#include "query/parser.h"

#include <cctype>
#include <sstream>
#include <string_view>

#include "util/parse.h"

namespace clftj {

namespace {

// Minimal recursive-descent tokenizer/parser over the grammar:
//   query := atom (',' atom)*
//   atom  := ident '(' term (',' term)* ')'
//   term  := ident | integer
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Query> Run(std::string* error) {
    Query q;
    SkipSpace();
    if (AtEnd()) return Fail("empty query", error);
    while (true) {
      if (!ParseAtom(&q, error)) return std::nullopt;
      SkipSpace();
      if (AtEnd()) break;
      if (!Consume(',')) return Fail("expected ',' between atoms", error);
    }
    if (!q.AllVarsCovered()) {
      return Fail("internal: uncovered variable", error);
    }
    return q;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  std::optional<Query> Fail(const std::string& msg, std::string* error) {
    if (error != nullptr) {
      std::ostringstream os;
      os << msg << " (at offset " << pos_ << ")";
      *error = os.str();
    }
    return std::nullopt;
  }

  bool ParseIdent(std::string* out) {
    SkipSpace();
    if (AtEnd()) return false;
    char c = Peek();
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
    std::string ident;
    while (!AtEnd()) {
      c = Peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ident.push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    *out = std::move(ident);
    return true;
  }

  /// Consumes a signed integer literal; false (consuming nothing) if none
  /// starts here. *in_range is false when the literal does not fit a Value.
  bool ParseInteger(Value* out, bool* in_range) {
    SkipSpace();
    std::size_t start = pos_;
    if (Peek() == '-' || Peek() == '+') ++pos_;
    std::size_t digits_start = pos_;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
    if (pos_ == digits_start) {
      pos_ = start;
      return false;
    }
    // ParseNumber takes a leading '-' but not a '+'.
    const std::size_t from = text_[start] == '+' ? digits_start : start;
    *in_range =
        ParseNumber(std::string_view(text_).substr(from, pos_ - from), out);
    return true;
  }

  bool ParseAtom(Query* q, std::string* error) {
    std::string rel;
    if (!ParseIdent(&rel)) {
      Fail("expected relation name", error);
      return false;
    }
    if (!Consume('(')) {
      Fail("expected '(' after relation name", error);
      return false;
    }
    Atom atom;
    atom.relation = std::move(rel);
    while (true) {
      std::string ident;
      Value constant = 0;
      bool in_range = true;
      if (ParseIdent(&ident)) {
        atom.terms.push_back(Term::Var(q->AddVariable(ident)));
      } else if (ParseInteger(&constant, &in_range)) {
        if (!in_range) {
          Fail("integer constant out of range", error);
          return false;
        }
        atom.terms.push_back(Term::Const(constant));
      } else {
        Fail("expected variable or integer constant", error);
        return false;
      }
      if (Consume(')')) break;
      if (!Consume(',')) {
        Fail("expected ',' or ')' in argument list", error);
        return false;
      }
    }
    if (atom.terms.empty()) {
      Fail("atom must have at least one argument", error);
      return false;
    }
    q->AddAtom(std::move(atom));
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Query> ParseQuery(const std::string& text, std::string* error) {
  Parser parser(text);
  return parser.Run(error);
}

}  // namespace clftj
