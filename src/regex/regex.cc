#include "src/regex/regex.h"

#include <cctype>
#include <utility>

#include "src/common/check.h"

namespace pebbletc {

bool Regex::IsNullable() const {
  switch (kind_) {
    case Kind::kEmptySet:
      return false;
    case Kind::kEpsilon:
      return true;
    case Kind::kSymbol:
      return false;
    case Kind::kConcat:
      return left_->IsNullable() && right_->IsNullable();
    case Kind::kUnion:
      return left_->IsNullable() || right_->IsNullable();
    case Kind::kStar:
      return true;
  }
  return false;
}

RegexPtr Regex::EmptySet() {
  static const RegexPtr kInstance(
      new Regex(Kind::kEmptySet, kNoSymbol, nullptr, nullptr));
  return kInstance;
}

RegexPtr Regex::Epsilon() {
  static const RegexPtr kInstance(
      new Regex(Kind::kEpsilon, kNoSymbol, nullptr, nullptr));
  return kInstance;
}

RegexPtr Regex::Symbol(SymbolId s) {
  PEBBLETC_CHECK(s != kNoSymbol) << "Regex::Symbol(kNoSymbol)";
  return RegexPtr(new Regex(Kind::kSymbol, s, nullptr, nullptr));
}

RegexPtr Regex::Concat(RegexPtr a, RegexPtr b) {
  if (a->kind() == Kind::kEmptySet || b->kind() == Kind::kEmptySet) {
    return EmptySet();
  }
  if (a->kind() == Kind::kEpsilon) return b;
  if (b->kind() == Kind::kEpsilon) return a;
  return RegexPtr(new Regex(Kind::kConcat, kNoSymbol, std::move(a), std::move(b)));
}

RegexPtr Regex::Union(RegexPtr a, RegexPtr b) {
  if (a->kind() == Kind::kEmptySet) return b;
  if (b->kind() == Kind::kEmptySet) return a;
  return RegexPtr(new Regex(Kind::kUnion, kNoSymbol, std::move(a), std::move(b)));
}

RegexPtr Regex::Star(RegexPtr a) {
  if (a->kind() == Kind::kEmptySet || a->kind() == Kind::kEpsilon) {
    return Epsilon();
  }
  if (a->kind() == Kind::kStar) return a;
  return RegexPtr(new Regex(Kind::kStar, kNoSymbol, std::move(a), nullptr));
}

RegexPtr Regex::Plus(RegexPtr a) { return Concat(a, Star(a)); }

RegexPtr Regex::Optional(RegexPtr a) { return Union(std::move(a), Epsilon()); }

RegexPtr Regex::Word(const std::vector<SymbolId>& symbols) {
  RegexPtr r = Epsilon();
  for (size_t i = symbols.size(); i-- > 0;) {
    r = Concat(Symbol(symbols[i]), std::move(r));
  }
  return r;
}

RegexPtr Regex::Reverse(const RegexPtr& r) {
  switch (r->kind()) {
    case Kind::kEmptySet:
    case Kind::kEpsilon:
    case Kind::kSymbol:
      return r;
    case Kind::kConcat:
      return Concat(Reverse(r->right()), Reverse(r->left()));
    case Kind::kUnion:
      return Union(Reverse(r->left()), Reverse(r->right()));
    case Kind::kStar:
      return Star(Reverse(r->left()));
  }
  return r;
}

namespace {

// Recursive-descent parser.
//   union  := concat ('|' concat)*
//   concat := postfix ('.' postfix)*
//   postfix := atom ('*'|'+'|'?')*
//   atom   := name | '(' ')' | '(' union ')'
class RegexParser {
 public:
  RegexParser(std::string_view text, Alphabet* mutable_alphabet,
              const Alphabet* closed_alphabet, size_t max_depth)
      : text_(text),
        mutable_alphabet_(mutable_alphabet),
        closed_alphabet_(closed_alphabet),
        max_depth_(max_depth) {}

  Result<RegexPtr> Parse() {
    PEBBLETC_ASSIGN_OR_RETURN(RegexPtr r, ParseUnion());
    SkipSpace();
    if (pos_ < text_.size()) {
      return Status::ParseError("trailing input at offset " +
                                std::to_string(pos_));
    }
    return r;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  // Checked after every operator, so a long chain or a run of '+' stops at
  // the caps instead of building an AST its walks cannot get through.
  static Status CheckAst(const Regex& r) {
    if (r.depth() > kMaxRegexAstDepth) {
      return Status::LimitExceeded("regex AST deeper than " +
                                   std::to_string(kMaxRegexAstDepth));
    }
    if (r.nodes() > kMaxRegexNodes) {
      return Status::LimitExceeded("regex AST of more than " +
                                   std::to_string(kMaxRegexNodes) + " nodes");
    }
    return Status::OK();
  }

  Result<RegexPtr> ParseUnion() {
    PEBBLETC_ASSIGN_OR_RETURN(RegexPtr r, ParseConcat());
    while (Peek() == '|') {
      ++pos_;
      PEBBLETC_ASSIGN_OR_RETURN(RegexPtr rhs, ParseConcat());
      r = Regex::Union(std::move(r), std::move(rhs));
      PEBBLETC_RETURN_IF_ERROR(CheckAst(*r));
    }
    return r;
  }

  Result<RegexPtr> ParseConcat() {
    PEBBLETC_ASSIGN_OR_RETURN(RegexPtr r, ParsePostfix());
    while (Peek() == '.') {
      ++pos_;
      PEBBLETC_ASSIGN_OR_RETURN(RegexPtr rhs, ParsePostfix());
      r = Regex::Concat(std::move(r), std::move(rhs));
      PEBBLETC_RETURN_IF_ERROR(CheckAst(*r));
    }
    return r;
  }

  Result<RegexPtr> ParsePostfix() {
    PEBBLETC_ASSIGN_OR_RETURN(RegexPtr r, ParseAtom());
    while (true) {
      char c = Peek();
      if (c == '*') {
        ++pos_;
        r = Regex::Star(std::move(r));
      } else if (c == '+') {
        ++pos_;
        r = Regex::Plus(std::move(r));
      } else if (c == '?') {
        ++pos_;
        r = Regex::Optional(std::move(r));
      } else {
        break;
      }
      PEBBLETC_RETURN_IF_ERROR(CheckAst(*r));
    }
    return r;
  }

  Result<RegexPtr> ParseAtom() {
    char c = Peek();
    if (c == '(') {
      ++pos_;
      if (Peek() == ')') {  // "()" is epsilon
        ++pos_;
        return Regex::Epsilon();
      }
      // The parser recurses once per '(' nesting level; cap it so hostile
      // inputs fail with a clean Status instead of a stack overflow.
      if (depth_ >= max_depth_) {
        return Status::LimitExceeded("regex nesting depth exceeds " +
                                     std::to_string(max_depth_));
      }
      ++depth_;
      Result<RegexPtr> inner = ParseUnion();
      --depth_;
      PEBBLETC_ASSIGN_OR_RETURN(RegexPtr r, std::move(inner));
      if (Peek() != ')') {
        return Status::ParseError("expected ')' at offset " +
                                  std::to_string(pos_));
      }
      ++pos_;
      return r;
    }
    if (c == '-') {
      ++pos_;
      return MakeSymbol("-");
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      return MakeSymbol(std::string(text_.substr(start, pos_ - start)));
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(pos_));
  }

  Result<RegexPtr> MakeSymbol(const std::string& name) {
    if (mutable_alphabet_ != nullptr) {
      return Regex::Symbol(mutable_alphabet_->Intern(name));
    }
    SymbolId id = closed_alphabet_->Find(name);
    if (id == kNoSymbol) {
      return Status::ParseError("unknown symbol '" + name + "'");
    }
    return Regex::Symbol(id);
  }

  std::string_view text_;
  size_t pos_ = 0;
  Alphabet* mutable_alphabet_;
  const Alphabet* closed_alphabet_;
  size_t max_depth_;
  size_t depth_ = 0;
};

}  // namespace

Result<RegexPtr> ParseRegex(std::string_view text, Alphabet* alphabet,
                            size_t max_depth) {
  return RegexParser(text, alphabet, nullptr, max_depth).Parse();
}

Result<RegexPtr> ParseRegexClosed(std::string_view text,
                                  const Alphabet& alphabet,
                                  size_t max_depth) {
  return RegexParser(text, nullptr, &alphabet, max_depth).Parse();
}

namespace {

// Precedence levels for printing: 0 = union, 1 = concat, 2 = postfix/atom.
void Append(const RegexPtr& r, const Alphabet& names, int parent_level,
            std::string* out) {
  switch (r->kind()) {
    case Regex::Kind::kEmptySet:
      // No concrete syntax for ∅; print an unmatchable marker.
      *out += "<empty-set>";
      return;
    case Regex::Kind::kEpsilon:
      *out += "()";
      return;
    case Regex::Kind::kSymbol:
      *out += names.Name(r->symbol());
      return;
    case Regex::Kind::kConcat: {
      const bool paren = parent_level > 1;
      if (paren) *out += '(';
      Append(r->left(), names, 1, out);
      *out += '.';
      Append(r->right(), names, 1, out);
      if (paren) *out += ')';
      return;
    }
    case Regex::Kind::kUnion: {
      const bool paren = parent_level > 0;
      if (paren) *out += '(';
      Append(r->left(), names, 0, out);
      *out += '|';
      Append(r->right(), names, 0, out);
      if (paren) *out += ')';
      return;
    }
    case Regex::Kind::kStar:
      Append(r->left(), names, 2, out);
      *out += '*';
      return;
  }
}

}  // namespace

std::string RegexString(const RegexPtr& r, const Alphabet& names) {
  std::string out;
  Append(r, names, 0, &out);
  return out;
}

}  // namespace pebbletc
