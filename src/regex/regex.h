// Regular expressions over interned symbols (Section 2.1).
//
// Used for three jobs in the paper: DTD content models (Section 2.3),
// (regular) path expressions (Section 2.1), and the tree patterns of XML
// query languages (Section 2.2 / Example 3.5).
//
// Concrete syntax, matching the paper's:
//   a.b*.c          concatenation with '.', Kleene star
//   (a|b)+ c? ()    union, plus, optional, epsilon spelled "()"
// Symbol names are [A-Za-z0-9_]+ or the single character '-' (the encoded
// cons symbol, which appears in translated path expressions). '|' is the
// union operator; the nil symbol never occurs in path expressions (§2.1).

#ifndef PEBBLETC_REGEX_REGEX_H_
#define PEBBLETC_REGEX_REGEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"

namespace pebbletc {

/// Immutable regular-expression AST node. Build via the factory functions
/// below; share freely (nodes are reference-counted and never mutated).
class Regex;
using RegexPtr = std::shared_ptr<const Regex>;

class Regex {
 public:
  enum class Kind {
    kEmptySet,  ///< ∅ — matches nothing
    kEpsilon,   ///< ε — matches the empty word
    kSymbol,    ///< a single symbol
    kConcat,    ///< r1 . r2
    kUnion,     ///< r1 | r2
    kStar,      ///< r*
  };

  Kind kind() const { return kind_; }
  /// For kSymbol only.
  SymbolId symbol() const { return symbol_; }
  /// For kConcat/kUnion: left operand; for kStar: the body.
  const RegexPtr& left() const { return left_; }
  /// For kConcat/kUnion: right operand.
  const RegexPtr& right() const { return right_; }

  /// True if ε ∈ lang(this).
  bool IsNullable() const;

  // Factories. Union/Concat/Star perform light simplification (identities
  // with ∅ and ε) so constructed ASTs stay small.
  static RegexPtr EmptySet();
  static RegexPtr Epsilon();
  static RegexPtr Symbol(SymbolId s);
  static RegexPtr Concat(RegexPtr a, RegexPtr b);
  static RegexPtr Union(RegexPtr a, RegexPtr b);
  static RegexPtr Star(RegexPtr a);
  /// r+ ≡ r.r*
  static RegexPtr Plus(RegexPtr a);
  /// r? ≡ r|ε
  static RegexPtr Optional(RegexPtr a);
  /// Concatenation of a whole word of symbols (ε for the empty word).
  static RegexPtr Word(const std::vector<SymbolId>& symbols);

  /// The reversal of this regex: lang(Reverse(r)) = { reverse(w) | w ∈
  /// lang(r) }. Used by the Example 3.5 pattern matcher, which checks path
  /// regexes bottom-up.
  static RegexPtr Reverse(const RegexPtr& r);

 private:
  Regex(Kind kind, SymbolId symbol, RegexPtr left, RegexPtr right)
      : kind_(kind), symbol_(symbol), left_(std::move(left)),
        right_(std::move(right)) {}

  Kind kind_;
  SymbolId symbol_ = kNoSymbol;
  RegexPtr left_;
  RegexPtr right_;
};

/// Maximum '(' nesting depth the parser accepts. The parser (and the AST it
/// would build) recurse per nesting level, so unbounded depth lets a hostile
/// input — e.g. a DTD content model — overflow the call stack. Deeper input
/// fails cleanly with kLimitExceeded. A level costs about 9 KiB of stack in
/// an ASan/UBSan RelWithDebInfo build, so 256 levels stay near 2.3 MiB.
inline constexpr size_t kDefaultMaxRegexDepth = 256;

/// Parses the concrete syntax above. Symbol names are resolved against (and
/// interned into) `*alphabet`. Operator precedence: postfix (* + ?) binds
/// tighter than '.', which binds tighter than '|'.
Result<RegexPtr> ParseRegex(std::string_view text, Alphabet* alphabet,
                            size_t max_depth = kDefaultMaxRegexDepth);

/// Parses against a fixed unranked alphabet; unknown names fail.
Result<RegexPtr> ParseRegexClosed(std::string_view text,
                                  const Alphabet& alphabet,
                                  size_t max_depth = kDefaultMaxRegexDepth);

/// Renders a regex back to concrete syntax (fully parenthesised where
/// needed). `names` resolves symbol ids.
std::string RegexString(const RegexPtr& r, const Alphabet& names);

}  // namespace pebbletc

#endif  // PEBBLETC_REGEX_REGEX_H_
