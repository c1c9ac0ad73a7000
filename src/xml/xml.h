// Minimal XML reader/writer for the element-only fragment the paper models
// (Section 2.2): nested tags over an unranked alphabet. Self-closing tags
// (<a/>), whitespace between elements, and <!-- comments --> are handled (an
// unterminated comment is a parse error wherever it occurs);
// attributes, PCDATA, entities, and processing instructions are rejected —
// they are outside the paper's data model (see the Limitations discussion).
//
// The reader is a pull parser (XmlEventReader) emitting open/close events;
// ParseXml materializes a tree from the event stream, and the validation
// fast path (src/ta/membership.*, docs/VALIDATION.md) folds a DBTA over the
// same stream without ever building the tree.

#ifndef PEBBLETC_XML_XML_H_
#define PEBBLETC_XML_XML_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/tree/unranked_tree.h"

namespace pebbletc {

/// Pull parser over the element-only fragment. Next() yields kOpen (with the
/// tag name, viewing into the input text), kClose — a self-closing element
/// yields kOpen immediately followed by kClose — and kEnd after the document
/// epilogue is verified; malformed input yields kParseError with the same
/// diagnostics the tree parser always produced. Nesting depth is bounded by
/// heap, not the call stack.
class XmlEventReader {
 public:
  enum class Kind : uint8_t { kOpen, kClose, kEnd };
  struct Event {
    Kind kind;
    std::string_view name;  // set for kOpen only
  };

  /// `text` must outlive the reader (event names view into it).
  explicit XmlEventReader(std::string_view text) : text_(text) {}

  Result<Event> Next();

  /// Number of currently open (not yet closed) elements.
  size_t depth() const { return open_.size(); }

 private:
  Status SkipMisc();
  Result<std::string_view> ParseName();
  Result<Event> ParseHead();

  std::string_view text_;
  size_t pos_ = 0;
  bool started_ = false;
  bool pending_close_ = false;  // a self-closed element owes its kClose
  bool done_ = false;
  std::vector<std::string_view> open_;
};

/// Parses an element-only XML document into an unranked tree; tags are
/// interned into `*alphabet`.
Result<UnrankedTree> ParseXml(std::string_view text, Alphabet* alphabet);

/// Result of parsing against a closed (const) alphabet.
struct KnownXmlParse {
  /// The parsed tree; left empty when `unknown_tag` is set.
  UnrankedTree tree;
  /// First tag (in document order) not present in the alphabet, or empty.
  /// The whole document is still checked for well-formedness either way —
  /// a parse error wins over an unknown tag.
  std::string unknown_tag;
};

/// Parses a document whose tags must already be in `tags` — the serving hot
/// path, which must not mutate (or copy) a registry artifact's alphabet.
Result<KnownXmlParse> ParseXmlKnown(std::string_view text,
                                    const Alphabet& tags);

/// Serializes a tree as XML. Leaves print self-closed (`<a/>`); `indent`
/// pretty-prints with two-space indentation.
std::string XmlString(const UnrankedTree& tree, const Alphabet& alphabet,
                      bool indent = false);

}  // namespace pebbletc

#endif  // PEBBLETC_XML_XML_H_
