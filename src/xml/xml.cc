#include "src/xml/xml.h"

#include <cctype>
#include <utility>
#include <vector>

namespace pebbletc {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':';
}

}  // namespace

// Skips whitespace and comments.
Status XmlEventReader::SkipMisc() {
  while (pos_ < text_.size()) {
    if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    } else if (text_.substr(pos_).substr(0, 4) == "<!--") {
      auto end = text_.find("-->", pos_ + 4);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated comment at offset " +
                                  std::to_string(pos_));
      }
      pos_ = end + 3;
    } else {
      break;
    }
  }
  return Status::OK();
}

Result<std::string_view> XmlEventReader::ParseName() {
  size_t start = pos_;
  while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
  if (pos_ == start) {
    return Status::ParseError("expected tag name at offset " +
                              std::to_string(pos_));
  }
  return text_.substr(start, pos_ - start);
}

// One element head: '<name' then '/>' (kOpen with the kClose owed) or '>'
// (kOpen, element pushed).
Result<XmlEventReader::Event> XmlEventReader::ParseHead() {
  if (pos_ >= text_.size() || text_[pos_] != '<') {
    return Status::ParseError("expected '<' at offset " + std::to_string(pos_));
  }
  ++pos_;
  PEBBLETC_ASSIGN_OR_RETURN(std::string_view name, ParseName());
  // No attributes in this fragment: next must be '/>' or '>'.
  if (pos_ < text_.size() &&
      std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    return Status::ParseError("attributes are not supported (element '" +
                              std::string(name) + "')");
  }
  if (text_.substr(pos_).substr(0, 2) == "/>") {
    pos_ += 2;
    pending_close_ = true;
    return Event{Kind::kOpen, name};
  }
  if (pos_ >= text_.size() || text_[pos_] != '>') {
    return Status::ParseError("expected '>' at offset " + std::to_string(pos_));
  }
  ++pos_;
  open_.push_back(name);
  return Event{Kind::kOpen, name};
}

Result<XmlEventReader::Event> XmlEventReader::Next() {
  if (done_) return Event{Kind::kEnd, {}};
  if (pending_close_) {
    pending_close_ = false;
    return Event{Kind::kClose, {}};
  }
  if (!started_) {
    started_ = true;
    PEBBLETC_RETURN_IF_ERROR(SkipMisc());
    return ParseHead();
  }
  if (open_.empty()) {
    // The root has closed: verify the epilogue.
    PEBBLETC_RETURN_IF_ERROR(SkipMisc());
    if (pos_ < text_.size()) {
      return Status::ParseError("trailing content at offset " +
                                std::to_string(pos_));
    }
    done_ = true;
    return Event{Kind::kEnd, {}};
  }
  // Content position inside the innermost open element.
  PEBBLETC_RETURN_IF_ERROR(SkipMisc());
  if (text_.substr(pos_).substr(0, 2) == "</") {
    pos_ += 2;
    PEBBLETC_ASSIGN_OR_RETURN(std::string_view close, ParseName());
    if (close != open_.back()) {
      return Status::ParseError("mismatched </" + std::string(close) +
                                ">, expected </" + std::string(open_.back()) +
                                ">");
    }
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      return Status::ParseError("expected '>' after closing tag");
    }
    ++pos_;
    open_.pop_back();
    return Event{Kind::kClose, {}};
  }
  if (pos_ >= text_.size()) {
    return Status::ParseError("unexpected end of input inside <" +
                              std::string(open_.back()) + ">");
  }
  if (text_[pos_] != '<') {
    return Status::ParseError("text content is not supported (inside <" +
                              std::string(open_.back()) + ">)");
  }
  return ParseHead();
}

namespace {

// Shared tree builder over the event stream. `intern` maps a tag name to its
// SymbolId (or kNoSymbol to flag it unknown and stop building).
template <typename Intern>
Result<UnrankedTree> BuildTree(std::string_view text, Intern&& intern,
                               std::string* unknown_tag) {
  XmlEventReader reader(text);
  UnrankedTree tree;
  struct Frame {
    SymbolId tag;
    std::vector<NodeId> kids;
  };
  std::vector<Frame> stack;
  NodeId root = kNoNode;
  bool building = true;
  while (true) {
    PEBBLETC_ASSIGN_OR_RETURN(XmlEventReader::Event ev, reader.Next());
    if (ev.kind == XmlEventReader::Kind::kEnd) break;
    if (!building) continue;  // draining for well-formedness only
    if (ev.kind == XmlEventReader::Kind::kOpen) {
      SymbolId tag = intern(ev.name);
      if (tag == kNoSymbol) {
        if (unknown_tag != nullptr) *unknown_tag = std::string(ev.name);
        building = false;
        continue;
      }
      stack.push_back({tag, {}});
    } else {
      Frame f = std::move(stack.back());
      stack.pop_back();
      NodeId n = tree.AddNode(f.tag, std::move(f.kids));
      if (stack.empty()) {
        root = n;
      } else {
        stack.back().kids.push_back(n);
      }
    }
  }
  if (!building) return UnrankedTree();  // unknown tag reported via out-param
  tree.SetRoot(root);
  return tree;
}

void Append(const UnrankedTree& tree, const Alphabet& alphabet, NodeId n,
            bool indent, int depth, std::string* out) {
  if (indent) out->append(static_cast<size_t>(depth) * 2, ' ');
  const std::string& name = alphabet.Name(tree.tag(n));
  if (tree.IsLeaf(n)) {
    *out += '<';
    *out += name;
    *out += "/>";
    if (indent) *out += '\n';
    return;
  }
  *out += '<';
  *out += name;
  *out += '>';
  if (indent) *out += '\n';
  for (NodeId c : tree.children(n)) {
    Append(tree, alphabet, c, indent, depth + 1, out);
  }
  if (indent) out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += "</";
  *out += name;
  *out += '>';
  if (indent) *out += '\n';
}

}  // namespace

Result<UnrankedTree> ParseXml(std::string_view text, Alphabet* alphabet) {
  return BuildTree(
      text,
      [alphabet](std::string_view name) { return alphabet->Intern(name); },
      nullptr);
}

Result<KnownXmlParse> ParseXmlKnown(std::string_view text,
                                    const Alphabet& tags) {
  KnownXmlParse out;
  PEBBLETC_ASSIGN_OR_RETURN(
      out.tree,
      BuildTree(
          text, [&tags](std::string_view name) { return tags.Find(name); },
          &out.unknown_tag));
  return out;
}

std::string XmlString(const UnrankedTree& tree, const Alphabet& alphabet,
                      bool indent) {
  if (tree.empty()) return "";
  std::string out;
  Append(tree, alphabet, tree.root(), indent, 0, &out);
  return out;
}

}  // namespace pebbletc
