#include "src/xml/xml.h"

#include <array>
#include <cstring>
#include <utility>
#include <vector>

namespace pebbletc {

namespace {

// Byte classes: name bytes [A-Za-z0-9_.:-] and the six C-locale whitespace
// bytes.
constexpr uint8_t kNameByte = 1;
constexpr uint8_t kSpaceByte = 2;

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> cls{};
  for (int c = 'a'; c <= 'z'; ++c) cls[c] = kNameByte;
  for (int c = 'A'; c <= 'Z'; ++c) cls[c] = kNameByte;
  for (int c = '0'; c <= '9'; ++c) cls[c] = kNameByte;
  for (unsigned char c : {'_', '-', '.', ':'}) cls[c] = kNameByte;
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    cls[c] = kSpaceByte;
  }
  return cls;
}

constexpr std::array<uint8_t, 256> kByteClass = MakeByteClasses();

bool IsNameByte(char c) {
  return kByteClass[static_cast<unsigned char>(c)] & kNameByte;
}

bool IsSpaceByte(char c) {
  return kByteClass[static_cast<unsigned char>(c)] & kSpaceByte;
}

const char* SkipName(const char* p, const char* end) {
  while (p != end && IsNameByte(*p)) ++p;
  return p;
}

const char* SkipSpace(const char* p, const char* end) {
  while (p != end && IsSpaceByte(*p)) ++p;
  return p;
}

}  // namespace

// Only failures build a message. A failure is sticky: with no element open
// and done_ set, every later Next returns false again.
bool XmlEventReader::Fail(std::string message) {
  status_ = Status::ParseError(std::move(message));
  open_.clear();
  pending_close_ = false;
  done_ = true;
  return false;
}

// Skips a comment; `cur_` is at "<!--".
bool XmlEventReader::SkipComment() {
  const std::string_view rest(cur_ + 4, static_cast<size_t>(end_ - cur_ - 4));
  const size_t close = rest.find("-->");
  if (close == std::string_view::npos) {
    return Fail("unterminated comment at offset " + Offset());
  }
  cur_ += 4 + close + 3;
  return true;
}

// Skips whitespace and comments.
bool XmlEventReader::SkipMisc() {
  while (true) {
    cur_ = SkipSpace(cur_, end_);
    if (!AtComment()) return true;
    if (!SkipComment()) return false;
  }
}

// One element head: '<name' then S? and '/>' (kOpen with the kClose owed) or
// '>' (kOpen, element pushed).
bool XmlEventReader::ParseHead(Event* event) {
  if (cur_ == end_ || *cur_ != '<') {
    return Fail("expected '<' at offset " + Offset());
  }
  const char* name = ++cur_;
  cur_ = SkipName(cur_, end_);
  if (cur_ == name) return Fail("expected tag name at offset " + Offset());
  event->kind = Kind::kOpen;
  event->name = std::string_view(name, static_cast<size_t>(cur_ - name));
  cur_ = SkipSpace(cur_, end_);
  // No attributes in this fragment: a name after the space is one.
  if (cur_ != end_ && IsNameByte(*cur_)) {
    return Fail("attributes are not supported (element '" +
                std::string(event->name) + "')");
  }
  if (cur_ != end_ && *cur_ == '>') {
    ++cur_;
    open_.push_back(event->name);
    return true;
  }
  if (end_ - cur_ >= 2 && cur_[0] == '/' && cur_[1] == '>') {
    cur_ += 2;
    pending_close_ = true;
    return true;
  }
  return Fail("expected '>' at offset " + Offset());
}

// '</name' S? '>' closing the innermost open element; `cur_` is at "</".
bool XmlEventReader::ParseClose(Event* event) {
  cur_ += 2;
  const std::string_view open = open_.back();
  const size_t rest = static_cast<size_t>(end_ - cur_);
  if (rest >= open.size() && std::memcmp(cur_, open.data(), open.size()) == 0 &&
      (rest == open.size() || !IsNameByte(cur_[open.size()]))) {
    cur_ += open.size();
  } else {
    const char* name = cur_;
    cur_ = SkipName(cur_, end_);
    if (cur_ == name) return Fail("expected tag name at offset " + Offset());
    return Fail("mismatched </" +
                std::string(name, static_cast<size_t>(cur_ - name)) +
                ">, expected </" + std::string(open) + ">");
  }
  cur_ = SkipSpace(cur_, end_);
  if (cur_ == end_ || *cur_ != '>') {
    return Fail("expected '>' after closing tag");
  }
  ++cur_;
  open_.pop_back();
  event->kind = Kind::kClose;
  event->name = {};
  return true;
}

bool XmlEventReader::Next(Event* event) {
  if (pending_close_) {
    pending_close_ = false;
    event->kind = Kind::kClose;
    event->name = {};
    return true;
  }
  if (!open_.empty()) {
    // Content position inside the innermost open element: whitespace and
    // comments, then a close tag or a child's head.
    while (true) {
      cur_ = SkipSpace(cur_, end_);
      if (cur_ == end_) {
        return Fail("unexpected end of input inside <" +
                    std::string(open_.back()) + ">");
      }
      if (*cur_ != '<') {
        return Fail("text content is not supported (inside <" +
                    std::string(open_.back()) + ">)");
      }
      if (end_ - cur_ >= 2 && cur_[1] == '/') return ParseClose(event);
      if (!AtComment()) return ParseHead(event);
      if (!SkipComment()) return false;
    }
  }
  if (done_) {
    if (!status_.ok()) return false;
    event->kind = Kind::kEnd;
    event->name = {};
    return true;
  }
  if (!started_) {
    started_ = true;
    return SkipMisc() && ParseHead(event);
  }
  // The root has closed: verify the epilogue.
  if (!SkipMisc()) return false;
  if (cur_ != end_) return Fail("trailing content at offset " + Offset());
  done_ = true;
  event->kind = Kind::kEnd;
  event->name = {};
  return true;
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
  XmlEventReader::Event ev;
  while (true) {
    if (!reader.Next(&ev)) return reader.status();
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
