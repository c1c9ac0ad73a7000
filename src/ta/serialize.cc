#include "src/ta/serialize.h"

#include <cstring>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/regex/regex.h"

namespace pebbletc {

void SerializeNbta(const Nbta& a, std::string* out) {
  PutU32(a.num_states, out);
  PutU32(a.num_symbols, out);
  PutBits(a.accepting, out);
  PutU32(static_cast<uint32_t>(a.leaf_rules.size()), out);
  for (const Nbta::LeafRule& r : a.leaf_rules) {
    PutU32(r.symbol, out);
    PutU32(r.to, out);
  }
  PutU32(static_cast<uint32_t>(a.rules.size()), out);
  for (const Nbta::BinaryRule& r : a.rules) {
    PutU32(r.symbol, out);
    PutU32(r.left, out);
    PutU32(r.right, out);
    PutU32(r.to, out);
  }
}

namespace {

// Caps on variable-length sections of the artifact formats. Inputs crossing
// the service trust boundary may be adversarial, so every count read from
// the wire is bounded before a single element is allocated.
constexpr uint32_t kMaxNameBytes = 1024;
constexpr uint32_t kMaxAlphabetSymbols = 1u << 20;
// A regex stream is capped at the parser's kMaxRegexNodes (src/regex/regex.h),
// so text DTDs and DTD artifacts share one node cap.

// What the artifact decoders' ByteReader errors call the input.
constexpr char kFormat[] = "binary artifact";

Status ReadNbtaBody(ByteReader& in, Nbta* a) {
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&a->num_states));
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&a->num_symbols));
  PEBBLETC_RETURN_IF_ERROR(in.ReadBits(a->num_states, &a->accepting));
  uint32_t n_leaf = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_leaf));
  // A leaf rule occupies 8 wire bytes, so a count the remaining input cannot
  // hold is a lie — reject it before reserving, or a 2 MiB payload claiming
  // 0xFFFFFFFF rules would force a ~68 GB allocation.
  if (n_leaf > in.remaining() / 8) {
    return Status::ParseError("leaf rule count exceeds the remaining input");
  }
  a->leaf_rules.reserve(n_leaf);
  for (uint32_t i = 0; i < n_leaf; ++i) {
    Nbta::LeafRule r;
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&r.symbol));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&r.to));
    if (r.symbol >= a->num_symbols || r.to >= a->num_states) {
      return Status::ParseError("leaf rule out of range");
    }
    a->leaf_rules.push_back(r);
  }
  uint32_t n_rules = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_rules));
  // Same bound for binary rules, at 16 wire bytes each.
  if (n_rules > in.remaining() / 16) {
    return Status::ParseError("binary rule count exceeds the remaining input");
  }
  a->rules.reserve(n_rules);
  for (uint32_t i = 0; i < n_rules; ++i) {
    Nbta::BinaryRule r;
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&r.symbol));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&r.left));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&r.right));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&r.to));
    if (r.symbol >= a->num_symbols || r.left >= a->num_states ||
        r.right >= a->num_states || r.to >= a->num_states) {
      return Status::ParseError("binary rule out of range");
    }
    a->rules.push_back(r);
  }
  return Status::OK();
}

}  // namespace

Result<Nbta> DeserializeNbta(std::string_view bytes) {
  ByteReader in(bytes, kFormat);
  Nbta a;
  PEBBLETC_RETURN_IF_ERROR(ReadNbtaBody(in, &a));
  PEBBLETC_RETURN_IF_ERROR(in.Done());
  return a;
}

uint64_t TaPayloadChecksum(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Ranked alphabets.
// ---------------------------------------------------------------------------

void SerializeRankedAlphabet(const RankedAlphabet& alphabet, std::string* out) {
  PutU32(static_cast<uint32_t>(alphabet.size()), out);
  for (SymbolId s = 0; s < alphabet.size(); ++s) {
    PutU8(static_cast<uint8_t>(alphabet.Rank(s)), out);
    PutString(alphabet.Name(s), out);
  }
}

namespace {

Status ReadRankedAlphabet(ByteReader& in, RankedAlphabet* alphabet) {
  uint32_t n = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n));
  if (n > kMaxAlphabetSymbols) {
    return Status::ParseError("alphabet symbol count exceeds cap");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t rank = 0;
    std::string name;
    PEBBLETC_RETURN_IF_ERROR(in.ReadU8(&rank));
    PEBBLETC_RETURN_IF_ERROR(in.ReadString(kMaxNameBytes, &name));
    if (rank != 0 && rank != 2) {
      return Status::ParseError("alphabet symbol rank must be 0 or 2");
    }
    if (name.empty()) return Status::ParseError("empty alphabet symbol name");
    Result<SymbolId> added = rank == 0 ? alphabet->AddLeaf(name)
                                       : alphabet->AddBinary(name);
    if (!added.ok()) {
      return Status::ParseError("alphabet rejected symbol '" + name +
                                "': " + added.status().ToString());
    }
    if (*added != i) {
      return Status::ParseError("duplicate alphabet symbol '" + name + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<RankedAlphabet> DeserializeRankedAlphabet(std::string_view bytes) {
  ByteReader in(bytes, kFormat);
  RankedAlphabet alphabet;
  PEBBLETC_RETURN_IF_ERROR(ReadRankedAlphabet(in, &alphabet));
  PEBBLETC_RETURN_IF_ERROR(in.Done());
  return alphabet;
}

// ---------------------------------------------------------------------------
// Regex ASTs (DTD content models): postorder node records, arity-checked on
// read so a hostile stream can never underflow the build stack, with node-
// count and depth caps so it cannot blow memory or the (recursive) AST
// destructor either.
// ---------------------------------------------------------------------------

namespace {

// Wire-stable kind codes (do not renumber).
constexpr uint8_t kRegexEmptySet = 0;
constexpr uint8_t kRegexEpsilon = 1;
constexpr uint8_t kRegexSymbol = 2;
constexpr uint8_t kRegexConcat = 3;
constexpr uint8_t kRegexUnion = 4;
constexpr uint8_t kRegexStar = 5;

void WriteRegex(const RegexPtr& r, std::string* out) {
  // Count then emit, both via explicit postorder stacks (ASTs can be ~2000
  // deep, past safe recursion under sanitizers).
  uint32_t count = 0;
  std::vector<const Regex*> stack = {r.get()};
  while (!stack.empty()) {
    const Regex* node = stack.back();
    stack.pop_back();
    ++count;
    if (node->left() != nullptr) stack.push_back(node->left().get());
    if (node->right() != nullptr) stack.push_back(node->right().get());
  }
  PutU32(count, out);

  // Postorder emission: (node, children-emitted) pairs.
  std::vector<std::pair<const Regex*, bool>> walk = {{r.get(), false}};
  while (!walk.empty()) {
    auto [node, expanded] = walk.back();
    walk.pop_back();
    if (!expanded) {
      walk.push_back({node, true});
      if (node->right() != nullptr) walk.push_back({node->right().get(), false});
      if (node->left() != nullptr) walk.push_back({node->left().get(), false});
      continue;
    }
    switch (node->kind()) {
      case Regex::Kind::kEmptySet:
        PutU8(kRegexEmptySet, out);
        break;
      case Regex::Kind::kEpsilon:
        PutU8(kRegexEpsilon, out);
        break;
      case Regex::Kind::kSymbol:
        PutU8(kRegexSymbol, out);
        PutU32(node->symbol(), out);
        break;
      case Regex::Kind::kConcat:
        PutU8(kRegexConcat, out);
        break;
      case Regex::Kind::kUnion:
        PutU8(kRegexUnion, out);
        break;
      case Regex::Kind::kStar:
        PutU8(kRegexStar, out);
        break;
    }
  }
}

Status ReadRegex(ByteReader& in, uint32_t num_symbols, RegexPtr* out) {
  uint32_t n_nodes = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_nodes));
  if (n_nodes == 0) return Status::ParseError("regex with zero nodes");
  if (n_nodes > kMaxRegexNodes) {
    return Status::ParseError("regex node count exceeds cap");
  }
  // Postfix stream of nodes, rebuilt on an explicit stack. The cap applies
  // to the AST the factories build, which may be shallower than the stream
  // declares (they fold identities with ∅ and ε).
  std::vector<RegexPtr> stack;
  for (uint32_t i = 0; i < n_nodes; ++i) {
    uint8_t kind = 0;
    PEBBLETC_RETURN_IF_ERROR(in.ReadU8(&kind));
    switch (kind) {
      case kRegexEmptySet:
        stack.push_back(Regex::EmptySet());
        break;
      case kRegexEpsilon:
        stack.push_back(Regex::Epsilon());
        break;
      case kRegexSymbol: {
        uint32_t sym = 0;
        PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&sym));
        if (sym >= num_symbols) {
          return Status::ParseError("regex symbol out of range");
        }
        stack.push_back(Regex::Symbol(sym));
        break;
      }
      case kRegexStar: {
        if (stack.empty()) {
          return Status::ParseError("regex star with no operand");
        }
        stack.back() = Regex::Star(std::move(stack.back()));
        break;
      }
      case kRegexConcat:
      case kRegexUnion: {
        if (stack.size() < 2) {
          return Status::ParseError("regex binary operator with <2 operands");
        }
        RegexPtr rhs = std::move(stack.back());
        stack.pop_back();
        RegexPtr lhs = std::move(stack.back());
        stack.back() = kind == kRegexConcat
                           ? Regex::Concat(std::move(lhs), std::move(rhs))
                           : Regex::Union(std::move(lhs), std::move(rhs));
        break;
      }
      default:
        return Status::ParseError("unknown regex node kind");
    }
    if (stack.back()->depth() > kMaxRegexAstDepth) {
      return Status::ParseError("regex deeper than the AST depth cap");
    }
  }
  if (stack.size() != 1) {
    return Status::ParseError("regex stream leaves " +
                              std::to_string(stack.size()) +
                              " roots (expected 1)");
  }
  *out = std::move(stack.back());
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Transducer artifacts.
// ---------------------------------------------------------------------------

void SerializeTransducerArtifact(const TransducerArtifact& artifact,
                                 std::string* out) {
  const PebbleTransducer& t = artifact.transducer;
  PutU32(t.max_pebbles(), out);
  SerializeRankedAlphabet(artifact.input_alphabet, out);
  SerializeRankedAlphabet(artifact.output_alphabet, out);
  PutU32(t.num_states(), out);
  for (StateId q = 0; q < t.num_states(); ++q) PutU32(t.level(q), out);
  PutU32(t.start(), out);
  PutU32(static_cast<uint32_t>(t.transitions().size()), out);
  for (const PebbleTransducer::Transition& tr : t.transitions()) {
    PutU8(static_cast<uint8_t>(tr.kind), out);
    PutU32(tr.guard.symbol, out);
    PutU32(tr.guard.presence_mask, out);
    PutU32(tr.guard.presence_value, out);
    PutU32(tr.from, out);
    PutU8(static_cast<uint8_t>(tr.move), out);
    PutU32(tr.to, out);
    PutU32(tr.output_symbol, out);
    PutU32(tr.out_left, out);
    PutU32(tr.out_right, out);
  }
}

Result<TransducerArtifact> DeserializeTransducerArtifact(
    std::string_view bytes) {
  using Kind = PebbleTransducer::TransitionKind;
  using Move = PebbleTransducer::MoveKind;
  ByteReader in(bytes, kFormat);
  uint32_t max_pebbles = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&max_pebbles));
  // The PebbleTransducer constructor CHECK-crashes outside [1, 30], so the
  // range is enforced here, before any object exists.
  if (max_pebbles < 1 || max_pebbles > 30) {
    return Status::ParseError("transducer max_pebbles out of [1, 30]");
  }
  TransducerArtifact artifact;
  PEBBLETC_RETURN_IF_ERROR(ReadRankedAlphabet(in, &artifact.input_alphabet));
  PEBBLETC_RETURN_IF_ERROR(ReadRankedAlphabet(in, &artifact.output_alphabet));
  uint32_t num_states = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&num_states));
  if (num_states == 0) return Status::ParseError("transducer has no states");
  if (num_states > kMaxAlphabetSymbols) {
    return Status::ParseError("transducer state count exceeds cap");
  }
  std::vector<uint32_t> levels(num_states);
  for (uint32_t q = 0; q < num_states; ++q) {
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&levels[q]));
    if (levels[q] < 1 || levels[q] > max_pebbles) {
      return Status::ParseError("transducer state level out of range");
    }
  }
  uint32_t start = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&start));
  if (start >= num_states) {
    return Status::ParseError("transducer start state out of range");
  }
  uint32_t n_transitions = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_transitions));
  if (n_transitions > (1u << 22)) {
    return Status::ParseError("transducer transition count exceeds cap");
  }

  PebbleTransducer t(max_pebbles,
                     static_cast<uint32_t>(artifact.input_alphabet.size()),
                     static_cast<uint32_t>(artifact.output_alphabet.size()));
  for (uint32_t q = 0; q < num_states; ++q) (void)t.AddState(levels[q]);
  t.SetStart(start);

  for (uint32_t i = 0; i < n_transitions; ++i) {
    uint8_t kind_byte = 0, move_byte = 0;
    PebbleGuard guard;
    uint32_t from = 0, to = 0, out_symbol = 0, out_left = 0, out_right = 0;
    PEBBLETC_RETURN_IF_ERROR(in.ReadU8(&kind_byte));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&guard.symbol));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&guard.presence_mask));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&guard.presence_value));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&from));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU8(&move_byte));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&to));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&out_symbol));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&out_left));
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&out_right));
    if (kind_byte > static_cast<uint8_t>(Kind::kOutputBinary)) {
      return Status::ParseError("unknown transducer transition kind");
    }
    if (move_byte > static_cast<uint8_t>(Move::kPickPebble)) {
      return Status::ParseError("unknown transducer move kind");
    }
    if (from >= num_states) {
      return Status::ParseError("transition from-state out of range");
    }
    // Fields a kind does not use must hold the canonical values the
    // mutators write — the encoding is unique, so checksums are meaningful.
    switch (static_cast<Kind>(kind_byte)) {
      case Kind::kMove:
        if (to >= num_states) {
          return Status::ParseError("move to-state out of range");
        }
        if (out_symbol != kNoSymbol || out_left != 0 || out_right != 0) {
          return Status::ParseError("move transition with output payload");
        }
        t.AddMove(guard, from, static_cast<Move>(move_byte), to);
        break;
      case Kind::kOutputLeaf:
        if (move_byte != 0 || to != 0 || out_left != 0 || out_right != 0) {
          return Status::ParseError("leaf output with non-canonical padding");
        }
        t.AddOutputLeaf(guard, from, out_symbol);
        break;
      case Kind::kOutputBinary:
        if (move_byte != 0 || to != 0) {
          return Status::ParseError(
              "binary output with non-canonical padding");
        }
        if (out_left >= num_states || out_right >= num_states) {
          return Status::ParseError("output branch state out of range");
        }
        t.AddOutputBinary(guard, from, out_symbol, out_left, out_right);
        break;
    }
  }
  PEBBLETC_RETURN_IF_ERROR(in.Done());

  // Semantic validation (level discipline per move, guard masks vs state
  // level, output symbol ranks) — a machine failing it is a malformed
  // artifact, not a usable transducer.
  Status valid =
      t.Validate(artifact.input_alphabet, artifact.output_alphabet);
  if (!valid.ok()) {
    return Status::ParseError("transducer artifact failed validation: " +
                              valid.ToString());
  }
  artifact.transducer = std::move(t);
  return artifact;
}

// ---------------------------------------------------------------------------
// DTD artifacts.
// ---------------------------------------------------------------------------

void SerializeDtdArtifact(const SpecializedDtd& dtd, std::string* out) {
  PutU32(static_cast<uint32_t>(dtd.tags().size()), out);
  for (SymbolId tag = 0; tag < dtd.tags().size(); ++tag) {
    PutString(dtd.tags().Name(tag), out);
  }
  PutU32(static_cast<uint32_t>(dtd.num_types()), out);
  for (SymbolId type = 0; type < dtd.num_types(); ++type) {
    PutString(dtd.types().Name(type), out);
    PutU32(dtd.TagOfType(type), out);
    WriteRegex(dtd.ContentModel(type), out);
  }
  PutU32(static_cast<uint32_t>(dtd.root_types().size()), out);
  for (SymbolId root : dtd.root_types()) PutU32(root, out);
}

Result<SpecializedDtd> DeserializeDtdArtifact(std::string_view bytes) {
  ByteReader in(bytes, kFormat);
  uint32_t n_tags = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_tags));
  if (n_tags > kMaxAlphabetSymbols) {
    return Status::ParseError("DTD tag count exceeds cap");
  }
  std::vector<std::string> tag_names(n_tags);
  for (uint32_t i = 0; i < n_tags; ++i) {
    PEBBLETC_RETURN_IF_ERROR(in.ReadString(kMaxNameBytes, &tag_names[i]));
    if (tag_names[i].empty()) return Status::ParseError("empty DTD tag name");
  }
  uint32_t n_types = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_types));
  if (n_types == 0) return Status::ParseError("DTD declares no types");
  if (n_types > kMaxAlphabetSymbols) {
    return Status::ParseError("DTD type count exceeds cap");
  }

  SpecializedDtd dtd;
  // Intern the whole tag table first so ids survive the round trip exactly
  // (the table may hold tags beyond those named by types, and in any order).
  for (uint32_t i = 0; i < n_tags; ++i) {
    if (dtd.mutable_tags()->Intern(tag_names[i]) != i) {
      return Status::ParseError("duplicate DTD tag '" + tag_names[i] + "'");
    }
  }
  for (uint32_t type = 0; type < n_types; ++type) {
    std::string type_name;
    uint32_t tag_id = 0;
    RegexPtr content;
    PEBBLETC_RETURN_IF_ERROR(in.ReadString(kMaxNameBytes, &type_name));
    if (type_name.empty()) return Status::ParseError("empty DTD type name");
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&tag_id));
    if (tag_id >= n_tags) {
      return Status::ParseError("DTD type names a tag out of range");
    }
    // Content models range over the *type* alphabet.
    PEBBLETC_RETURN_IF_ERROR(ReadRegex(in, n_types, &content));
    Result<SymbolId> added =
        dtd.AddType(type_name, tag_names[tag_id], std::move(content));
    if (!added.ok()) {
      return Status::ParseError("DTD rejected type '" + type_name +
                                "': " + added.status().ToString());
    }
  }
  uint32_t n_roots = 0;
  PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&n_roots));
  if (n_roots > n_types) {
    return Status::ParseError("DTD root list longer than the type list");
  }
  for (uint32_t i = 0; i < n_roots; ++i) {
    uint32_t root = 0;
    PEBBLETC_RETURN_IF_ERROR(in.ReadU32(&root));
    Status s = dtd.AddRootType(root);
    if (!s.ok()) return Status::ParseError("DTD root: " + s.ToString());
  }
  PEBBLETC_RETURN_IF_ERROR(in.Done());
  Status finalized = dtd.Finalize();
  if (!finalized.ok()) {
    return Status::ParseError("DTD artifact failed to finalize: " +
                              finalized.ToString());
  }
  return dtd;
}

// ---------------------------------------------------------------------------
// Schema artifacts.
// ---------------------------------------------------------------------------

void SerializeSchemaArtifact(const SchemaArtifact& artifact, std::string* out) {
  SerializeRankedAlphabet(artifact.alphabet, out);
  SerializeNbta(artifact.automaton, out);
}

Result<SchemaArtifact> DeserializeSchemaArtifact(std::string_view bytes) {
  ByteReader in(bytes, kFormat);
  SchemaArtifact artifact;
  PEBBLETC_RETURN_IF_ERROR(ReadRankedAlphabet(in, &artifact.alphabet));
  PEBBLETC_RETURN_IF_ERROR(ReadNbtaBody(in, &artifact.automaton));
  PEBBLETC_RETURN_IF_ERROR(in.Done());
  const Nbta& a = artifact.automaton;
  if (a.num_states > kMaxSchemaStates) {
    return Status::ParseError("schema has more than " +
                              std::to_string(kMaxSchemaStates) + " states");
  }
  if (static_cast<uint64_t>(a.num_symbols) * a.num_states >
      kMaxSchemaIndexEntries) {
    return Status::ParseError("schema symbols × states exceed " +
                              std::to_string(kMaxSchemaIndexEntries));
  }
  Status valid = artifact.automaton.Validate(artifact.alphabet);
  if (!valid.ok()) {
    return Status::ParseError("schema artifact failed validation: " +
                              valid.ToString());
  }
  return artifact;
}

// ---------------------------------------------------------------------------
// The versioned artifact container.
// ---------------------------------------------------------------------------

namespace {

constexpr char kArtifactMagic[4] = {'P', 'T', 'A', 'R'};
constexpr size_t kArtifactHeaderBytes = 4 + 1 + 1 + 8;

}  // namespace

void WrapTaArtifact(TaArtifactKind kind, std::string_view payload,
                    std::string* out) {
  out->append(kArtifactMagic, 4);
  PutU8(kTaArtifactVersion, out);
  PutU8(static_cast<uint8_t>(kind), out);
  PutU64(TaPayloadChecksum(payload), out);
  out->append(payload.data(), payload.size());
}

Result<TaArtifactView> UnwrapTaArtifact(std::string_view bytes) {
  if (bytes.size() < kArtifactHeaderBytes) {
    return Status::ParseError("artifact shorter than its header");
  }
  if (std::memcmp(bytes.data(), kArtifactMagic, 4) != 0) {
    return Status::ParseError("not a pebbletc artifact (bad magic)");
  }
  const auto version = static_cast<uint8_t>(bytes[4]);
  if (version != kTaArtifactVersion) {
    return Status::ParseError("unsupported artifact version " +
                              std::to_string(version));
  }
  const auto kind_byte = static_cast<uint8_t>(bytes[5]);
  if (kind_byte > static_cast<uint8_t>(TaArtifactKind::kSchema)) {
    return Status::ParseError("unknown artifact kind " +
                              std::to_string(kind_byte));
  }
  std::string_view payload = bytes.substr(kArtifactHeaderBytes);
  if (TaPayloadChecksum(payload) != LoadLe<uint64_t>(bytes.data() + 6)) {
    return Status::ParseError("artifact payload checksum mismatch");
  }
  TaArtifactView view;
  view.kind = static_cast<TaArtifactKind>(kind_byte);
  view.payload = payload;
  return view;
}

}  // namespace pebbletc
