#include "src/dtd/dtd.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/xml/xml.h"

namespace pebbletc {

Result<SymbolId> SpecializedDtd::AddType(std::string_view type_name,
                                         std::string_view tag,
                                         RegexPtr content_model) {
  if (finalized_) {
    return Status::FailedPrecondition("AddType after Finalize");
  }
  if (types_.Find(type_name) != kNoSymbol) {
    return Status::InvalidArgument("type '" + std::string(type_name) +
                                   "' declared twice");
  }
  SymbolId type = types_.Intern(type_name);
  SymbolId tag_id = tags_.Intern(tag);
  PEBBLETC_CHECK(type == type_tag_.size()) << "type id out of sync";
  type_tag_.push_back(tag_id);
  content_.push_back(std::move(content_model));
  if (type_name != tag) plain_ = false;
  return type;
}

Status SpecializedDtd::AddRootType(SymbolId type) {
  if (type >= num_types()) {
    return Status::InvalidArgument("root type out of range");
  }
  root_types_.push_back(type);
  return Status::OK();
}

Status SpecializedDtd::Finalize() {
  if (finalized_) return Status::OK();
  if (num_types() == 0) {
    return Status::FailedPrecondition("DTD declares no types");
  }
  if (root_types_.empty()) {
    return Status::FailedPrecondition("DTD has no root type");
  }
  // Content models range over the *type* alphabet. A regex mentioning a
  // symbol id ≥ num_types would have failed at parse time; defensive checks
  // happen inside CompileRegexToNfa.
  const auto n = static_cast<uint32_t>(num_types());
  auto past_table_cap = [n] {
    return Status::LimitExceeded(
        "content DFAs over " + std::to_string(n) + " types need more than " +
        std::to_string(kMaxContentTableEntries) + " table entries");
  };
  // Every content DFA has at least one state, so n types need n² entries.
  if (static_cast<size_t>(n) * n > kMaxContentTableEntries) {
    return past_table_cap();
  }
  content_dfa_.clear();
  content_dfa_.reserve(n);
  size_t table_entries = 0;  // held by the DFAs compiled so far
  for (SymbolId p = 0; p < n; ++p) {
    if (content_[p] == nullptr) {
      return Status::FailedPrecondition("type '" + types_.Name(p) +
                                        "' has no content model");
    }
    // The subset construction's table must fit in what the cap leaves.
    const size_t room = (kMaxContentTableEntries - table_entries) / n;
    const size_t max_states = std::min(kMaxContentModelStates, room);
    Result<Dfa> dfa =
        DeterminizeWithin(CompileRegexToNfa(content_[p], n), max_states);
    if (!dfa.ok()) {
      if (max_states == kMaxContentModelStates) {
        return Status::LimitExceeded(
            "content model of '" + types_.Name(p) + "' needs more than " +
            std::to_string(kMaxContentModelStates) + " DFA states");
      }
      return past_table_cap();
    }
    content_dfa_.push_back(std::make_unique<Dfa>(Minimize(*dfa)));
    table_entries += static_cast<size_t>(content_dfa_.back()->num_states()) * n;
  }
  types_by_tag_.assign(tags_.size(), {});
  for (SymbolId p = 0; p < n; ++p) types_by_tag_[type_tag_[p]].push_back(p);
  finalized_ = true;
  return Status::OK();
}

std::span<const SymbolId> SpecializedDtd::NodeTypesOf(
    SymbolId tag, std::span<const std::span<const SymbolId>> kids,
    StepScratch* scratch) const {
  // A child step costs live states × the child's types, not the DFA's size.
  std::vector<StateId>& live = scratch->live;
  std::vector<StateId>& next = scratch->next;
  std::vector<uint64_t>& seen = scratch->seen;
  scratch->types.clear();
  for (SymbolId p : TypesOfTag(tag)) {
    const Dfa& dfa = *content_dfa_[p];
    if (seen.size() < dfa.num_states()) seen.resize(dfa.num_states());
    live.assign(1, dfa.start());
    for (std::span<const SymbolId> child : kids) {
      const uint64_t stamp = ++scratch->stamp;
      next.clear();
      for (StateId s : live) {
        for (SymbolId q : child) {
          const StateId to = dfa.Next(s, q);
          if (seen[to] != stamp) {
            seen[to] = stamp;
            next.push_back(to);
          }
        }
      }
      live.swap(next);
      if (live.empty()) break;
    }
    if (std::any_of(live.begin(), live.end(),
                    [&dfa](StateId s) { return dfa.accepting(s); })) {
      scratch->types.push_back(p);
    }
  }
  return scratch->types;
}

Result<SpecializedDtd::NodeTypes> SpecializedDtd::PossibleTypes(
    const UnrankedTree& tree) const {
  // Bottom-up, since children have smaller NodeIds than their parents.
  NodeTypes possible;
  possible.start.reserve(tree.size() + 1);
  possible.start.push_back(0);
  StepScratch scratch;
  std::vector<std::span<const SymbolId>> kids;
  for (NodeId n = 0; n < tree.size(); ++n) {
    SymbolId tag = tree.tag(n);
    if (tag >= tags_.size()) {
      return Status::InvalidArgument("node " + std::to_string(n) +
                                     " has a tag outside the DTD alphabet");
    }
    kids.clear();
    for (NodeId child : tree.children(n)) kids.push_back(possible.of(child));
    std::span<const SymbolId> mine = NodeTypesOf(tag, kids, &scratch);
    possible.types.insert(possible.types.end(), mine.begin(), mine.end());
    possible.start.push_back(possible.types.size());
  }
  return possible;
}

bool SpecializedDtd::HasRootType(std::span<const SymbolId> types) const {
  return std::any_of(root_types_.begin(), root_types_.end(), [&](SymbolId r) {
    return std::binary_search(types.begin(), types.end(), r);
  });
}

Result<bool> SpecializedDtd::Accepts(const UnrankedTree& tree) const {
  if (!finalized_) {
    return Status::FailedPrecondition("DTD not finalized");
  }
  if (tree.empty()) return false;
  PEBBLETC_ASSIGN_OR_RETURN(NodeTypes possible, PossibleTypes(tree));
  return HasRootType(possible.of(tree.root()));
}

Status SpecializedDtd::Validate(const UnrankedTree& tree) const {
  if (!finalized_) return Status::FailedPrecondition("DTD not finalized");
  if (tree.empty()) return Status::InvalidArgument("empty document");
  PEBBLETC_ASSIGN_OR_RETURN(NodeTypes possible, PossibleTypes(tree));
  if (HasRootType(possible.of(tree.root()))) return Status::OK();
  // Diagnose: find the lowest node with no assignable type.
  for (NodeId n = 0; n < tree.size(); ++n) {
    if (possible.of(n).empty()) return NodeDiagnostic(tree.tag(n), n);
  }
  return Status::InvalidArgument(
      "document root does not match the DTD root type");
}

Status SpecializedDtd::NodeDiagnostic(SymbolId tag, size_t n) const {
  if (TypesOfTag(tag).empty()) {
    return Status::InvalidArgument("element '" + tags_.Name(tag) +
                                   "' (node " + std::to_string(n) +
                                   ") is not declared in the DTD");
  }
  return Status::InvalidArgument("content of element '" + tags_.Name(tag) +
                                 "' (node " + std::to_string(n) +
                                 ") violates its content model");
}

Status SpecializedDtd::ValidateXml(std::string_view xml) const {
  if (!finalized_) return Status::FailedPrecondition("DTD not finalized");
  // The closed elements whose parent is still open, in document order:
  // their type lists concatenated in `types`, element i's starting at
  // kid_start[i]. Each open element remembers where its children start.
  std::vector<SymbolId> types;
  std::vector<size_t> kid_start;
  struct Frame {
    SymbolId tag;
    size_t first_kid;
  };
  std::vector<Frame> open;
  std::vector<std::span<const SymbolId>> kids;
  StepScratch scratch;
  size_t closed = 0;  // the next element's node number
  XmlEventReader reader(xml);
  XmlEventReader::Event ev;
  while (true) {
    if (!reader.Next(&ev)) return reader.status();
    if (ev.kind == XmlEventReader::Kind::kEnd) break;
    if (ev.kind == XmlEventReader::Kind::kOpen) {
      const SymbolId tag = tags_.Find(ev.name);
      if (tag == kNoSymbol) {
        return Status::InvalidArgument("element '" + std::string(ev.name) +
                                       "' is not declared in the DTD");
      }
      open.push_back({tag, kid_start.size()});
      continue;
    }
    const Frame f = open.back();
    open.pop_back();
    kids.clear();
    for (size_t i = f.first_kid; i < kid_start.size(); ++i) {
      const size_t end = i + 1 < kid_start.size() ? kid_start[i + 1]
                                                  : types.size();
      kids.emplace_back(types.data() + kid_start[i], end - kid_start[i]);
    }
    std::span<const SymbolId> mine = NodeTypesOf(f.tag, kids, &scratch);
    if (mine.empty()) return NodeDiagnostic(f.tag, closed);
    if (f.first_kid < kid_start.size()) {
      types.resize(kid_start[f.first_kid]);
      kid_start.resize(f.first_kid);
    }
    kid_start.push_back(types.size());
    types.insert(types.end(), mine.begin(), mine.end());
    ++closed;
  }
  if (HasRootType(types)) return Status::OK();
  return Status::InvalidArgument(
      "document root does not match the DTD root type");
}

namespace {

struct Declaration {
  std::string type_name;
  std::string tag;
  std::string rhs;
};

Result<std::vector<Declaration>> ParseDeclarations(std::string_view text,
                                                   bool allow_specialized) {
  std::vector<Declaration> decls;
  for (const std::string& raw : SplitAndTrim(text, '\n')) {
    std::string_view line = raw;
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = TrimWhitespace(line.substr(0, hash));
      if (line.empty()) continue;
    }
    auto sep = line.find(":=");
    if (sep == std::string_view::npos) {
      return Status::ParseError("missing ':=' in '" + std::string(line) + "'");
    }
    std::string_view lhs = TrimWhitespace(line.substr(0, sep));
    std::string_view rhs = TrimWhitespace(line.substr(sep + 2));
    if (lhs.empty() || rhs.empty()) {
      return Status::ParseError("empty side in '" + std::string(line) + "'");
    }
    Declaration d;
    if (auto bracket = lhs.find('['); bracket != std::string_view::npos) {
      if (!allow_specialized) {
        return Status::ParseError(
            "specialized declaration in a plain DTD: '" + std::string(lhs) +
            "'");
      }
      if (lhs.back() != ']') {
        return Status::ParseError("malformed type[tag] in '" +
                                  std::string(lhs) + "'");
      }
      d.type_name = std::string(TrimWhitespace(lhs.substr(0, bracket)));
      d.tag = std::string(TrimWhitespace(
          lhs.substr(bracket + 1, lhs.size() - bracket - 2)));
      if (d.type_name.empty() || d.tag.empty()) {
        return Status::ParseError("malformed type[tag] in '" +
                                  std::string(lhs) + "'");
      }
    } else {
      d.type_name = std::string(lhs);
      d.tag = std::string(lhs);
    }
    d.rhs = std::string(rhs);
    decls.push_back(std::move(d));
  }
  if (decls.empty()) {
    return Status::ParseError("DTD declares no elements");
  }
  return decls;
}

Result<SpecializedDtd> ParseDtdImpl(std::string_view text,
                                    bool allow_specialized) {
  PEBBLETC_ASSIGN_OR_RETURN(std::vector<Declaration> decls,
                            ParseDeclarations(text, allow_specialized));
  // Pass 1: declare every type so content models can reference any of them.
  Alphabet type_names;
  for (const Declaration& d : decls) {
    if (type_names.Find(d.type_name) != kNoSymbol) {
      return Status::ParseError("type '" + d.type_name + "' declared twice");
    }
    type_names.Intern(d.type_name);
  }
  // Pass 2: parse content models against the closed type alphabet.
  SpecializedDtd dtd;
  for (const Declaration& d : decls) {
    auto regex = ParseRegexClosed(d.rhs, type_names);
    if (!regex.ok()) {
      return regex.status().WithContext("content model of '" + d.type_name +
                                        "'");
    }
    auto added = dtd.AddType(d.type_name, d.tag, *regex);
    if (!added.ok()) return added.status();
  }
  PEBBLETC_RETURN_IF_ERROR(dtd.AddRootType(0));  // first declaration is root
  PEBBLETC_RETURN_IF_ERROR(dtd.Finalize());
  return dtd;
}

}  // namespace

Result<SpecializedDtd> ParseDtd(std::string_view text) {
  return ParseDtdImpl(text, /*allow_specialized=*/false);
}

Result<SpecializedDtd> ParseSpecializedDtd(std::string_view text) {
  return ParseDtdImpl(text, /*allow_specialized=*/true);
}

Result<Nbta> CompileDtdToNbta(const SpecializedDtd& dtd,
                              const EncodedAlphabet& enc) {
  if (!dtd.finalized_) {
    return Status::FailedPrecondition("DTD not finalized");
  }
  if (enc.tag_symbol.size() != dtd.tags().size()) {
    return Status::InvalidArgument(
        "encoded alphabet does not match the DTD tag alphabet");
  }
  const size_t num_types = dtd.num_types();

  Nbta out;
  out.num_symbols = static_cast<uint32_t>(enc.ranked.size());

  // State layout: nil, tree[p] for each type, then per-type forest blocks
  // forest[p][s] for each content-DFA state s.
  StateId nil_state = out.AddState();
  std::vector<StateId> tree_state(num_types);
  for (size_t p = 0; p < num_types; ++p) tree_state[p] = out.AddState();
  std::vector<StateId> forest_base(num_types);
  for (size_t p = 0; p < num_types; ++p) {
    const Dfa& d = *dtd.content_dfa_[p];
    forest_base[p] = out.num_states;
    for (StateId s = 0; s < d.num_states(); ++s) out.AddState();
  }
  auto forest_state = [&](size_t p, StateId s) {
    return forest_base[p] + s;
  };

  out.AddLeafRule(enc.nil, nil_state);

  // Coercion targets: a finished tree of type q may serve as (i) the tree
  // state tree[q], or (ii) the tail of any forest, i.e. forest[p][s] whenever
  // δ_p(s, q) is accepting.
  std::vector<std::vector<StateId>> targets(num_types);
  for (size_t q = 0; q < num_types; ++q) {
    targets[q].push_back(tree_state[q]);
    for (size_t p = 0; p < num_types; ++p) {
      const Dfa& d = *dtd.content_dfa_[p];
      for (StateId s = 0; s < d.num_states(); ++s) {
        if (d.accepting(d.Next(s, static_cast<SymbolId>(q)))) {
          targets[q].push_back(forest_state(p, s));
        }
      }
    }
  }

  // Tag-node rules.
  for (size_t p = 0; p < num_types; ++p) {
    const Dfa& d = *dtd.content_dfa_[p];
    const SymbolId ranked_tag = enc.tag_symbol[dtd.TagOfType(p)];
    for (StateId target : targets[p]) {
      if (d.accepting(d.start())) {
        out.AddRule(ranked_tag, nil_state, nil_state, target);  // a(|, |)
      }
      out.AddRule(ranked_tag, forest_state(p, d.start()), nil_state, target);
    }
  }

  // Cons rules: -(tree[q], forest[p][δ_p(s,q)]) → forest[p][s].
  for (size_t p = 0; p < num_types; ++p) {
    const Dfa& d = *dtd.content_dfa_[p];
    for (StateId s = 0; s < d.num_states(); ++s) {
      for (size_t q = 0; q < num_types; ++q) {
        out.AddRule(enc.cons, tree_state[q],
                    forest_state(p, d.Next(s, static_cast<SymbolId>(q))),
                    forest_state(p, s));
      }
    }
  }

  for (SymbolId r : dtd.root_types()) {
    out.accepting[tree_state[r]] = true;
  }
  return out;
}

Result<Nbta> CompileDtdOver(const SpecializedDtd& dtd,
                            const EncodedAlphabet& target) {
  PEBBLETC_ASSIGN_OR_RETURN(EncodedAlphabet own,
                            MakeEncodedAlphabet(dtd.tags()));
  PEBBLETC_ASSIGN_OR_RETURN(Nbta raw, CompileDtdToNbta(dtd, own));
  std::vector<SymbolId> map(own.ranked.size());
  for (SymbolId s = 0; s < own.ranked.size(); ++s) {
    map[s] = target.ranked.Find(own.ranked.Name(s));
    if (map[s] == kNoSymbol) {
      return Status::InvalidArgument("DTD symbol '" + own.ranked.Name(s) +
                                     "' is missing from the target alphabet");
    }
    if (target.ranked.Rank(map[s]) != own.ranked.Rank(s)) {
      return Status::InvalidArgument("DTD symbol '" + own.ranked.Name(s) +
                                     "' has a different rank in the target");
    }
  }
  return RelabelNbta(raw, map,
                     static_cast<uint32_t>(target.ranked.size()));
}

}  // namespace pebbletc
