#include "servebench/gen.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "src/common/check.h"
#include "src/query/xslt.h"
#include "src/ta/serialize.h"
#include "src/xml/xml.h"

namespace servebench {

using pebbletc::Rng;

namespace {

/// Hands out distinct random lowercase names, never a word the XSLT syntax
/// reserves. The length comes from `len_rng`, the letters from `letters`.
class NameSource {
 public:
  std::string Next(Rng& len_rng, Rng& letters, size_t min_len,
                   size_t max_len) {
    const size_t len = static_cast<size_t>(len_rng.NextInRange(
        static_cast<int64_t>(min_len), static_cast<int64_t>(max_len)));
    while (true) {
      std::string name;
      for (size_t i = 0; i < len; ++i) {
        name.push_back(static_cast<char>('a' + letters.NextBelow(26)));
      }
      if (name == "apply" || name == "template") continue;
      if (used_.insert(name).second) return name;
    }
  }

 private:
  std::set<std::string> used_;
};

std::string FactorText(const Factor& f, const std::vector<std::string>& names) {
  switch (f.kind) {
    case FactorKind::kOne:
      return names[f.a];
    case FactorKind::kOpt:
      return names[f.a] + "?";
    case FactorKind::kStar:
      return names[f.a] + "*";
    case FactorKind::kPlus:
      return names[f.a] + "+";
    case FactorKind::kAlt:
      return "(" + names[f.a] + "|" + names[f.b] + ")";
  }
  return {};
}

std::string JoinConcat(const std::vector<std::string>& parts) {
  if (parts.empty()) return "()";
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ".";
    out += parts[i];
  }
  return out;
}

/// Structure and tag-name lengths from `rng`, letters from `name_rng`.
GenDtd GenerateDtdWith(Rng& rng, Rng& name_rng, const DtdKnobs& knobs,
                       NameSource* names) {
  PEBBLETC_CHECK(knobs.num_tags >= 2) << "a generated DTD needs two tags";
  const size_t n = knobs.num_tags;
  GenDtd dtd;
  for (size_t i = 0; i < n; ++i) {
    dtd.tags.push_back(
        names->Next(rng, name_rng, knobs.min_tag_len, knobs.max_tag_len));
  }
  // Which tags each production names, in order. Every tag j >= 2 hangs off
  // some earlier tag, so all tags are reachable; the root's first reference
  // is the record tag 1.
  std::vector<std::vector<uint32_t>> refs(n);
  refs[0].push_back(1);
  for (uint32_t j = 2; j < n; ++j) {
    uint32_t parent = static_cast<uint32_t>(rng.NextBelow(j));
    for (uint32_t tries = 0;
         tries < j && refs[parent].size() >= knobs.max_factors; ++tries) {
      parent = (parent + 1) % j;
    }
    refs[parent].push_back(j);
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (refs[i].size() >= knobs.max_factors || !rng.NextBool(0.5)) continue;
    const bool back = rng.NextBool(knobs.back_edge_p);
    const uint32_t lo = back ? 0 : i + 1;
    const uint32_t hi = back ? i : static_cast<uint32_t>(n - 1);
    if (lo > hi) continue;
    const uint32_t j =
        static_cast<uint32_t>(rng.NextInRange(lo, static_cast<int64_t>(hi)));
    if (std::find(refs[i].begin(), refs[i].end(), j) == refs[i].end()) {
      refs[i].push_back(j);
    }
  }
  // Factor kinds, highest tag first so referenced smallest-tree sizes are
  // known when a required factor is considered.
  dtd.content.resize(n);
  std::vector<size_t> min_nodes(n, 1);
  for (size_t ii = n; ii-- > 0;) {
    const uint32_t i = static_cast<uint32_t>(ii);
    size_t min_i = 1;
    const std::vector<uint32_t>& r = refs[i];
    for (size_t k = 0; k < r.size(); ++k) {
      const uint32_t j = r[k];
      Factor f;
      f.a = j;
      if (j <= i) {
        f.kind = rng.NextBool(0.5) ? FactorKind::kOpt : FactorKind::kStar;
      } else if (i == 0 && k == 0) {
        f.kind = FactorKind::kStar;  // the record factor
      } else {
        const double u = rng.NextDouble();
        f.kind = u < 0.35   ? FactorKind::kOne
                 : u < 0.55 ? FactorKind::kOpt
                 : u < 0.80 ? FactorKind::kStar
                 : u < 0.90 ? FactorKind::kPlus
                            : FactorKind::kAlt;
        if (f.kind == FactorKind::kAlt) {
          if (k + 1 < r.size() && r[k + 1] > i) {
            f.b = r[++k];
          } else {
            f.kind = FactorKind::kOne;
          }
        }
      }
      const bool required = f.kind == FactorKind::kOne ||
                            f.kind == FactorKind::kPlus ||
                            f.kind == FactorKind::kAlt;
      if (required) {
        const size_t need = f.kind == FactorKind::kAlt
                                ? std::min(min_nodes[f.a], min_nodes[f.b])
                                : min_nodes[f.a];
        if (min_i + need > knobs.max_min_nodes) {
          if (f.kind == FactorKind::kAlt) {
            // Keep both symbols named: split into two optional factors.
            dtd.content[i].push_back(Factor{FactorKind::kOpt, f.a, 0});
            f = Factor{FactorKind::kOpt, f.b, 0};
          } else {
            f.kind = FactorKind::kOpt;
          }
        } else {
          min_i += need;
        }
      }
      dtd.content[i].push_back(f);
    }
    min_nodes[i] = min_i;
  }
  return dtd;
}

// --- documents ---------------------------------------------------------------

class TreeBuilder {
 public:
  TreeBuilder(const GenDtd& dtd, Rng& rng, const DocKnobs& knobs)
      : dtd_(dtd), rng_(rng), knobs_(knobs) {}

  GenTree* tree() { return &tree_; }

  uint32_t NewNode(uint32_t tag) {
    tree_.nodes.push_back(GenTree::Node{tag, {}});
    return static_cast<uint32_t>(tree_.nodes.size() - 1);
  }

  /// Children for one factor of a node at `depth`.
  void ExpandFactor(const Factor& f, size_t depth,
                    std::vector<uint32_t>* kids) {
    const bool grow = depth < knobs_.max_depth && budget_ > 0;
    size_t reps = 0;
    uint32_t sym = f.a;
    switch (f.kind) {
      case FactorKind::kOne:
        reps = 1;
        break;
      case FactorKind::kOpt:
        reps = grow && rng_.NextBool(0.5) ? 1 : 0;
        break;
      case FactorKind::kStar:
        reps = grow ? Geometric() : 0;
        break;
      case FactorKind::kPlus:
        reps = 1 + (grow ? Geometric() : 0);
        break;
      case FactorKind::kAlt:
        reps = 1;
        if (rng_.NextBool(0.5)) sym = f.b;
        break;
    }
    for (size_t r = 0; r < reps; ++r) kids->push_back(Build(sym, depth + 1));
  }

  uint32_t Build(uint32_t tag, size_t depth) {
    --budget_;
    std::vector<uint32_t> kids;
    for (const Factor& f : dtd_.content[tag]) ExpandFactor(f, depth, &kids);
    const uint32_t id = NewNode(tag);
    tree_.nodes[id].kids = std::move(kids);
    return id;
  }

  void set_budget(int64_t budget) { budget_ = budget; }

 private:
  size_t Geometric() {
    const double p = knobs_.star_mean / (1.0 + knobs_.star_mean);
    size_t n = 0;
    while (n < 16 && rng_.NextBool(p)) ++n;
    return n;
  }

  const GenDtd& dtd_;
  Rng& rng_;
  const DocKnobs& knobs_;
  GenTree tree_;
  int64_t budget_ = 0;
};

size_t SubtreeBytes(const GenTree& t, const GenDtd& dtd, uint32_t n,
                    size_t depth, bool indent) {
  const GenTree::Node& node = t.nodes[n];
  const size_t len = dtd.tags[node.tag].size();
  if (node.kids.empty()) return len + 3 + (indent ? 2 * depth + 1 : 0);
  size_t bytes = 2 * len + 5 + (indent ? 4 * depth + 2 : 0);
  for (uint32_t k : node.kids) {
    bytes += SubtreeBytes(t, dtd, k, depth + 1, indent);
  }
  return bytes;
}

void EmitXml(const GenTree& t, const GenDtd& dtd, uint32_t n, size_t depth,
             bool indent, std::string* out) {
  const GenTree::Node& node = t.nodes[n];
  const std::string& name = dtd.tags[node.tag];
  if (indent) out->append(2 * depth, ' ');
  out->push_back('<');
  out->append(name);
  if (node.kids.empty()) {
    out->append("/>");
    if (indent) out->push_back('\n');
    return;
  }
  out->push_back('>');
  if (indent) out->push_back('\n');
  for (uint32_t k : node.kids) EmitXml(t, dtd, k, depth + 1, indent, out);
  if (indent) out->append(2 * depth, ' ');
  out->append("</");
  out->append(name);
  out->push_back('>');
  if (indent) out->push_back('\n');
}

/// Reachable nodes in preorder, with their parents (root's parent = itself).
void Reachable(const GenTree& t, std::vector<uint32_t>* order,
               std::vector<uint32_t>* parent) {
  order->clear();
  parent->assign(t.nodes.size(), t.root);
  std::vector<uint32_t> stack{t.root};
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    order->push_back(n);
    for (uint32_t k : t.nodes[n].kids) {
      (*parent)[k] = n;
      stack.push_back(k);
    }
  }
}

}  // namespace

std::string GenDtd::Text() const {
  std::string out;
  for (size_t i = 0; i < tags.size(); ++i) {
    std::vector<std::string> parts;
    for (const Factor& f : content[i]) parts.push_back(FactorText(f, tags));
    out += tags[i] + " := " + JoinConcat(parts) + "\n";
  }
  return out;
}

GenDtd GenerateDtd(Rng& shape, Rng& names, const DtdKnobs& knobs) {
  NameSource source;
  return GenerateDtdWith(shape, names, knobs, &source);
}

pebbletc::SpecializedDtd ParseGenDtd(const GenDtd& dtd) {
  pebbletc::Result<pebbletc::SpecializedDtd> parsed =
      pebbletc::ParseDtd(dtd.Text());
  PEBBLETC_CHECK(parsed.ok()) << "generated DTD does not parse: "
                              << parsed.status().ToString();
  return std::move(parsed).value();
}

GenTree GenerateTree(const GenDtd& dtd, Rng& rng, const DocKnobs& knobs) {
  TreeBuilder b(dtd, rng, knobs);
  // Every root factor but the leading record factor, expanded normally.
  b.set_budget(static_cast<int64_t>(knobs.record_nodes));
  std::vector<uint32_t> rest;
  for (size_t k = 1; k < dtd.content[0].size(); ++k) {
    b.ExpandFactor(dtd.content[0][k], 1, &rest);
  }
  const uint32_t root = b.NewNode(0);
  GenTree* t = b.tree();
  t->root = root;
  t->nodes[root].kids = rest;
  size_t bytes = SubtreeBytes(*t, dtd, root, 0, knobs.indent);
  // Records (`t1*`) lead the root's children; add them until the size is
  // reached.
  std::vector<uint32_t> records;
  while (bytes < knobs.target_bytes) {
    b.set_budget(static_cast<int64_t>(knobs.record_nodes));
    const uint32_t rec = b.Build(1, 1);
    bytes += SubtreeBytes(*t, dtd, rec, 1, knobs.indent);
    records.push_back(rec);
  }
  records.insert(records.end(), rest.begin(), rest.end());
  t->nodes[root].kids = std::move(records);
  return std::move(*t);
}

void Mutate(GenTree* tree, const GenDtd& dtd, Rng& rng, Mutation mutation) {
  std::vector<uint32_t> order, parent;
  Reachable(*tree, &order, &parent);
  if (mutation == Mutation::kDelete && order.size() < 2) {
    mutation = Mutation::kInsert;
  }
  const uint32_t ntags = static_cast<uint32_t>(dtd.tags.size());
  switch (mutation) {
    case Mutation::kNone:
      return;
    case Mutation::kSwap: {
      GenTree::Node& node = tree->nodes[order[rng.NextBelow(order.size())]];
      node.tag = (node.tag + 1 + static_cast<uint32_t>(rng.NextBelow(
                                     ntags - 1))) % ntags;
      return;
    }
    case Mutation::kInsert: {
      const uint32_t at = order[rng.NextBelow(order.size())];
      tree->nodes.push_back(
          GenTree::Node{static_cast<uint32_t>(rng.NextBelow(ntags)), {}});
      const uint32_t leaf = static_cast<uint32_t>(tree->nodes.size() - 1);
      std::vector<uint32_t>& kids = tree->nodes[at].kids;
      kids.insert(kids.begin() + static_cast<long>(rng.NextBelow(
                                     kids.size() + 1)),
                  leaf);
      return;
    }
    case Mutation::kDelete: {
      const uint32_t victim = order[1 + rng.NextBelow(order.size() - 1)];
      std::vector<uint32_t>& kids = tree->nodes[parent[victim]].kids;
      kids.erase(std::find(kids.begin(), kids.end(), victim));
      return;
    }
  }
}

std::string ToXml(const GenTree& tree, const GenDtd& dtd, bool indent) {
  std::string out;
  out.reserve(SubtreeBytes(tree, dtd, tree.root, 0, indent));
  EmitXml(tree, dtd, tree.root, 0, indent, &out);
  return out;
}

bool ExpectedValid(const GenTree& tree, const GenDtd& dtd,
                   const pebbletc::SpecializedDtd& parsed) {
  std::vector<pebbletc::SymbolId> tag_id(dtd.tags.size());
  for (size_t i = 0; i < dtd.tags.size(); ++i) {
    tag_id[i] = parsed.tags().Find(dtd.tags[i]);
    PEBBLETC_CHECK(tag_id[i] != pebbletc::kNoSymbol)
        << "tag " << dtd.tags[i] << " missing from its DTD";
  }
  // Post-order over the reachable part: children are added before parents.
  std::vector<uint32_t> order, parent;
  Reachable(tree, &order, &parent);
  pebbletc::UnrankedTree out;
  std::vector<pebbletc::NodeId> id(tree.nodes.size(), pebbletc::kNoNode);
  for (size_t i = order.size(); i-- > 0;) {
    const GenTree::Node& node = tree.nodes[order[i]];
    std::vector<pebbletc::NodeId> kids;
    kids.reserve(node.kids.size());
    for (uint32_t k : node.kids) kids.push_back(id[k]);
    id[order[i]] = out.AddNode(tag_id[node.tag], std::move(kids));
  }
  out.SetRoot(id[tree.root]);
  pebbletc::Result<bool> accepted = parsed.Accepts(out);
  PEBBLETC_CHECK(accepted.ok()) << accepted.status().ToString();
  return *accepted;
}

size_t CountNodes(const GenTree& tree) {
  std::vector<uint32_t> order, parent;
  Reachable(tree, &order, &parent);
  return order.size();
}

// --- the typecheck family ------------------------------------------------------

std::string TcProgram::XsltText() const {
  std::string out;
  for (size_t i = 0; i < input.tags.size(); ++i) {
    std::vector<std::string> items;
    if (!static_tag[i].empty()) items.push_back(static_tag[i]);
    if (applies[i] && !input.content[i].empty()) items.push_back("apply");
    out += "template " + input.tags[i] + " { " + out_tag[i];
    if (!items.empty()) {
      out += " { ";
      for (size_t k = 0; k < items.size(); ++k) {
        if (k > 0) out += "; ";
        out += items[k];
      }
      out += " }";
    }
    out += " }\n";
  }
  return out;
}

std::vector<TcProgram::Tightening> TcProgram::Tightenings() const {
  // Tags the program processes: the root, and every tag named by a
  // processed tag whose template applies templates to its children.
  const size_t n = input.tags.size();
  std::vector<bool> processed(n, false);
  std::vector<uint32_t> queue{0};
  processed[0] = true;
  while (!queue.empty()) {
    const uint32_t i = queue.back();
    queue.pop_back();
    if (!applies[i]) continue;
    for (const Factor& f : input.content[i]) {
      std::vector<uint32_t> named{f.a};
      if (f.kind == FactorKind::kAlt) named.push_back(f.b);
      for (uint32_t j : named) {
        if (!processed[j]) {
          processed[j] = true;
          queue.push_back(j);
        }
      }
    }
  }
  std::vector<Tightening> out;
  for (uint32_t i = 0; i < n; ++i) {
    if (!processed[i] || !applies[i]) continue;
    for (uint32_t k = 0; k < input.content[i].size(); ++k) {
      if (input.content[i][k].kind != FactorKind::kOne) {
        out.push_back(Tightening{i, k});
      }
    }
  }
  return out;
}

std::string TcProgram::OutputDtdText(int tightening) const {
  const std::vector<Tightening> tight = Tightenings();
  PEBBLETC_CHECK(tightening < static_cast<int>(tight.size()))
      << "no tightening " << tightening;
  const size_t n = input.tags.size();
  std::vector<std::string> body(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> parts;
    if (!static_tag[i].empty()) parts.push_back(static_tag[i]);
    if (applies[i]) {
      for (uint32_t k = 0; k < input.content[i].size(); ++k) {
        Factor f = input.content[i][k];
        if (tightening >= 0 && tight[tightening].tag == i &&
            tight[tightening].factor == k) {
          if (f.kind == FactorKind::kOpt || f.kind == FactorKind::kStar) {
            continue;
          }
          f.kind = FactorKind::kOne;  // x+ -> x, (x|y) -> x
        }
        parts.push_back(FactorText(f, out_tag));
      }
    }
    body[i] = JoinConcat(parts);
  }
  std::string out;
  for (size_t i = 0; i < n; ++i) out += out_tag[i] + " := " + body[i] + "\n";
  for (size_t i = 0; i < n; ++i) {
    if (!static_tag[i].empty()) out += static_tag[i] + " := ()\n";
  }
  return out;
}

TcProgram GenerateProgram(Rng& shape, Rng& name_rng, const TcKnobs& knobs) {
  NameSource names;
  TcProgram p;
  DtdKnobs dk;
  dk.num_tags = knobs.num_tags;
  dk.min_tag_len = 2;
  dk.max_tag_len = 10;
  dk.max_factors = knobs.max_factors;
  dk.max_min_nodes = 6;
  p.input = GenerateDtdWith(shape, name_rng, dk, &names);
  const size_t n = p.input.tags.size();
  for (size_t i = 0; i < n; ++i) {
    p.out_tag.push_back(names.Next(shape, name_rng, 2, 10));
    p.static_tag.push_back(shape.NextBool(knobs.static_p)
                               ? names.Next(shape, name_rng, 2, 10)
                               : std::string());
    p.applies.push_back(i == 0 || !shape.NextBool(knobs.drop_p));
  }
  return p;
}

pebbletc::Result<std::string> DtdContainer(const std::string& dtd_text) {
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::SpecializedDtd dtd,
                            pebbletc::ParseDtd(dtd_text));
  std::string payload;
  pebbletc::SerializeDtdArtifact(dtd, &payload);
  std::string out;
  pebbletc::WrapTaArtifact(pebbletc::TaArtifactKind::kDtd, payload, &out);
  return out;
}

namespace {

/// Parses `xml` over a copy of `dtd`'s tags and runs Accepts. A tag outside
/// the DTD is a rejection.
pebbletc::Result<bool> XmlConforms(const std::string& xml,
                                   const pebbletc::SpecializedDtd& dtd) {
  pebbletc::Alphabet tags = dtd.tags();
  const size_t known = tags.size();
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::UnrankedTree tree,
                            pebbletc::ParseXml(xml, &tags));
  if (tags.size() != known) return false;
  return dtd.Accepts(tree);
}

}  // namespace

pebbletc::Status CheckCounterexample(const TcProgram& program,
                                     const std::string& output_dtd_text,
                                     const std::string& input_xml) {
  using pebbletc::Status;
  pebbletc::SpecializedDtd in = ParseGenDtd(program.input);
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::SpecializedDtd exact,
                            pebbletc::ParseDtd(program.OutputDtdText(-1)));
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::SpecializedDtd out,
                            pebbletc::ParseDtd(output_dtd_text));
  PEBBLETC_ASSIGN_OR_RETURN(bool in_ok, XmlConforms(input_xml, in));
  if (!in_ok) {
    return Status::Internal("counterexample input does not conform to the "
                            "input DTD: " + input_xml);
  }
  pebbletc::Alphabet in_tags, out_tags;
  PEBBLETC_ASSIGN_OR_RETURN(
      pebbletc::XsltProgram xslt,
      pebbletc::ParseXslt(program.XsltText(), &in_tags, &out_tags));
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::UnrankedTree input,
                            pebbletc::ParseXml(input_xml, &in_tags));
  PEBBLETC_ASSIGN_OR_RETURN(
      pebbletc::UnrankedTree output,
      pebbletc::ApplyXsltReference(xslt, input, in_tags));
  const std::string output_xml = pebbletc::XmlString(output, out_tags);
  PEBBLETC_ASSIGN_OR_RETURN(bool image_ok, XmlConforms(output_xml, exact));
  if (!image_ok) {
    return Status::Internal("reference output leaves the exact image: " +
                            output_xml);
  }
  PEBBLETC_ASSIGN_OR_RETURN(bool out_ok, XmlConforms(output_xml, out));
  if (out_ok) {
    return Status::Internal("reference output conforms to the output DTD, "
                            "so the input is no counterexample: " +
                            input_xml);
  }
  return Status::OK();
}

// --- sampling -----------------------------------------------------------------

std::vector<size_t> StratifiedLogSizes(Rng& rng, size_t n, size_t lo,
                                       size_t hi) {
  std::vector<size_t> sizes(n);
  const double span = std::log(static_cast<double>(hi) / lo);
  for (size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.NextDouble()) / n;
    sizes[i] = static_cast<size_t>(lo * std::exp(u * span));
  }
  return sizes;
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

}  // namespace servebench
