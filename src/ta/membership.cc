#include "src/ta/membership.h"

#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/xml/xml.h"

namespace pebbletc {

Result<MembershipEngine> MembershipEngine::Compile(const Nbta& nbta,
                                                   const RankedAlphabet& sigma,
                                                   TaOpContext* ctx,
                                                   TaOpCache* cache) {
  MembershipEngine engine;
  engine.nbta_ = std::make_shared<const Nbta>(nbta);
  engine.index_ = std::make_shared<const NbtaIndex>(*engine.nbta_, ctx);
  TaAlgebra algebra(cache);
  Result<std::shared_ptr<const Dbta>> table =
      algebra.Determinize(*engine.index_, sigma, ctx);
  if (table.ok()) {
    engine.table_ = std::move(*table);
    return engine;
  }
  if (table.status().code() == StatusCode::kResourceExhausted) {
    // Determinization blew the state budget: degrade to the reach-set route.
    // Queries stay correct and report the degradation via
    // membership_fallbacks.
    return engine;
  }
  return table.status();
}

Result<bool> MembershipEngine::Accepts(const BinaryTree& tree,
                                       TaOpContext* ctx) const {
  PEBBLETC_CHECK(nbta_ != nullptr) << "Accepts on a default MembershipEngine";
  if (tree.empty()) return Status::InvalidArgument("membership of empty tree");
  if (table_ == nullptr) {
    if (ctx != nullptr) ++ctx->counters.membership_fallbacks;
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
    bool accepted = NbtaAccepts(*index_, tree);
    PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
    return accepted;
  }
  const Dbta& d = *table_;
  // Children are always created before parents (BinaryTree invariant), so
  // ascending NodeId order is a valid bottom-up evaluation order.
  std::vector<StateId> state(tree.size(), StateId{0});
  for (NodeId n = 0; n < tree.size(); ++n) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
    state[n] = tree.IsLeaf(n)
                   ? d.LeafState(tree.symbol(n))
                   : d.Next(tree.symbol(n), state[tree.left(n)],
                            state[tree.right(n)]);
  }
  if (ctx != nullptr) ++ctx->counters.membership_fast_hits;
  return d.accepting(state[tree.root()]);
}

Result<StreamVerdict> StreamingValidateXml(std::string_view xml,
                                           const Dbta& table,
                                           const EncodedAlphabet& enc,
                                           const Alphabet& tags,
                                           TaOpContext* ctx) {
  // One frame per open element: its encoded tag symbol and where its
  // children's states start on the shared state stack.
  struct Frame {
    SymbolId tag_sym;
    size_t child_base;
  };
  std::vector<Frame> frames;
  std::vector<StateId> states;
  const StateId qnil = table.LeafState(enc.nil);

  XmlEventReader reader(xml);
  StreamVerdict verdict;
  bool folding = true;  // false once an unknown tag stops the fold
  while (true) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
    PEBBLETC_ASSIGN_OR_RETURN(XmlEventReader::Event ev, reader.Next());
    if (ev.kind == XmlEventReader::Kind::kEnd) break;
    if (!folding) continue;  // draining for well-formedness only
    if (ev.kind == XmlEventReader::Kind::kOpen) {
      const SymbolId tag = tags.Find(ev.name);
      if (tag == kNoSymbol) {
        verdict.unknown_tag = std::string(ev.name);
        folding = false;
        continue;
      }
      frames.push_back({enc.tag_symbol[tag], states.size()});
    } else {
      // encode(a(T1..Tk)) = a(encode_f(T1..Tk), |); the forest is the
      // right-fold of the children's states over cons, and a childless
      // element is a(|, |).
      const Frame f = frames.back();
      frames.pop_back();
      StateId q;
      if (states.size() == f.child_base) {
        q = table.Next(f.tag_sym, qnil, qnil);
      } else {
        StateId forest = states.back();
        for (size_t i = states.size() - 1; i-- > f.child_base;) {
          forest = table.Next(enc.cons, states[i], forest);
        }
        states.resize(f.child_base);
        q = table.Next(f.tag_sym, forest, qnil);
      }
      states.push_back(q);
    }
  }
  if (!folding) return verdict;  // unknown tag: well-formed but not accepted
  PEBBLETC_CHECK(states.size() == 1) << "streaming fold imbalance";
  verdict.accepted = table.accepting(states.back());
  if (ctx != nullptr) ++ctx->counters.membership_fast_hits;
  return verdict;
}

}  // namespace pebbletc
