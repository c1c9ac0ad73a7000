#include "src/ta/inclusion.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/packed_sets.h"
#include "src/ta/antichain.h"
#include "src/ta/nbta_index.h"

namespace pebbletc {
namespace {

// Sets of B-states, one bit per state.
class BStateSets final : public AntichainDomain {
 public:
  BStateSets(const NbtaIndex& b, TaOpContext* ctx)
      : AntichainDomain((b.num_states() + 63) / 64, AntichainClosure::kSubsets),
        b_(b),
        ctx_(ctx),
        accepting_(words, 0) {
    for (StateId q = 0; q < b.num_states(); ++q) {
      if (b.nbta().accepting[q]) SetBit(accepting_.data(), q);
    }
  }

  Status Leaf(SymbolId c, uint64_t* out) override {
    for (StateId q : b_.LeafTargets(c)) SetBit(out, q);
    return Status::OK();
  }

  // Post_B(f, S1, S2): B's rules f(q1, q2) → q with q1 ∈ S1, q2 ∈ S2.
  Status Post(SymbolId f, const uint64_t* left, const uint64_t* right,
              uint64_t* out) override {
    ForEachBit(left, words, [&](StateId q1) {
      const auto row = b_.SymbolLeft(f, q1);
      TaCountRules(ctx_, row.size());
      for (const auto& rt : row) {
        if (TestBit(right, rt.right)) SetBit(out, rt.to);
      }
    });
    return Status::OK();
  }

  // S ∩ F_B = ∅: no run of B accepts the tree.
  bool Bad(const uint64_t* set) const override {
    return !Intersects(set, accepting_.data(), words);
  }

 private:
  const NbtaIndex& b_;
  TaOpContext* ctx_;
  std::vector<uint64_t> accepting_;
};

}  // namespace

Result<NbtaInclusionResult> NbtaIncludedIn(const NbtaIndex& a,
                                           const NbtaIndex& b,
                                           const RankedAlphabet& alphabet,
                                           TaOpContext* ctx) {
  PEBBLETC_CHECK(a.num_symbols() == b.num_symbols())
      << "NbtaIncludedIn requires automata over one alphabet";
  TaOpTimer timer(ctx);
  BStateSets domain(b, ctx);
  PEBBLETC_ASSIGN_OR_RETURN(std::optional<BinaryTree> bad,
                            SearchAntichain(a, alphabet, domain, ctx));
  return NbtaInclusionResult{!bad.has_value(), std::move(bad)};
}

Result<bool> NbtaEquivalent(const Nbta& a, const Nbta& b,
                            const RankedAlphabet& alphabet, TaOpContext* ctx) {
  NbtaIndex ia(a, ctx);
  NbtaIndex ib(b, ctx);
  PEBBLETC_ASSIGN_OR_RETURN(NbtaInclusionResult ab,
                            NbtaIncludedIn(ia, ib, alphabet, ctx));
  if (!ab.included) return false;
  PEBBLETC_ASSIGN_OR_RETURN(NbtaInclusionResult ba,
                            NbtaIncludedIn(ib, ia, alphabet, ctx));
  return ba.included;
}

}  // namespace pebbletc
