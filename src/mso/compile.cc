#include "src/mso/compile.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/mso/track_alphabet.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_cache.h"

namespace pebbletc {

namespace {

using K = MsoFormula::Kind;

// A compiled sub-formula: the automaton together with its rule index, heap-
// allocated so the index's internal pointer stays valid across cache moves.
struct CompiledNbta {
  CompiledNbta(Nbta a, TaOpContext* ctx)
      : nbta(std::move(a)), index(nbta, ctx) {}
  const Nbta nbta;
  NbtaIndex index;
};
using CompiledPtr = std::shared_ptr<const CompiledNbta>;

class Compiler {
 public:
  Compiler(const TrackAlphabet& ext, const MsoCompileOptions& options,
           TaOpContext* ctx)
      : ext_(ext), options_(options), ctx_(ctx) {}

  Result<CompiledPtr> Compile(const MsoPtr& f) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
    auto it = cache_.find(f.get());
    if (it != cache_.end()) {
      if (options_.stats != nullptr) options_.stats->cache_hits++;
      return it->second;
    }
    PEBBLETC_ASSIGN_OR_RETURN(Nbta a, CompileUncached(f));
    a = TrimNbta(NbtaIndex(a, ctx_), ctx_);
    // Value-returning ops (intersect, trim, union, relabel) drain silently
    // on interruption; refuse to cache or build on partial automata.
    PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx_));
    CompiledPtr compiled = std::make_shared<CompiledNbta>(std::move(a), ctx_);
    Note(compiled->nbta);
    cache_.emplace(f.get(), compiled);
    return compiled;
  }

 private:
  void Note(const Nbta& a) {
    if (options_.stats == nullptr) return;
    options_.stats->automata_built++;
    options_.stats->max_intermediate_states =
        std::max(options_.stats->max_intermediate_states,
                 static_cast<size_t>(a.num_states));
  }

  // Free first-order variables of f (memoized on the shared AST).
  const std::set<MsoVarId>& FreeFoVars(const MsoPtr& f) {
    auto it = free_cache_.find(f.get());
    if (it != free_cache_.end()) return it->second;
    std::set<MsoVarId> out;
    switch (f->kind()) {
      case K::kTrue:
      case K::kFalse:
        break;
      case K::kLabel:
      case K::kRoot:
      case K::kLeaf:
        out.insert(f->var1());
        break;
      case K::kSucc1:
      case K::kSucc2:
      case K::kEq:
        out.insert(f->var1());
        out.insert(f->var2());
        break;
      case K::kIn:
        out.insert(f->var1());  // var2 is second-order
        break;
      case K::kNot:
        out = FreeFoVars(f->left());
        break;
      case K::kAnd:
      case K::kOr: {
        out = FreeFoVars(f->left());
        const auto& r = FreeFoVars(f->right());
        out.insert(r.begin(), r.end());
        break;
      }
      case K::kExistsFo:
        out = FreeFoVars(f->left());
        out.erase(f->var1());
        break;
      case K::kExistsSo:
        out = FreeFoVars(f->left());
        break;
    }
    return free_cache_.emplace(f.get(), std::move(out)).first->second;
  }

  // --- primitive automata over the extended alphabet ---

  // Exactly one position carries track `t`.
  Nbta Singleton(uint32_t t) {
    Nbta a;
    a.num_symbols = static_cast<uint32_t>(ext_.ranked().size());
    StateId s0 = a.AddState();  // no mark in subtree
    StateId s1 = a.AddState();  // exactly one mark
    a.accepting[s1] = true;
    for (SymbolId sym : ext_.ranked().LeafSymbols()) {
      a.AddLeafRule(sym, ext_.BitOf(sym, t) ? s1 : s0);
    }
    for (SymbolId sym : ext_.ranked().BinarySymbols()) {
      if (ext_.BitOf(sym, t)) {
        a.AddRule(sym, s0, s0, s1);
      } else {
        a.AddRule(sym, s0, s0, s0);
        a.AddRule(sym, s1, s0, s1);
        a.AddRule(sym, s0, s1, s1);
      }
    }
    return a;
  }

  // Every node's symbol satisfies `pred`.
  template <typename Pred>
  Nbta LocalAll(Pred pred) {
    Nbta a;
    a.num_symbols = static_cast<uint32_t>(ext_.ranked().size());
    StateId q = a.AddState();
    a.accepting[q] = true;
    for (SymbolId sym : ext_.ranked().LeafSymbols()) {
      if (pred(sym)) a.AddLeafRule(sym, q);
    }
    for (SymbolId sym : ext_.ranked().BinarySymbols()) {
      if (pred(sym)) a.AddRule(sym, q, q, q);
    }
    return a;
  }

  // Track t is set at the subtree root and nowhere else.
  Nbta RootMarked(uint32_t t) {
    Nbta a;
    a.num_symbols = static_cast<uint32_t>(ext_.ranked().size());
    StateId none = a.AddState();
    StateId root = a.AddState();
    a.accepting[root] = true;
    for (SymbolId sym : ext_.ranked().LeafSymbols()) {
      a.AddLeafRule(sym, ext_.BitOf(sym, t) ? root : none);
    }
    for (SymbolId sym : ext_.ranked().BinarySymbols()) {
      a.AddRule(sym, none, none, ext_.BitOf(sym, t) ? root : none);
    }
    return a;
  }

  // succ1/succ2: the y-marked node is the left (right) child of the x-marked
  // node; exactly one mark each (enforced here directly).
  Nbta Successor(uint32_t x, uint32_t y, bool left_child) {
    Nbta a;
    a.num_symbols = static_cast<uint32_t>(ext_.ranked().size());
    StateId none = a.AddState();
    StateId y_root = a.AddState();  // subtree root is the y node; no x inside
    StateId done = a.AddState();    // both marks inside, constraint satisfied
    a.accepting[done] = true;
    for (SymbolId sym : ext_.ranked().LeafSymbols()) {
      const bool bx = ext_.BitOf(sym, x), by = ext_.BitOf(sym, y);
      if (!bx && !by) a.AddLeafRule(sym, none);
      if (!bx && by) a.AddLeafRule(sym, y_root);
      // bx: x at a leaf has no children — unsatisfiable, no rule.
    }
    for (SymbolId sym : ext_.ranked().BinarySymbols()) {
      const bool bx = ext_.BitOf(sym, x), by = ext_.BitOf(sym, y);
      if (!bx && !by) {
        a.AddRule(sym, none, none, none);
        a.AddRule(sym, done, none, done);
        a.AddRule(sym, none, done, done);
      } else if (!bx && by) {
        a.AddRule(sym, none, none, y_root);
      } else if (bx && !by) {
        if (left_child) {
          a.AddRule(sym, y_root, none, done);
        } else {
          a.AddRule(sym, none, y_root, done);
        }
      }
      // bx && by: x and y on the same node — unsatisfiable.
    }
    return a;
  }

  // Intersection of two freshly built primitive automata. Stays off the op
  // cache: primitives have a handful of states, so the product is cheaper
  // than hashing it (docs/CACHING.md).
  Nbta IntersectFresh(Nbta l, Nbta r) {
    return IntersectNbta(NbtaIndex(l, ctx_), NbtaIndex(r, ctx_), ctx_);
  }

  Result<Nbta> CompileUncached(const MsoPtr& f) {
    switch (f->kind()) {
      case K::kTrue:
        return UniversalNbta(ext_.ranked());
      case K::kFalse:
        return EmptyLanguageNbta(ext_.ranked());
      case K::kLabel: {
        const uint32_t x = f->var1();
        const SymbolId a = f->symbol();
        return IntersectFresh(Singleton(x),
                              LocalAll([&](SymbolId sym) {
                                return !ext_.BitOf(sym, x) ||
                                       ext_.BaseOf(sym) == a;
                              }));
      }
      case K::kSucc1:
        return Successor(f->var1(), f->var2(), /*left_child=*/true);
      case K::kSucc2:
        return Successor(f->var1(), f->var2(), /*left_child=*/false);
      case K::kEq: {
        const uint32_t x = f->var1(), y = f->var2();
        return IntersectFresh(Singleton(x),
                              LocalAll([&](SymbolId sym) {
                                return ext_.BitOf(sym, x) ==
                                       ext_.BitOf(sym, y);
                              }));
      }
      case K::kIn: {
        const uint32_t x = f->var1(), set = f->var2();
        return IntersectFresh(Singleton(x),
                              LocalAll([&](SymbolId sym) {
                                return !ext_.BitOf(sym, x) ||
                                       ext_.BitOf(sym, set);
                              }));
      }
      case K::kRoot:
        return RootMarked(f->var1());
      case K::kLeaf: {
        const uint32_t x = f->var1();
        return IntersectFresh(
            Singleton(x), LocalAll([&](SymbolId sym) {
              return !ext_.BitOf(sym, x) || ext_.ranked().Rank(sym) == 0;
            }));
      }
      case K::kNot: {
        PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr inner, Compile(f->left()));
        if (options_.stats != nullptr) options_.stats->complementations++;
        auto comp = alg_.Complement(inner->index, ext_.ranked(), ctx_);
        if (!comp.ok()) return comp.status();
        // Complement may accept ill-marked trees; re-impose singleton
        // validity for the free first-order variables.
        Nbta out = std::move(*comp);
        for (MsoVarId v : FreeFoVars(f)) {
          out = IntersectFresh(std::move(out), Singleton(v));
          out = TrimNbta(NbtaIndex(out, ctx_), ctx_);
        }
        return out;
      }
      case K::kAnd: {
        PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr l, Compile(f->left()));
        PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr r, Compile(f->right()));
        return alg_.Intersect(l->index, r->index, ctx_);
      }
      case K::kOr: {
        PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr l, Compile(f->left()));
        PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr r, Compile(f->right()));
        return UnionNbta(l->nbta, r->nbta);
      }
      case K::kExistsFo:
      case K::kExistsSo: {
        PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr inner, Compile(f->left()));
        return Project(inner->nbta, f->var1());
      }
    }
    return Status::Internal("unknown MSO node kind");
  }

  // Existential projection of one track: the result ignores track `t` and
  // accepts iff some setting of it is accepted.
  Result<Nbta> Project(const Nbta& a, uint32_t t) {
    std::vector<SymbolId> drop = ext_.DropTrackMap(t);
    const uint32_t reduced_size =
        static_cast<uint32_t>(ext_.ranked().size() >> 1);
    Nbta projected = RelabelNbta(a, drop, reduced_size);
    return InverseRelabelNbta(NbtaIndex(projected, ctx_), drop,
                              static_cast<uint32_t>(ext_.ranked().size()),
                              ctx_);
  }

  const TrackAlphabet& ext_;
  MsoCompileOptions options_;
  TaOpContext* ctx_;
  // Dispatch for the expensive ops (complement, ∧-product). The AST-pointer
  // cache_ above dedupes shared subformulas of *this* sentence; the
  // algebra's content-addressed cache additionally spans sentences and
  // processes (docs/CACHING.md).
  const TaAlgebra alg_;
  std::unordered_map<const MsoFormula*, CompiledPtr> cache_;
  std::unordered_map<const MsoFormula*, std::set<MsoVarId>> free_cache_;
};

}  // namespace

Result<Nbta> CompileMsoSentence(const MsoPtr& sentence,
                                const RankedAlphabet& base,
                                const MsoCompileOptions& options) {
  PEBBLETC_ASSIGN_OR_RETURN(MsoAnalysis analysis, AnalyzeMso(sentence));
  for (MsoVarId v = 0; v < analysis.variables.size(); ++v) {
    if (analysis.variables[v].used && !analysis.variables[v].quantified) {
      return Status::InvalidArgument(
          "CompileMsoSentence requires a sentence; variable " +
          std::to_string(v) + " is free");
    }
  }
  const uint32_t num_tracks =
      static_cast<uint32_t>(analysis.variables.size());
  PEBBLETC_ASSIGN_OR_RETURN(TrackAlphabet ext,
                            TrackAlphabet::Make(base, num_tracks));
  // Budgets come from the shared pipeline context, or from a local one with
  // default budgets.
  TaOpContext local_ctx;
  TaOpContext* ctx = options.ctx != nullptr ? options.ctx : &local_ctx;
  Compiler compiler(ext, options, ctx);
  PEBBLETC_ASSIGN_OR_RETURN(CompiledPtr over_ext, compiler.Compile(sentence));

  // Drop all tracks at once: since the sentence has no free variables, the
  // automaton's acceptance is track-independent, so the relabeled image is
  // exactly { t | t ⊨ sentence }.
  Nbta over_base = RelabelNbta(over_ext->nbta, ext.ToBaseMap(),
                               static_cast<uint32_t>(base.size()));
  Nbta trimmed = TrimNbta(NbtaIndex(over_base, ctx), ctx);
  PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
  return trimmed;
}

Result<bool> MsoSatisfiable(const MsoPtr& sentence, const RankedAlphabet& base,
                            const MsoCompileOptions& options) {
  PEBBLETC_ASSIGN_OR_RETURN(Nbta a, CompileMsoSentence(sentence, base, options));
  return !IsEmptyNbta(a);
}

}  // namespace pebbletc
