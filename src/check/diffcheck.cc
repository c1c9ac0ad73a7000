#include "src/check/diffcheck.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/reference_ops.h"
#include "src/check/shrink.h"
#include "src/common/check.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/typechecker.h"
#include "src/pt/eval.h"
#include "src/pt/paper_machines.h"
#include "src/pt/print.h"
#include "src/ta/convert.h"
#include "src/ta/enumerate.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/serve/validate.h"
#include "src/ta/membership.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/serialize.h"
#include "src/ta/random_ta.h"
#include "src/ta/topdown.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"
#include "src/xml/xml.h"

namespace pebbletc {

namespace {

// Extended-alphabet symbols mapped back onto the base alphabet: a0,b0,a2,b2
// are fixed by the relabeling, u0 -> a0 and u2 -> a2 (rank-preserving).
const std::vector<SymbolId> kExtToBase = {0, 1, 2, 3, 0, 2};

// splitmix64-style mixing so that (seed, iteration) pairs land on
// well-separated Rng streams even for adjacent seeds.
uint64_t MixSeed(uint64_t seed, uint64_t iteration) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (iteration + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// `tree` with every symbol s replaced by map[s]. The map must be
// rank-preserving for the result to be well-ranked.
BinaryTree RelabelTree(const BinaryTree& tree,
                       const std::vector<SymbolId>& map) {
  BinaryTree out;
  std::vector<NodeId> copied(tree.size());
  // NodeId order has children before parents, so one forward pass suffices.
  for (NodeId n = 0; n < tree.size(); ++n) {
    SymbolId s = map[tree.symbol(n)];
    copied[n] = tree.IsLeaf(n)
                    ? out.AddLeaf(s)
                    : out.AddInternal(s, copied[tree.left(n)],
                                      copied[tree.right(n)]);
  }
  out.SetRoot(copied[tree.root()]);
  return out;
}

// Does any preimage of `u` under `map` (a tree over the larger alphabet that
// relabels to `u`) lie in inst(a)? Brute force over all symbol choices.
bool HasAcceptedPreimage(const Nbta& a, const BinaryTree& u,
                         const std::vector<SymbolId>& map,
                         const RankedAlphabet& large_sigma) {
  // by_small[s] = symbols of the larger alphabet mapping to s.
  std::vector<std::vector<SymbolId>> by_small;
  for (SymbolId big = 0; big < map.size(); ++big) {
    SymbolId small = map[big];
    if (by_small.size() <= small) by_small.resize(small + 1);
    by_small[small].push_back(big);
  }
  std::vector<SymbolId> choice(u.size());
  std::function<bool(NodeId)> assign = [&](NodeId n) -> bool {
    if (n == u.size()) {
      BinaryTree candidate;
      std::vector<NodeId> copied(u.size());
      for (NodeId m = 0; m < u.size(); ++m) {
        copied[m] = u.IsLeaf(m)
                        ? candidate.AddLeaf(choice[m])
                        : candidate.AddInternal(choice[m],
                                                copied[u.left(m)],
                                                copied[u.right(m)]);
      }
      candidate.SetRoot(copied[u.root()]);
      return RefAccepts(a, candidate);
    }
    for (SymbolId big : by_small[u.symbol(n)]) {
      bool rank_ok = u.IsLeaf(n) ? large_sigma.IsLeaf(big)
                                 : large_sigma.IsBinary(big);
      if (!rank_ok) continue;
      choice[n] = big;
      if (assign(n + 1)) return true;
    }
    return false;
  };
  return assign(0);
}

TaOpContext BudgetCtx(const DiffcheckOptions& opts) {
  TaOpContext ctx;
  ctx.budgets.max_det_states = opts.max_det_states;
  return ctx;
}

// NbtaIncludedIn over throwaway indexes, for the shrink predicates.
Result<NbtaInclusionResult> IncludedIn(const Nbta& a, const Nbta& b,
                                       const RankedAlphabet& sigma) {
  NbtaIndex ia(a);
  NbtaIndex ib(b);
  return NbtaIncludedIn(ia, ib, sigma);
}

using Pred1 = std::function<bool(const Nbta&, const BinaryTree&)>;
using Pred2 =
    std::function<bool(const Nbta&, const Nbta&, const BinaryTree&)>;
using PredA = std::function<bool(const Nbta&)>;

// A random downward transducer over `sigma` (input and output alphabet):
// 2–4 states, a random start, and leaf outputs, binary outputs, stay and
// down moves under symbol or wildcard guards. Unlike the paper's machines
// it is nondeterministic and has stay moves, so a subtree's set of
// (transducer state, D-state) pairs can hold several D-states per
// transducer state — the shape where the downward search's ⊆-maximal
// pruning and the order of its fixpoint matter.
PebbleTransducer RandomDownwardTransducer(const RankedAlphabet& sigma,
                                          Rng& rng) {
  using M = PebbleTransducer::MoveKind;
  const uint32_t ns = static_cast<uint32_t>(sigma.size());
  PebbleTransducer t(1, ns, ns);
  const uint32_t n = 2 + static_cast<uint32_t>(rng.NextBelow(3));
  for (uint32_t i = 0; i < n; ++i) t.AddState(1);
  t.SetStart(static_cast<StateId>(rng.NextBelow(n)));
  auto state = [&] { return static_cast<StateId>(rng.NextBelow(n)); };
  auto guard = [&] {
    PebbleGuard g;
    if (rng.NextBool(0.7)) g.symbol = static_cast<SymbolId>(rng.NextBelow(ns));
    return g;
  };
  auto pick = [&](const std::vector<SymbolId>& symbols) {
    return symbols[rng.NextBelow(symbols.size())];
  };
  const size_t transitions = n + rng.NextBelow(3 * n);
  for (size_t i = 0; i < transitions; ++i) {
    const StateId from = state();
    switch (rng.NextBelow(5)) {
      case 0:
        t.AddOutputLeaf(guard(), from, pick(sigma.LeafSymbols()));
        break;
      case 1:
        t.AddOutputBinary(guard(), from, pick(sigma.BinarySymbols()), state(),
                          state());
        break;
      case 2:
        t.AddMove(guard(), from, M::kStay, state());
        break;
      case 3:
        t.AddMove(guard(), from, M::kDownLeft, state());
        break;
      default:
        t.AddMove(guard(), from, M::kDownRight, state());
        break;
    }
  }
  return t;
}

// Joint shrink of a two-automata-plus-tree witness: round-robin over the
// three components until a full round makes no progress.
void ShrinkTwoNbtaAndTree(Nbta* a, Nbta* b, BinaryTree* tree,
                          const Pred2& still_fails) {
  bool progress = true;
  while (progress) {
    const size_t before = a->num_states + a->rules.size() +
                          a->leaf_rules.size() + b->num_states +
                          b->rules.size() + b->leaf_rules.size() +
                          tree->size();
    *a = ShrinkNbta(std::move(*a), [&](const Nbta& ca) {
      return still_fails(ca, *b, *tree);
    });
    *b = ShrinkNbta(std::move(*b), [&](const Nbta& cb) {
      return still_fails(*a, cb, *tree);
    });
    *tree = ShrinkTree(std::move(*tree), [&](const BinaryTree& ct) {
      return still_fails(*a, *b, ct);
    });
    progress = a->num_states + a->rules.size() + a->leaf_rules.size() +
                   b->num_states + b->rules.size() + b->leaf_rules.size() +
                   tree->size() <
               before;
  }
}

std::string CanonicalKey(const BinaryTree& t, const RankedAlphabet& sigma) {
  return BinaryTermString(t, sigma);
}

class Harness {
 public:
  // `shared_failures` (optional) is a sweep-wide failure tally shared by the
  // workers of a sharded run: every worker bumps it on Fail() and stops once
  // it crosses max_failures, so one worker's findings cap the whole sweep.
  explicit Harness(const DiffcheckOptions& opts,
                   std::atomic<size_t>* shared_failures = nullptr)
      : opts_(opts),
        shared_failures_(shared_failures),
        base_(DiffcheckAlphabet(false)),
        ext_(DiffcheckAlphabet(true)) {
    if (opts_.memo) memo_cache_.emplace(opts_.memo_mb << 20);
    exhaustive_base_ = AllTreesUpToNodes(base_, opts_.exhaustive_max_nodes,
                                         kExhaustiveCap, &trunc_base_);
    exhaustive_ext_ = AllTreesUpToNodes(ext_, opts_.exhaustive_max_nodes,
                                        kExhaustiveCap, &trunc_ext_);
    tags_.Intern("p");
    tags_.Intern("q");
    tags_.Intern("r");
    enc_ = std::move(MakeEncodedAlphabet(tags_)).ValueOrDie();
    doubled_ = base_;
    doubling_ = std::move(MakeDoublingTransducer(
                              base_, doubled_,
                              std::move(doubled_.AddBinary("x2")).ValueOrDie()))
                    .ValueOrDie();
  }

  DiffcheckReport Run() {
    for (size_t i = opts_.start; i < opts_.start + opts_.iters; ++i) {
      if (report_.failures.size() >= opts_.max_failures) break;
      if (shared_failures_ != nullptr &&
          shared_failures_->load(std::memory_order_relaxed) >=
              opts_.max_failures) {
        break;
      }
      RunIteration(i);
      ++report_.iterations;
    }
    return std::move(report_);
  }

 private:
  static constexpr size_t kExhaustiveCap = 1000;
  // Per-tree laws on determinization-sized automata (complement and the
  // De Morgan composites) only probe every kProbeStride-th exhaustive tree.
  static constexpr size_t kProbeStride = 7;

  bool LawDone(const char* law) const { return failed_laws_.count(law) != 0; }

  void Fail(const char* law, size_t iter, const std::string& detail,
            const std::string& repro) {
    if (LawDone(law) || report_.failures.size() >= opts_.max_failures) {
      ++report_.suppressed_failures;
      return;
    }
    failed_laws_.insert(law);
    if (shared_failures_ != nullptr) {
      shared_failures_->fetch_add(1, std::memory_order_relaxed);
    }
    DiffcheckFailure f;
    f.law = law;
    f.iteration = iter;
    f.seed = opts_.seed;
    f.detail = detail;
    f.repro = repro;
    report_.failures.push_back(std::move(f));
  }

  std::string Repro(const char* law, size_t iter, bool extended,
                    const Nbta* a, const Nbta* b, const BinaryTree* t,
                    const std::string& expect) {
    const RankedAlphabet& sigma = extended ? ext_ : base_;
    std::ostringstream os;
    os << "// law \"" << law << "\" violated at iteration " << iter
       << " (seed " << opts_.seed << ").\n";
    os << "// replay: ta_diffcheck --seed=" << opts_.seed << " --start=" << iter
       << " --iters=1\n";
    os << "RankedAlphabet sigma = DiffcheckAlphabet("
       << (extended ? "true" : "false") << ");\n";
    if (a != nullptr) os << FormatNbtaConstruction(*a, sigma, "a");
    if (b != nullptr) os << FormatNbtaConstruction(*b, sigma, "b");
    if (t != nullptr && !t->empty()) {
      os << "BinaryTree t = std::move(ParseBinaryTerm(\""
         << BinaryTermString(*t, sigma) << "\", sigma)).ValueOrDie();\n";
    }
    os << "// expect: " << expect << "\n";
    return os.str();
  }

  void FailTree1(const char* law, size_t iter, bool extended, const Nbta& a,
                 const BinaryTree& t, const std::string& detail,
                 const Pred1& violated) {
    Nbta sa = a;
    BinaryTree st = t;
    if (opts_.shrink && violated && violated(sa, st)) {
      ShrinkNbtaAndTree(&sa, &st, violated);
    }
    Fail(law, iter, detail, Repro(law, iter, extended, &sa, nullptr, &st,
                                  detail));
  }

  void FailTree2(const char* law, size_t iter, bool extended, const Nbta& a,
                 const Nbta& b, const BinaryTree& t,
                 const std::string& detail, const Pred2& violated) {
    Nbta sa = a;
    Nbta sb = b;
    BinaryTree st = t;
    if (opts_.shrink && violated && violated(sa, sb, st)) {
      ShrinkTwoNbtaAndTree(&sa, &sb, &st, violated);
    }
    Fail(law, iter, detail, Repro(law, iter, extended, &sa, &sb, &st, detail));
  }

  void FailNbta(const char* law, size_t iter, bool extended, const Nbta& a,
                const std::string& detail, const PredA& violated) {
    Nbta sa = a;
    if (opts_.shrink && violated && violated(sa)) {
      sa = ShrinkNbta(std::move(sa), violated);
    }
    Fail(law, iter, detail,
         Repro(law, iter, extended, &sa, nullptr, nullptr, detail));
  }

  // Unwraps a budgeted op: ok -> value, kResourceExhausted -> nullopt plus a
  // budget_skips tick, anything else -> a "harness/op-error" failure.
  template <typename T>
  std::optional<T> Budgeted(Result<T> r, const char* what, size_t iter) {
    if (r.ok()) return std::move(r).value();
    if (r.status().code() == StatusCode::kResourceExhausted) {
      ++report_.budget_skips;
      return std::nullopt;
    }
    Fail("harness/op-error", iter,
         std::string(what) + ": " + r.status().ToString(), "");
    return std::nullopt;
  }

  Nbta DrawAutomaton(const RankedAlphabet& sigma, Rng& rng) {
    RandomNbtaOptions o;
    o.num_states = 1 + static_cast<uint32_t>(rng.NextBelow(6));
    o.rule_density = 0.15 + 0.65 * rng.NextDouble();
    o.leaf_density = 0.3 + 0.5 * rng.NextDouble();
    o.accepting_density = 0.2 + 0.5 * rng.NextDouble();
    Nbta a = RandomNbta(sigma, rng, o);
    // Adversarial mutations: RandomNbta never produces these shapes, but the
    // op suite must handle them (empty language, a symbol with no rules at
    // all — the MSO track-extension shape — and leaf-only languages).
    if (rng.NextBool(0.10)) {
      std::fill(a.accepting.begin(), a.accepting.end(), false);
    }
    if (rng.NextBool(0.15)) {
      SymbolId s = static_cast<SymbolId>(rng.NextBelow(sigma.size()));
      std::erase_if(a.leaf_rules,
                    [s](const Nbta::LeafRule& r) { return r.symbol == s; });
      std::erase_if(a.rules,
                    [s](const Nbta::BinaryRule& r) { return r.symbol == s; });
    }
    if (rng.NextBool(0.10)) a.rules.clear();
    return a;
  }

  void RunIteration(size_t iter);
  void CheckMemo(size_t iter, bool extended, const Nbta& a,
                 const std::optional<Dbta>& cold_det,
                 const std::vector<BinaryTree>& exhaustive,
                 const std::vector<BinaryTree>& samples);
  void CheckEncodeDecode(size_t iter, Rng& rng);
  void CheckMembership(size_t iter, bool extended, const Nbta& a,
                       const std::vector<BinaryTree>& exhaustive,
                       const std::vector<BinaryTree>& samples, Rng& rng);
  void CheckRelabelInverse(size_t iter, const Nbta& a);
  void CheckRelabelImage(size_t iter, const Nbta& a);
  void CheckCounts(size_t iter, bool extended, const Nbta& a,
                   const std::optional<Dbta>& det_a,
                   const std::vector<BinaryTree>& exhaustive, bool truncated);
  void CheckEnumerate(size_t iter, bool extended, const Nbta& a,
                      const std::vector<BinaryTree>& exhaustive,
                      bool truncated);
  void CheckInclusion(size_t iter, bool extended, const Nbta& a,
                      const Nbta& b);
  void CheckTypechecker(size_t iter, Rng& rng);
  void CheckInferInverse(size_t iter, Rng& rng);
  void CheckDownwardSearch(size_t iter, Rng& rng);
  std::optional<std::string> DownwardSearchViolation(
      const PebbleTransducer& t, const RankedAlphabet& out_sigma,
      const Nbta& tau1, const Nbta& tau2, bool* skipped) const;

  /// Options for every typechecker / inference call: a per-call deadline so
  /// a pathological instance degrades to a budget skip instead of stalling
  /// the sweep.
  TypecheckOptions TcOptions() const {
    TypecheckOptions o;
    if (opts_.typecheck_deadline_ms != 0) {
      o.deadline = std::chrono::milliseconds(opts_.typecheck_deadline_ms);
    }
    return o;
  }

  const DiffcheckOptions opts_;
  std::atomic<size_t>* shared_failures_;
  DiffcheckReport report_;
  RankedAlphabet base_;
  RankedAlphabet ext_;
  /// Example 3.6's output alphabet (base_ plus the binary x2) and machine.
  RankedAlphabet doubled_;
  PebbleTransducer doubling_{1, 1, 1};
  Alphabet tags_;
  EncodedAlphabet enc_;
  std::vector<BinaryTree> exhaustive_base_;
  std::vector<BinaryTree> exhaustive_ext_;
  bool trunc_base_ = false;
  bool trunc_ext_ = false;
  std::set<std::string> failed_laws_;
  /// Harness-owned op cache for the memo laws; persists across this worker's
  /// iterations, so later iterations genuinely hit entries inserted by
  /// earlier ones (the content-addressed trust the laws arbitrate).
  std::optional<TaOpCache> memo_cache_;
};

void Harness::RunIteration(size_t iter) {
  Rng rng(MixSeed(opts_.seed, iter));
  const bool extended = rng.NextBool(0.3);
  const RankedAlphabet& sigma = extended ? ext_ : base_;
  const std::vector<BinaryTree>& exhaustive =
      extended ? exhaustive_ext_ : exhaustive_base_;
  const bool truncated = extended ? trunc_ext_ : trunc_base_;

  const Nbta a = DrawAutomaton(sigma, rng);
  const Nbta b = DrawAutomaton(sigma, rng);

  std::vector<BinaryTree> samples;
  samples.reserve(opts_.samples_per_iter);
  const size_t max_internal = (size_t{1} << opts_.max_depth) - 1;
  for (size_t k = 0; k < opts_.samples_per_iter; ++k) {
    samples.push_back(RandomBinaryTree(sigma, rng, rng.NextBelow(
                                                       max_internal + 1)));
  }

  // --- Small derived automata, checked against every tree. ---
  NbtaIndex idx_a(a);
  NbtaIndex idx_b(b);
  const Nbta inter = IntersectNbta(idx_a, idx_b);
  const Nbta refinter = RefIntersect(a, b);
  const Nbta uni = UnionNbta(a, b);
  const Nbta refuni = RefUnion(a, b);
  const Nbta self_uni = UnionNbta(a, a);
  Nbta zero;  // 0 states, no rules: the degenerate empty-language operand.
  zero.num_symbols = static_cast<uint32_t>(sigma.size());
  const Nbta uni_zl = UnionNbta(zero, a);
  const Nbta uni_zr = UnionNbta(a, zero);
  const Nbta inter_z = IntersectNbta(a, zero);
  const Nbta trim = TrimNbta(idx_a);
  const Nbta reftrim = RefTrim(a);
  const TopDownTA td = NbtaToTopDown(a);
  const TopDownIndex td_idx(td);
  const Nbta round = TopDownToNbta(td);

  NbtaIndex idx_inter(inter), idx_refinter(refinter), idx_uni(uni),
      idx_refuni(refuni), idx_self(self_uni), idx_uzl(uni_zl),
      idx_uzr(uni_zr), idx_iz(inter_z), idx_trim(trim), idx_reftrim(reftrim),
      idx_round(round);

  // --- Deterministic / complement artifacts (probe subset only for the
  // Nbta-form complements; Dbta memberships are O(nodes) so run on all). ---
  std::optional<Dbta> det_a, det_b, min_a, min_b, refdet_a;
  {
    TaOpContext ctx = BudgetCtx(opts_);
    det_a = Budgeted(DeterminizeNbta(idx_a, sigma, &ctx), "DeterminizeNbta",
                     iter);
  }
  {
    TaOpContext ctx = BudgetCtx(opts_);
    det_b = Budgeted(DeterminizeNbta(idx_b, sigma, &ctx),
                     "DeterminizeNbta(b)", iter);
  }
  refdet_a = Budgeted(RefDeterminize(a, sigma), "RefDeterminize", iter);
  if (det_a) {
    min_a = Budgeted(MinimizeDbta(*det_a, sigma), "MinimizeDbta", iter);
  }
  if (det_b) {
    min_b = Budgeted(MinimizeDbta(*det_b, sigma), "MinimizeDbta(b)", iter);
  }

  std::optional<Nbta> comp_a, comp_b, compcomp, refcomp_a, comp_uni,
      comp_inter;
  {
    TaOpContext ctx = BudgetCtx(opts_);
    comp_a = Budgeted(ComplementNbta(idx_a, sigma, &ctx), "ComplementNbta(a)",
                      iter);
  }
  {
    TaOpContext ctx = BudgetCtx(opts_);
    comp_b = Budgeted(ComplementNbta(idx_b, sigma, &ctx), "ComplementNbta(b)",
                      iter);
  }
  refcomp_a = Budgeted(RefComplement(a, sigma), "RefComplement", iter);
  if (comp_a) {
    TaOpContext ctx = BudgetCtx(opts_);
    compcomp = Budgeted(ComplementNbta(*comp_a, sigma, &ctx),
                        "ComplementNbta(comp a)", iter);
  }
  // Complementing the union (12 states) and the intersection product (up to
  // 36 states) drives the subset construction orders of magnitude harder
  // than any other artifact; run those on a cadence with a capped budget.
  const bool heavy =
      opts_.demorgan_every != 0 && iter % opts_.demorgan_every == 0;
  // Subset-construction cost is quadratic in the states materialized (every
  // pair of reached subsets is expanded), so even *aborting* at a large
  // budget is slow; 512 keeps the worst heavy iteration in the tens of
  // milliseconds.
  if (heavy) {
    TaOpContext ctx = BudgetCtx(opts_);
    ctx.budgets.max_det_states = std::min<size_t>(opts_.max_det_states, 512);
    comp_uni = Budgeted(ComplementNbta(uni, sigma, &ctx),
                        "ComplementNbta(a union b)", iter);
    comp_inter = Budgeted(ComplementNbta(inter, sigma, &ctx),
                          "ComplementNbta(a intersect b)", iter);
  }
  // Product-form De Morgan operands: complements built from the *minimized*
  // deterministic automata, so the ¬A ∩ ¬B product stays small while the
  // inputs remain complete and deterministic (the adversarial shape).
  std::optional<Nbta> mincomp_a, mincomp_b;
  if (min_a) {
    Dbta flipped = *min_a;
    for (StateId q = 0; q < flipped.num_states(); ++q) {
      flipped.set_accepting(q, !flipped.accepting(q));
    }
    mincomp_a = flipped.ToNbta(sigma);
  }
  if (min_b) {
    Dbta flipped = *min_b;
    for (StateId q = 0; q < flipped.num_states(); ++q) {
      flipped.set_accepting(q, !flipped.accepting(q));
    }
    mincomp_b = flipped.ToNbta(sigma);
  }
  // Even minimal automata for random languages can run to hundreds of
  // states, and the product of two complete automata materializes every
  // state pair; only build it when both operands are genuinely small.
  std::optional<Nbta> inter_comp, uni_comp;
  if (mincomp_a && mincomp_b && mincomp_a->num_states <= 32 &&
      mincomp_b->num_states <= 32) {
    inter_comp = IntersectNbta(*mincomp_a, *mincomp_b);
    uni_comp = UnionNbta(*mincomp_a, *mincomp_b);
  }

  std::optional<NbtaIndex> idx_comp_a, idx_comp_b, idx_compcomp,
      idx_refcomp_a, idx_comp_uni, idx_comp_inter, idx_inter_comp,
      idx_uni_comp;
  if (comp_a) idx_comp_a.emplace(*comp_a);
  if (comp_b) idx_comp_b.emplace(*comp_b);
  if (compcomp) idx_compcomp.emplace(*compcomp);
  if (refcomp_a) idx_refcomp_a.emplace(*refcomp_a);
  if (comp_uni) idx_comp_uni.emplace(*comp_uni);
  if (comp_inter) idx_comp_inter.emplace(*comp_inter);
  if (inter_comp) idx_inter_comp.emplace(*inter_comp);
  if (uni_comp) idx_uni_comp.emplace(*uni_comp);

  // Self-contained predicates (recompute everything from the candidate) used
  // only when shrinking a failing witness. A budget failure means "can't
  // reproduce on this candidate", i.e. not failing.
  const RankedAlphabet* sig = &sigma;
  const DiffcheckOptions* op = &opts_;
  Pred1 v_membership = [](const Nbta& ca, const BinaryTree& ct) {
    return ca.Accepts(ct) != RefAccepts(ca, ct);
  };
  Pred1 v_det = [sig, op](const Nbta& ca, const BinaryTree& ct) {
    TaOpContext ctx = BudgetCtx(*op);
    Result<Dbta> d = DeterminizeNbta(ca, *sig, &ctx);
    return d.ok() && d->Accepts(ct) != RefAccepts(ca, ct);
  };
  Pred1 v_min = [sig, op](const Nbta& ca, const BinaryTree& ct) {
    TaOpContext ctx = BudgetCtx(*op);
    Result<Dbta> d = DeterminizeNbta(ca, *sig, &ctx);
    if (!d.ok()) return false;
    Result<Dbta> m = MinimizeDbta(*d, *sig);
    return m.ok() && m->Accepts(ct) != RefAccepts(ca, ct);
  };
  Pred1 v_comp = [sig, op](const Nbta& ca, const BinaryTree& ct) {
    TaOpContext ctx = BudgetCtx(*op);
    Result<Nbta> c = ComplementNbta(ca, *sig, &ctx);
    return c.ok() && c->Accepts(ct) == RefAccepts(ca, ct);
  };
  Pred1 v_compcomp = [sig, op](const Nbta& ca, const BinaryTree& ct) {
    TaOpContext ctx = BudgetCtx(*op);
    Result<Nbta> c = ComplementNbta(ca, *sig, &ctx);
    if (!c.ok()) return false;
    Result<Nbta> cc = ComplementNbta(*c, *sig, &ctx);
    return cc.ok() && cc->Accepts(ct) != RefAccepts(ca, ct);
  };
  Pred1 v_self_union = [](const Nbta& ca, const BinaryTree& ct) {
    return UnionNbta(ca, ca).Accepts(ct) != RefAccepts(ca, ct);
  };
  Pred1 v_zero_union = [](const Nbta& ca, const BinaryTree& ct) {
    Nbta z;
    z.num_symbols = ca.num_symbols;
    bool ref = RefAccepts(ca, ct);
    return UnionNbta(z, ca).Accepts(ct) != ref ||
           UnionNbta(ca, z).Accepts(ct) != ref;
  };
  Pred1 v_zero_inter = [](const Nbta& ca, const BinaryTree& ct) {
    Nbta z;
    z.num_symbols = ca.num_symbols;
    return IntersectNbta(ca, z).Accepts(ct);
  };
  Pred1 v_trim = [](const Nbta& ca, const BinaryTree& ct) {
    bool ref = RefAccepts(ca, ct);
    return TrimNbta(ca).Accepts(ct) != ref ||
           RefTrim(ca).Accepts(ct) != ref;
  };
  Pred1 v_topdown = [](const Nbta& ca, const BinaryTree& ct) {
    bool ref = RefAccepts(ca, ct);
    TopDownTA ctd = NbtaToTopDown(ca);
    return TopDownAccepts(ctd, ct) != ref ||
           TopDownToNbta(ctd).Accepts(ct) != ref;
  };
  Pred2 v_intersect = [](const Nbta& ca, const Nbta& cb,
                         const BinaryTree& ct) {
    bool ref = RefAccepts(ca, ct) && RefAccepts(cb, ct);
    return IntersectNbta(ca, cb).Accepts(ct) != ref ||
           RefIntersect(ca, cb).Accepts(ct) != ref;
  };
  Pred2 v_union = [](const Nbta& ca, const Nbta& cb, const BinaryTree& ct) {
    bool ref = RefAccepts(ca, ct) || RefAccepts(cb, ct);
    return UnionNbta(ca, cb).Accepts(ct) != ref ||
           RefUnion(ca, cb).Accepts(ct) != ref;
  };
  Pred2 v_demorgan = [sig, op](const Nbta& ca, const Nbta& cb,
                               const BinaryTree& ct) {
    bool ra = RefAccepts(ca, ct), rb = RefAccepts(cb, ct);
    TaOpContext ctx = BudgetCtx(*op);
    Result<Nbta> cu = ComplementNbta(UnionNbta(ca, cb), *sig, &ctx);
    if (cu.ok() && cu->Accepts(ct) != (!ra && !rb)) return true;
    Result<Nbta> ci = ComplementNbta(IntersectNbta(ca, cb), *sig, &ctx);
    if (ci.ok() && ci->Accepts(ct) != !(ra && rb)) return true;
    Result<Nbta> cca = ComplementNbta(ca, *sig, &ctx);
    Result<Nbta> ccb = ComplementNbta(cb, *sig, &ctx);
    if (cca.ok() && ccb.ok()) {
      if (IntersectNbta(*cca, *ccb).Accepts(ct) != (!ra && !rb)) return true;
      if (UnionNbta(*cca, *ccb).Accepts(ct) != !(ra && rb)) return true;
    }
    return false;
  };

  // --- Per-tree laws over the full tree set. ---
  const size_t n_exh = exhaustive.size();
  auto tree_at = [&](size_t k) -> const BinaryTree& {
    return k < n_exh ? exhaustive[k] : samples[k - n_exh];
  };
  const size_t n_trees = n_exh + samples.size();

  for (size_t k = 0; k < n_trees; ++k) {
    const BinaryTree& t = tree_at(k);
    const bool ra = RefAccepts(a, t);
    const bool rb = RefAccepts(b, t);

    auto check1 = [&](const char* law, bool holds, const char* expect,
                      const Pred1& violated) {
      if (LawDone(law)) return;
      ++report_.comparisons;
      if (!holds) FailTree1(law, iter, extended, a, t, expect, violated);
    };
    auto check2 = [&](const char* law, bool holds, const char* expect,
                      const Pred2& violated) {
      if (LawDone(law)) return;
      ++report_.comparisons;
      if (!holds) FailTree2(law, iter, extended, a, b, t, expect, violated);
    };

    check1("membership/index", NbtaAccepts(idx_a, t) == ra,
           "NbtaAccepts(a, t) == direct bottom-up membership", v_membership);

    if (!LawDone("membership/runstates")) {
      ++report_.comparisons;
      std::vector<std::vector<bool>> got = NbtaRunStates(idx_a, t);
      std::vector<std::set<StateId>> want = RefRunStates(a, t);
      bool same = got.size() == want.size();
      for (NodeId n = 0; same && n < got.size(); ++n) {
        for (StateId q = 0; same && q < a.num_states; ++q) {
          same = (q < got[n].size() && got[n][q]) == (want[n].count(q) > 0);
        }
      }
      if (!same) {
        FailTree1("membership/runstates", iter, extended, a, t,
                  "NbtaRunStates == RefRunStates per node",
                  [](const Nbta& ca, const BinaryTree& ct) {
                    std::vector<std::vector<bool>> g = ca.RunStates(ct);
                    std::vector<std::set<StateId>> w = RefRunStates(ca, ct);
                    for (NodeId n = 0; n < ct.size(); ++n) {
                      for (StateId q = 0; q < ca.num_states; ++q) {
                        if ((q < g[n].size() && g[n][q]) !=
                            (w[n].count(q) > 0)) {
                          return true;
                        }
                      }
                    }
                    return false;
                  });
      }
    }

    if (det_a) {
      check1("determinize/lang", det_a->Accepts(t) == ra,
             "DeterminizeNbta preserves the language", v_det);
    }
    if (det_a && refdet_a) {
      check1("determinize/ref", det_a->Accepts(t) == refdet_a->Accepts(t),
             "DeterminizeNbta agrees with the set-of-sets reference", v_det);
    }
    if (refdet_a) {
      check1("determinize/ref-lang", refdet_a->Accepts(t) == ra,
             "RefDeterminize preserves the language", Pred1());
    }
    if (min_a) {
      check1("minimize/lang", min_a->Accepts(t) == ra,
             "MinimizeDbta preserves the language", v_min);
    }

    check2("intersect/lang", NbtaAccepts(idx_inter, t) == (ra && rb),
           "IntersectNbta accepts exactly L(a) ∩ L(b)", v_intersect);
    check2("intersect/ref",
           NbtaAccepts(idx_inter, t) == NbtaAccepts(idx_refinter, t),
           "IntersectNbta agrees with the dense all-pairs reference",
           v_intersect);
    check2("union/lang", NbtaAccepts(idx_uni, t) == (ra || rb),
           "UnionNbta accepts exactly L(a) ∪ L(b)", v_union);
    check2("union/ref", NbtaAccepts(idx_uni, t) == NbtaAccepts(idx_refuni, t),
           "UnionNbta agrees with the state-by-state reference sum", v_union);
    check1("union/self", NbtaAccepts(idx_self, t) == ra,
           "L(a ∪ a) == L(a)", v_self_union);
    check1("union/empty",
           NbtaAccepts(idx_uzl, t) == ra && NbtaAccepts(idx_uzr, t) == ra,
           "union with the 0-state automaton is identity on the language",
           v_zero_union);
    check1("intersect/empty", !NbtaAccepts(idx_iz, t),
           "intersection with the 0-state automaton is empty", v_zero_inter);
    check1("trim/lang",
           NbtaAccepts(idx_trim, t) == ra && NbtaAccepts(idx_reftrim, t) == ra,
           "TrimNbta and RefTrim preserve the language", v_trim);
    check1("topdown/roundtrip",
           TopDownAccepts(td_idx, t) == ra && NbtaAccepts(idx_round, t) == ra,
           "NbtaToTopDown/TopDownToNbta preserve the language", v_topdown);

    // Complement-family laws: these automata are determinization-sized, so
    // Nbta membership costs O(rules); restrict to the probe subset.
    const bool probe = k >= n_exh || k % kProbeStride == 0;
    if (probe) {
      if (idx_comp_a) {
        check1("complement/lang", NbtaAccepts(*idx_comp_a, t) == !ra,
               "ComplementNbta accepts exactly the well-ranked non-members",
               v_comp);
      }
      if (idx_comp_a && idx_refcomp_a) {
        check1("complement/ref",
               NbtaAccepts(*idx_comp_a, t) == NbtaAccepts(*idx_refcomp_a, t),
               "ComplementNbta agrees with the brute-force reference", v_comp);
      }
      if (idx_refcomp_a) {
        check1("complement/ref-lang", NbtaAccepts(*idx_refcomp_a, t) == !ra,
               "RefComplement accepts exactly the well-ranked non-members",
               Pred1());
      }
      if (idx_compcomp) {
        check1("complement/involution", NbtaAccepts(*idx_compcomp, t) == ra,
               "complementing twice is the identity on well-ranked trees",
               v_compcomp);
      }
      if (idx_comp_uni) {
        check2("demorgan/comp-union",
               NbtaAccepts(*idx_comp_uni, t) == (!ra && !rb),
               "¬(A ∪ B) == ¬A ∩ ¬B (membership form)", v_demorgan);
      }
      if (idx_comp_inter) {
        check2("demorgan/comp-inter",
               NbtaAccepts(*idx_comp_inter, t) == !(ra && rb),
               "¬(A ∩ B) == ¬A ∪ ¬B (membership form)", v_demorgan);
      }
      if (idx_inter_comp) {
        check2("demorgan/inter-comp",
               NbtaAccepts(*idx_inter_comp, t) == (!ra && !rb),
               "¬A ∩ ¬B accepts exactly the common non-members", v_demorgan);
      }
      if (idx_uni_comp) {
        check2("demorgan/union-comp",
               NbtaAccepts(*idx_uni_comp, t) == !(ra && rb),
               "¬A ∪ ¬B accepts exactly the non-common members", v_demorgan);
      }
    }
  }

  // --- Automaton-level laws. ---
  if (!LawDone("empty/agree")) {
    ++report_.comparisons;
    if (IsEmptyNbta(idx_a) != RefIsEmpty(a)) {
      FailNbta("empty/agree", iter, extended, a,
               "IsEmptyNbta agrees with the naive inhabitedness fixpoint",
               [](const Nbta& ca) {
                 return IsEmptyNbta(ca) != RefIsEmpty(ca);
               });
    }
  }
  if (!LawDone("witness/genuine")) {
    ++report_.comparisons;
    std::optional<BinaryTree> w = WitnessTree(idx_a);
    bool bad = w.has_value() == RefIsEmpty(a) ||
               (w.has_value() && !RefAccepts(a, *w));
    if (bad) {
      FailNbta("witness/genuine", iter, extended, a,
               "WitnessTree returns a tree iff nonempty, and a member",
               [](const Nbta& ca) {
                 std::optional<BinaryTree> cw = WitnessTree(ca);
                 return cw.has_value() == RefIsEmpty(ca) ||
                        (cw.has_value() && !RefAccepts(ca, *cw));
               });
    }
  }

  CheckInclusion(iter, extended, a, b);

  if (opts_.memo) {
    CheckMemo(iter, extended, a, det_a, exhaustive, samples);
  }

  CheckCounts(iter, extended, a, det_a, exhaustive, truncated);
  CheckEnumerate(iter, extended, a, exhaustive, truncated);
  CheckEncodeDecode(iter, rng);
  CheckMembership(iter, extended, a, exhaustive, samples, rng);
  if (!extended) CheckRelabelInverse(iter, a);
  if (extended) CheckRelabelImage(iter, a);
  if (opts_.typecheck_every != 0 && iter % opts_.typecheck_every == 0) {
    CheckTypechecker(iter, rng);
  }
  if (opts_.infer_every != 0 && iter % opts_.infer_every == 0) {
    CheckInferInverse(iter, rng);
  }
  if (opts_.typecheck_every != 0 && iter % opts_.typecheck_every == 0) {
    CheckDownwardSearch(iter, rng);
  }
}

void Harness::CheckMemo(size_t iter, bool extended, const Nbta& a,
                        const std::optional<Dbta>& cold_det,
                        const std::vector<BinaryTree>& exhaustive,
                        const std::vector<BinaryTree>& samples) {
  const RankedAlphabet& sigma = extended ? ext_ : base_;
  auto memo_ctx = [this] {
    TaOpContext ctx = BudgetCtx(opts_);
    ctx.budgets.memo = TaMemoMode::kInMemory;
    return ctx;
  };

  // Laws "memo/replay-exact" and "memo/accounting": against a fresh cache,
  // compiling `a` twice must determinize once — 1 miss, then 1 hit that
  // shares the inserted table rather than copying it — and the table must
  // equal the cold determinization entry for entry (Dbta::operator==).
  if (!LawDone("memo/replay-exact") || !LawDone("memo/accounting")) {
    TaOpCache fresh(4ull << 20);
    TaOpContext ctx = memo_ctx();
    Result<MembershipEngine> e1 =
        MembershipEngine::Compile(a, sigma, &ctx, &fresh);
    Result<MembershipEngine> e2 =
        MembershipEngine::Compile(a, sigma, &ctx, &fresh);
    if (!e1.ok() || !e2.ok()) {
      Fail("harness/op-error", iter,
           "MembershipEngine::Compile: " +
               (e1.ok() ? e2 : e1).status().ToString(),
           "");
    } else if (!e1->fast() || !cold_det.has_value()) {
      ++report_.budget_skips;  // over the determinization budget
    } else {
      if (!LawDone("memo/replay-exact")) {
        ++report_.comparisons;
        if (*e1->table() != *cold_det) {
          FailNbta("memo/replay-exact", iter, extended, a,
                   "a determinize served through a fresh cache returns the "
                   "identical cold table",
                   PredA());
        }
      }
      if (!LawDone("memo/accounting")) {
        ++report_.comparisons;
        const TaOpCounters& c = ctx.counters;
        if (c.memo_hits != 1 || c.memo_misses != 1 || c.memo_bytes == 0 ||
            e2->table() != e1->table()) {
          std::ostringstream detail;
          detail << "fresh-cache determinize accounting: want 1 hit / 1 "
                 << "miss / bytes > 0 / a shared table, got " << c.memo_hits
                 << " / " << c.memo_misses << " / " << c.memo_bytes << " / "
                 << (e2->table() == e1->table() ? "shared" : "a copy");
          FailNbta("memo/accounting", iter, extended, a, detail.str(),
                   PredA());
        }
      }
    }
  }

  // Law "memo/lang": a table served through the harness cache — which
  // persists across iterations, so a hit may come from an entry inserted
  // for a *different* structurally-equivalent operand — must accept exactly
  // the language of `a`. This is the structural hash's trust contract.
  if (!LawDone("memo/lang") && memo_cache_.has_value()) {
    TaOpContext ctx = memo_ctx();
    Result<MembershipEngine> warm =
        MembershipEngine::Compile(a, sigma, &ctx, &*memo_cache_);
    if (!warm.ok()) {
      Fail("harness/op-error", iter,
           "MembershipEngine::Compile: " + warm.status().ToString(), "");
      return;
    }
    if (!warm->fast()) {
      ++report_.budget_skips;
      return;
    }
    NbtaIndex idx_a(a);
    for (size_t k = 0; k < exhaustive.size() + samples.size(); ++k) {
      const BinaryTree& t = k < exhaustive.size()
                                ? exhaustive[k]
                                : samples[k - exhaustive.size()];
      ++report_.comparisons;
      if (warm->table()->Accepts(t) != NbtaAccepts(idx_a, t)) {
        FailTree1("memo/lang", iter, extended, a, t,
                  "a cache-served determinization accepts exactly the "
                  "operand's language",
                  Pred1());
        return;
      }
    }
  }
}

void Harness::CheckCounts(size_t iter, bool extended, const Nbta& a,
                          const std::optional<Dbta>& det_a,
                          const std::vector<BinaryTree>& exhaustive,
                          bool truncated) {
  if (!LawDone("count/runs")) {
    for (size_t s = 1; s <= 9; s += 2) {
      ++report_.comparisons;
      if (CountAcceptedTrees(a, s) != RefCountAcceptedTrees(a, s)) {
        FailNbta("count/runs", iter, extended, a,
                 "CountAcceptedTrees(run count) == top-down reference, "
                 "sizes 1..9",
                 [](const Nbta& ca) {
                   for (size_t cs = 1; cs <= 9; cs += 2) {
                     if (CountAcceptedTrees(ca, cs) !=
                         RefCountAcceptedTrees(ca, cs)) {
                       return true;
                     }
                   }
                   return false;
                 });
        break;
      }
    }
  }
  // Tree counts need a deterministic automaton (runs == trees) and an
  // exhaustive ground truth.
  if (LawDone("count/trees") || !det_a || truncated) return;
  if (det_a->num_states() > 64) return;  // ToNbta table would be huge.
  const RankedAlphabet& sigma = extended ? ext_ : base_;
  const Nbta dta = det_a->ToNbta(sigma);
  for (size_t s = 1; s <= opts_.exhaustive_max_nodes; s += 2) {
    ++report_.comparisons;
    uint64_t want = 0;
    for (const BinaryTree& t : exhaustive) {
      if (t.size() == s && RefAccepts(a, t)) ++want;
    }
    if (CountAcceptedTrees(dta, s) != want) {
      std::ostringstream detail;
      detail << "CountAcceptedTrees on the determinized automaton == "
             << "exhaustive accepted-tree count at size " << s << " (want "
             << want << ", got " << CountAcceptedTrees(dta, s) << ")";
      FailNbta("count/trees", iter, extended, a, detail.str(), PredA());
      break;
    }
  }
}

void Harness::CheckEnumerate(size_t iter, bool extended, const Nbta& a,
                             const std::vector<BinaryTree>& exhaustive,
                             bool truncated) {
  const RankedAlphabet& sigma = extended ? ext_ : base_;
  const std::vector<BinaryTree> e1 =
      EnumerateAcceptedTrees(a, opts_.exhaustive_max_nodes, 100000);

  if (!LawDone("enumerate/order")) {
    ++report_.comparisons;
    bool sorted = true;
    for (size_t k = 0; k + 1 < e1.size(); ++k) {
      if (e1[k].size() > e1[k + 1].size()) sorted = false;
    }
    std::set<std::string> keys;
    for (const BinaryTree& t : e1) keys.insert(CanonicalKey(t, sigma));
    if (!sorted || keys.size() != e1.size()) {
      FailNbta("enumerate/order", iter, extended, a,
               "EnumerateAcceptedTrees emits distinct trees in "
               "non-decreasing size order",
               PredA());
    }
  }
  if (!LawDone("enumerate/deterministic")) {
    ++report_.comparisons;
    const std::vector<BinaryTree> e2 =
        EnumerateAcceptedTrees(a, opts_.exhaustive_max_nodes, 100000);
    bool same = e1.size() == e2.size();
    for (size_t k = 0; same && k < e1.size(); ++k) same = e1[k] == e2[k];
    if (!same) {
      FailNbta("enumerate/deterministic", iter, extended, a,
               "EnumerateAcceptedTrees is deterministic across runs",
               PredA());
    }
  }
  if (!LawDone("enumerate/cap") && e1.size() >= 2) {
    ++report_.comparisons;
    const std::vector<BinaryTree> ecap =
        EnumerateAcceptedTrees(a, opts_.exhaustive_max_nodes, e1.size() - 1);
    bool same = ecap.size() == e1.size() - 1;
    for (size_t k = 0; same && k < ecap.size(); ++k) same = ecap[k] == e1[k];
    if (!same) {
      FailNbta("enumerate/cap", iter, extended, a,
               "max_count truncates to a prefix of the uncapped enumeration",
               PredA());
    }
  }
  if (!LawDone("enumerate/exact") && !truncated) {
    ++report_.comparisons;
    std::set<std::string> got, want;
    for (const BinaryTree& t : e1) got.insert(CanonicalKey(t, sigma));
    for (const BinaryTree& t : exhaustive) {
      if (RefAccepts(a, t)) want.insert(CanonicalKey(t, sigma));
    }
    if (got != want) {
      FailNbta("enumerate/exact", iter, extended, a,
               "EnumerateAcceptedTrees == {small trees accepted by the "
               "reference membership}",
               [this, &sigma](const Nbta& ca) {
                 std::set<std::string> g, w;
                 for (const BinaryTree& t : EnumerateAcceptedTrees(
                          ca, opts_.exhaustive_max_nodes, 100000)) {
                   g.insert(CanonicalKey(t, sigma));
                 }
                 const std::vector<BinaryTree>& ex =
                     &sigma == &ext_ ? exhaustive_ext_ : exhaustive_base_;
                 for (const BinaryTree& t : ex) {
                   if (RefAccepts(ca, t)) w.insert(CanonicalKey(t, sigma));
                 }
                 return g != w;
               });
    }
  }
}

void Harness::CheckEncodeDecode(size_t iter, Rng& rng) {
  if (LawDone("encode/decode")) return;
  ++report_.comparisons;
  RandomUnrankedOptions uo;
  uo.target_size = 1 + rng.NextBelow(20);
  uo.max_children = 4;
  const UnrankedTree u = RandomUnrankedTree(tags_, rng, uo);
  Result<BinaryTree> encoded = EncodeTree(u, enc_);
  if (!encoded.ok()) {
    Fail("encode/decode", iter, "EncodeTree failed: " +
                                    encoded.status().ToString(),
         "// unranked input: " + UnrankedTermString(u, tags_) + "\n");
    return;
  }
  Result<UnrankedTree> decoded = DecodeTree(*encoded, enc_);
  if (!decoded.ok() || !(*decoded == u)) {
    std::string detail = decoded.ok()
                             ? "Decode(Encode(t)) != t"
                             : "DecodeTree failed on an encoder output: " +
                                   decoded.status().ToString();
    Fail("encode/decode", iter, detail,
         "// unranked input: " + UnrankedTermString(u, tags_) +
             "\n// encoded:      " +
             BinaryTermString(*encoded, enc_.ranked) + "\n");
  }
}

void Harness::CheckMembership(size_t iter, bool extended, const Nbta& a,
                              const std::vector<BinaryTree>& exhaustive,
                              const std::vector<BinaryTree>& samples,
                              Rng& rng) {
  const RankedAlphabet& sigma = extended ? ext_ : base_;

  // Law "membership/compiled": the compiled-DBTA fast path (and its
  // NbtaAccepts fallback when determinization is over budget — Compile
  // absorbs kResourceExhausted into a fallback engine, so it never needs a
  // Budgeted unwrap) agrees with NbtaAccepts on every tree.
  if (!LawDone("membership/compiled")) {
    TaOpContext ctx = BudgetCtx(opts_);
    Result<MembershipEngine> engine = MembershipEngine::Compile(a, sigma, &ctx);
    if (!engine.ok()) {
      Fail("harness/op-error", iter,
           "MembershipEngine::Compile: " + engine.status().ToString(), "");
    } else {
      NbtaIndex idx(a);
      const RankedAlphabet* sig = &sigma;
      const size_t budget = opts_.max_det_states;
      Pred1 violated = [sig, budget](const Nbta& ca, const BinaryTree& ct) {
        TaOpContext cctx;
        cctx.budgets.max_det_states = budget;
        Result<MembershipEngine> ce = MembershipEngine::Compile(ca, *sig,
                                                                &cctx);
        if (!ce.ok()) return false;
        Result<bool> got = ce->Accepts(ct);
        return got.ok() && *got != RefAccepts(ca, ct);
      };
      for (size_t k = 0; k < exhaustive.size() + samples.size(); ++k) {
        const BinaryTree& t =
            k < exhaustive.size() ? exhaustive[k] : samples[k -
                                                           exhaustive.size()];
        ++report_.comparisons;
        Result<bool> got = engine->Accepts(t);
        if (!got.ok()) {
          Fail("membership/compiled", iter,
               "MembershipEngine::Accepts: " + got.status().ToString(),
               Repro("membership/compiled", iter, extended, &a, nullptr, &t,
                     "Accepts returns a verdict, not an error"));
          break;
        }
        if (*got != NbtaAccepts(idx, t)) {
          FailTree1("membership/compiled", iter, extended, a, t,
                    "compiled-DBTA membership agrees with NbtaAccepts",
                    violated);
          break;
        }
      }
    }
  }

  // The XML-facing laws run over the p/q/r document alphabet: a fresh
  // random automaton over the *encoded* alphabet plays the schema.
  if (LawDone("membership/streaming") && LawDone("membership/batch")) return;
  const Nbta m = DrawAutomaton(enc_.ranked, rng);
  TaOpContext mctx = BudgetCtx(opts_);
  Result<MembershipEngine> meng =
      MembershipEngine::Compile(m, enc_.ranked, &mctx);
  if (!meng.ok()) {
    Fail("harness/op-error", iter,
         "MembershipEngine::Compile(encoded): " + meng.status().ToString(),
         "");
    return;
  }
  NbtaIndex midx(m);

  // Law "membership/streaming": validating the XML byte stream without
  // materializing the tree agrees with encode-then-Accepts and with
  // NbtaAccepts on the encoded tree. Only meaningful when the engine
  // compiled a table (the streaming path requires one); the 1-6 state draws
  // over five symbols always fit the determinization budget.
  if (!LawDone("membership/streaming") && meng->fast()) {
    ++report_.comparisons;
    RandomUnrankedOptions uo;
    uo.target_size = 1 + rng.NextBelow(20);
    uo.max_children = 4;
    const UnrankedTree u = RandomUnrankedTree(tags_, rng, uo);
    const std::string xml = XmlString(u, tags_);
    Result<BinaryTree> encoded = EncodeTree(u, enc_);
    Result<StreamVerdict> stream =
        StreamingValidateXml(xml, *meng->table(), enc_, tags_);
    std::string mismatch;
    if (!encoded.ok()) {
      mismatch = "EncodeTree failed: " + encoded.status().ToString();
    } else if (!stream.ok()) {
      mismatch = "StreamingValidateXml failed: " + stream.status().ToString();
    } else if (!stream->unknown_tag.empty()) {
      mismatch = "streaming flagged unknown tag '" + stream->unknown_tag +
                 "' in a document rendered from the schema alphabet";
    } else {
      const bool ref = NbtaAccepts(midx, *encoded);
      Result<bool> via_tree = meng->Accepts(*encoded);
      if (!via_tree.ok()) {
        mismatch = "Accepts on the encoded tree failed: " +
                   via_tree.status().ToString();
      } else if (stream->accepted != ref || *via_tree != ref) {
        std::ostringstream os;
        os << "streaming=" << stream->accepted << " tree=" << *via_tree
           << " reference=" << ref;
        mismatch = os.str();
      }
    }
    if (!mismatch.empty()) {
      std::ostringstream os;
      os << "// law \"membership/streaming\" violated at iteration " << iter
         << " (seed " << opts_.seed << ").\n"
         << "// replay: ta_diffcheck --seed=" << opts_.seed
         << " --start=" << iter << " --iters=1\n"
         << "// document: " << xml << "\n"
         << FormatNbtaConstruction(m, enc_.ranked, "m")
         << "// expect: StreamingValidateXml == Accepts(EncodeTree(doc))\n";
      Fail("membership/streaming",
           iter, "streaming XML validation agrees with encode-then-Accepts: " +
                     mismatch,
           os.str());
    }
  }

  // Law "membership/batch": the in-order batch under one context returns
  // exactly the verdicts of context-free ValidateDoc calls — same codes,
  // same validity bits, same diagnostics — on a mixed batch of well-formed,
  // rejected, unknown-tag, and malformed documents.
  if (!LawDone("membership/batch")) {
    SchemaArtifact schema{enc_.ranked, m};
    Result<serve::ValidationPlan> plan = serve::CompileSchemaPlan(schema);
    if (!plan.ok()) {
      Fail("harness/op-error", iter,
           "CompileSchemaPlan: " + plan.status().ToString(), "");
      return;
    }
    std::vector<std::string> docs;
    for (int k = 0; k < 6; ++k) {
      RandomUnrankedOptions uo;
      uo.target_size = 1 + rng.NextBelow(12);
      uo.max_children = 4;
      docs.push_back(XmlString(RandomUnrankedTree(tags_, rng, uo), tags_));
    }
    docs.push_back("<p><q></p>");    // mismatched close tag
    docs.push_back("<p><zz/></p>");  // tag outside the schema alphabet
    docs.push_back("not xml");       // not a document at all
    std::vector<serve::DocVerdict> seq;
    seq.reserve(docs.size());
    for (const std::string& d : docs) {
      seq.push_back(serve::ValidateDoc(*plan, d));
    }
    TaOpContext bctx;
    serve::BatchResult batch = serve::ValidateBatch(*plan, docs, &bctx);
    ++report_.comparisons;
    std::string mismatch;
    if (batch.verdicts.size() != seq.size()) {
      mismatch = "verdict count differs";
    }
    for (size_t k = 0; mismatch.empty() && k < seq.size(); ++k) {
      if (batch.verdicts[k].code != seq[k].code ||
          batch.verdicts[k].valid != seq[k].valid ||
          batch.verdicts[k].diagnostic != seq[k].diagnostic) {
        std::ostringstream os;
        os << "document " << k << ": batch {" << StatusCodeName(
                  batch.verdicts[k].code)
           << ", " << batch.verdicts[k].valid << ", \""
           << batch.verdicts[k].diagnostic << "\"} vs sequential {"
           << StatusCodeName(seq[k].code) << ", " << seq[k].valid << ", \""
           << seq[k].diagnostic << "\"}";
        mismatch = os.str();
      }
    }
    if (!mismatch.empty()) {
      std::ostringstream os;
      os << "// law \"membership/batch\" violated at iteration " << iter
         << " (seed " << opts_.seed << ").\n"
         << "// replay: ta_diffcheck --seed=" << opts_.seed
         << " --start=" << iter << " --iters=1\n";
      for (size_t k = 0; k < docs.size(); ++k) {
        os << "// doc[" << k << "]: " << docs[k] << "\n";
      }
      os << FormatNbtaConstruction(m, enc_.ranked, "m")
         << "// expect: ValidateBatch verdicts == sequential ValidateDoc\n";
      Fail("membership/batch", iter,
           "batch agrees with per-document validation: " + mismatch,
           os.str());
    }
  }
}

void Harness::CheckRelabelInverse(size_t iter, const Nbta& a) {
  if (LawDone("relabel/inverse")) return;
  const Nbta inv =
      InverseRelabelNbta(a, kExtToBase, static_cast<uint32_t>(ext_.size()));
  NbtaIndex idx_inv(inv);
  for (const BinaryTree& t6 : exhaustive_ext_) {
    ++report_.comparisons;
    if (NbtaAccepts(idx_inv, t6) != RefAccepts(a, RelabelTree(t6,
                                                              kExtToBase))) {
      Nbta sa = a;
      BinaryTree st = t6;
      Pred1 violated = [this](const Nbta& ca, const BinaryTree& ct) {
        return InverseRelabelNbta(ca, kExtToBase,
                                  static_cast<uint32_t>(ext_.size()))
                   .Accepts(ct) != RefAccepts(ca, RelabelTree(ct, kExtToBase));
      };
      if (opts_.shrink && violated(sa, st)) {
        ShrinkNbtaAndTree(&sa, &st, violated);
      }
      // The witness tree lives over the extended alphabet while the automaton
      // lives over the base one; render both accordingly.
      std::ostringstream os;
      os << "// law \"relabel/inverse\" violated at iteration " << iter
         << " (seed " << opts_.seed << ").\n"
         << "// replay: ta_diffcheck --seed=" << opts_.seed
         << " --start=" << iter << " --iters=1\n"
         << "RankedAlphabet sigma = DiffcheckAlphabet(false);\n"
         << "RankedAlphabet ext = DiffcheckAlphabet(true);\n"
         << FormatNbtaConstruction(sa, base_, "a")
         << "BinaryTree t = std::move(ParseBinaryTerm(\""
         << BinaryTermString(st, ext_) << "\", ext)).ValueOrDie();\n"
         << "// expect: InverseRelabelNbta(a).Accepts(t) == "
            "a accepts relabel(t)\n";
      Fail("relabel/inverse", iter,
           "InverseRelabelNbta accepts t iff a accepts relabel(t)", os.str());
      return;
    }
  }
}

void Harness::CheckRelabelImage(size_t iter, const Nbta& a) {
  if (LawDone("relabel/image")) return;
  const Nbta img =
      RelabelNbta(a, kExtToBase, static_cast<uint32_t>(base_.size()));
  NbtaIndex idx_img(img);
  for (const BinaryTree& u : exhaustive_base_) {
    ++report_.comparisons;
    if (NbtaAccepts(idx_img, u) !=
        HasAcceptedPreimage(a, u, kExtToBase, ext_)) {
      Nbta sa = a;
      BinaryTree st = u;
      Pred1 violated = [this](const Nbta& ca, const BinaryTree& ct) {
        return RelabelNbta(ca, kExtToBase, static_cast<uint32_t>(base_.size()))
                   .Accepts(ct) !=
               HasAcceptedPreimage(ca, ct, kExtToBase, ext_);
      };
      if (opts_.shrink && violated(sa, st)) {
        ShrinkNbtaAndTree(&sa, &st, violated);
      }
      std::ostringstream os;
      os << "// law \"relabel/image\" violated at iteration " << iter
         << " (seed " << opts_.seed << ").\n"
         << "// replay: ta_diffcheck --seed=" << opts_.seed
         << " --start=" << iter << " --iters=1\n"
         << "RankedAlphabet sigma = DiffcheckAlphabet(false);\n"
         << "RankedAlphabet ext = DiffcheckAlphabet(true);\n"
         << FormatNbtaConstruction(sa, ext_, "a")
         << "BinaryTree t = std::move(ParseBinaryTerm(\""
         << BinaryTermString(st, base_) << "\", sigma)).ValueOrDie();\n"
         << "// expect: RelabelNbta(a).Accepts(t) == some preimage of t is "
            "accepted by a\n";
      Fail("relabel/image", iter,
           "RelabelNbta accepts t iff some preimage of t is accepted",
           os.str());
      return;
    }
  }
}

void Harness::CheckInclusion(size_t iter, bool extended, const Nbta& a,
                             const Nbta& b) {
  if (LawDone("inclusion/agree") && LawDone("inclusion/witness") &&
      LawDone("inclusion/equiv-symmetric")) {
    return;
  }
  const RankedAlphabet& sigma = extended ? ext_ : base_;

  // Reference decision: L(A) ⊆ L(B) ⟺ L(A) ∩ ¬L(B) = ∅, with naive ops on
  // these ≤6-state instances.
  Result<Nbta> refcomp_b = RefComplement(b, sigma);
  PEBBLETC_CHECK(refcomp_b.ok()) << "RefComplement on a <=6-state automaton";
  const bool ref_included = RefIsEmpty(RefIntersect(a, *refcomp_b));

  TaOpContext ctx = BudgetCtx(opts_);
  NbtaIndex idx_a(a, &ctx);
  NbtaIndex idx_b(b, &ctx);
  std::optional<NbtaInclusionResult> incl = Budgeted(
      NbtaIncludedIn(idx_a, idx_b, sigma, &ctx), "NbtaIncludedIn", iter);
  if (!incl.has_value()) return;

  auto fail2 = [&](const char* law, const std::string& detail,
                   const Pred2& v) {
    Nbta sa = a, sb = b;
    BinaryTree dummy;
    dummy.SetRoot(dummy.AddLeaf(0));
    if (opts_.shrink && v && v(sa, sb, dummy)) {
      ShrinkTwoNbtaAndTree(&sa, &sb, &dummy, v);
    }
    Fail(law, iter, detail,
         Repro(law, iter, extended, &sa, &sb, nullptr, detail));
  };

  if (!LawDone("inclusion/agree")) {
    ++report_.comparisons;
    if (incl->included != ref_included) {
      Pred2 v = [&sigma](const Nbta& ca, const Nbta& cb, const BinaryTree&) {
        Result<Nbta> rc = RefComplement(cb, sigma);
        if (!rc.ok()) return false;
        auto r = IncludedIn(ca, cb, sigma);
        return r.ok() &&
               r->included != RefIsEmpty(RefIntersect(ca, *rc));
      };
      fail2("inclusion/agree",
            "NbtaIncludedIn must agree with the reference decision "
            "IsEmpty(A ∩ ¬B)",
            v);
    }
  }

  if (!LawDone("inclusion/witness")) {
    ++report_.comparisons;
    const bool witness_ok =
        incl->included
            ? !incl->counterexample.has_value()
            : incl->counterexample.has_value() &&
                  RefAccepts(a, *incl->counterexample) &&
                  !RefAccepts(b, *incl->counterexample);
    if (!witness_ok) {
      Pred2 v = [&sigma](const Nbta& ca, const Nbta& cb, const BinaryTree&) {
        auto r = IncludedIn(ca, cb, sigma);
        if (!r.ok()) return false;
        if (r->included) return r->counterexample.has_value();
        return !r->counterexample.has_value() ||
               !RefAccepts(ca, *r->counterexample) ||
               RefAccepts(cb, *r->counterexample);
      };
      fail2("inclusion/witness",
            "a refutation must carry a counterexample in L(A) \\ L(B), an "
            "inclusion must carry none",
            v);
    }
  }

  if (!LawDone("inclusion/equiv-symmetric")) {
    TaOpContext ctx_rev = BudgetCtx(opts_);
    std::optional<NbtaInclusionResult> rev =
        Budgeted(NbtaIncludedIn(idx_b, idx_a, sigma, &ctx_rev),
                 "NbtaIncludedIn(b,a)", iter);
    std::optional<bool> eq_ab = Budgeted(NbtaEquivalent(a, b, sigma),
                                         "NbtaEquivalent(a,b)", iter);
    std::optional<bool> eq_ba = Budgeted(NbtaEquivalent(b, a, sigma),
                                         "NbtaEquivalent(b,a)", iter);
    if (rev.has_value() && eq_ab.has_value() && eq_ba.has_value()) {
      ++report_.comparisons;
      const bool want = incl->included && rev->included;
      if (*eq_ab != want || *eq_ba != want) {
        Pred2 v = [&sigma](const Nbta& ca, const Nbta& cb,
                           const BinaryTree&) {
          auto fwd = IncludedIn(ca, cb, sigma);
          auto bwd = IncludedIn(cb, ca, sigma);
          auto e1 = NbtaEquivalent(ca, cb, sigma);
          auto e2 = NbtaEquivalent(cb, ca, sigma);
          if (!fwd.ok() || !bwd.ok() || !e1.ok() || !e2.ok()) return false;
          const bool cwant = fwd->included && bwd->included;
          return *e1 != cwant || *e2 != cwant;
        };
        fail2("inclusion/equiv-symmetric",
              "NbtaEquivalent must equal inclusion in both directions and "
              "be symmetric in its arguments",
              v);
      }
    }
  }
}

void Harness::CheckTypechecker(size_t iter, Rng& rng) {
  if (LawDone("typecheck/verdict") && LawDone("typecheck/witness")) return;
  // Small types keep the reference decision (a full naive
  // complement-and-intersect emptiness check) cheap.
  RandomNbtaOptions o;
  o.num_states = 1 + static_cast<uint32_t>(rng.NextBelow(4));
  o.rule_density = 0.2 + 0.5 * rng.NextDouble();
  o.leaf_density = 0.4 + 0.4 * rng.NextDouble();
  o.accepting_density = 0.3 + 0.4 * rng.NextDouble();
  const Nbta tau1 = RandomNbta(base_, rng, o);
  const Nbta tau2 = RandomNbta(base_, rng, o);

  const PebbleTransducer copy = MakeCopyTransducer(base_);
  const Typechecker tc(copy, base_, base_);
  Result<TypecheckResult> res = tc.Typecheck(tau1, tau2, TcOptions());
  if (!res.ok()) {
    Fail("typecheck/verdict", iter,
         "Typecheck failed outright: " + res.status().ToString(),
         Repro("typecheck/verdict", iter, false, &tau1, &tau2, nullptr,
               "Typecheck returns a verdict"));
    return;
  }

  // For the copy transducer, T(τ1) ⊆ τ2 ⟺ τ1 ⊆ τ2; decide with reference
  // ops only.
  Result<Nbta> refcomp2 = RefComplement(tau2, base_);
  PEBBLETC_CHECK(refcomp2.ok()) << "RefComplement on a <=4-state automaton";
  const bool ref_included = RefIsEmpty(RefIntersect(tau1, *refcomp2));

  // Law "memo/verdict": the whole pipeline run twice with the op cache on
  // (the process-wide cache the daemon uses) must return the cold run's
  // decision both times — verdict, method and counterexample — and when the
  // first run ends in a downward-fastpath proof, the second must be served
  // by it.
  if (opts_.memo && !LawDone("memo/verdict")) {
    TypecheckOptions warm_opts = TcOptions();
    warm_opts.memo = TaMemoMode::kInMemory;
    auto fail = [&](const std::string& detail) {
      Fail("memo/verdict", iter, detail,
           Repro("memo/verdict", iter, false, &tau1, &tau2, nullptr,
                 "memo runs return the cold decision, and a repeated "
                 "downward proof is a cache hit"));
    };
    ++report_.comparisons;
    bool proved = false;
    for (int run = 1; run <= 2; ++run) {
      Result<TypecheckResult> wres = tc.Typecheck(tau1, tau2, warm_opts);
      if (!wres.ok()) {
        fail("Typecheck under --memo failed outright: " +
             wres.status().ToString());
        break;
      }
      if (wres->exhausted.exhausted || res->exhausted.exhausted) {
        // A deadline cut on either side makes the decisions incomparable.
        ++report_.budget_skips;
        break;
      }
      const char* differs =
          wres->verdict != res->verdict ? "verdict"
          : wres->method != res->method ? "method"
          : wres->counterexample_input != res->counterexample_input
              ? "counterexample input"
          : wres->counterexample_output != res->counterexample_output
              ? "counterexample output"
              : nullptr;
      if (differs != nullptr) {
        fail(std::string("memo run ") + std::to_string(run) + " changed the " +
             differs + " (cold " + res->method + " " +
             std::to_string(static_cast<int>(res->verdict)) + ", memo " +
             wres->method + " " +
             std::to_string(static_cast<int>(wres->verdict)) + ")");
        break;
      }
      if (run == 2 && proved && wres->op_counters.memo_hits < 1) {
        fail("a repeat of a downward-fastpath proof missed the cache");
        break;
      }
      proved = wres->verdict == TypecheckVerdict::kTypechecks &&
               wres->method == "downward-fastpath";
    }
  }

  Pred2 violated = [this](const Nbta& c1, const Nbta& c2, const BinaryTree&) {
    const PebbleTransducer ccopy = MakeCopyTransducer(base_);
    const Typechecker ctc(ccopy, base_, base_);
    Result<TypecheckResult> r = ctc.Typecheck(c1, c2, TcOptions());
    if (!r.ok()) return false;
    Result<Nbta> rc2 = RefComplement(c2, base_);
    if (!rc2.ok()) return false;
    const bool inc = RefIsEmpty(RefIntersect(c1, *rc2));
    if (r->verdict == TypecheckVerdict::kTypechecks) return !inc;
    if (r->verdict == TypecheckVerdict::kCounterexample) return inc;
    // kUnknown is a failure only when nothing was cut short (see below).
    return !r->exhausted.exhausted;
  };
  auto fail_verdict = [&](const char* law, const std::string& detail) {
    Nbta s1 = tau1, s2 = tau2;
    BinaryTree dummy;
    dummy.SetRoot(dummy.AddLeaf(0));
    if (opts_.shrink && violated(s1, s2, dummy)) {
      ShrinkTwoNbtaAndTree(&s1, &s2, &dummy, violated);
    }
    Fail(law, iter, detail,
         Repro(law, iter, false, &s1, &s2, nullptr, detail));
  };

  ++report_.comparisons;
  switch (res->verdict) {
    case TypecheckVerdict::kTypechecks:
      if (!ref_included) {
        fail_verdict("typecheck/verdict",
                     "verdict kTypechecks but the reference decision finds "
                     "a counterexample (copy transducer: τ1 ⊄ τ2)");
      }
      break;
    case TypecheckVerdict::kCounterexample: {
      if (ref_included) {
        fail_verdict("typecheck/verdict",
                     "verdict kCounterexample but the reference decision "
                     "proves τ1 ⊆ τ2 (copy transducer)");
        break;
      }
      // Law "typecheck/antichain-witness": a pass-1 refutation names the
      // first τ1 tree of the pass's own enumeration (same order and caps)
      // that the reference membership rejects. The copy transducer's only
      // output on t is t, so any other input means the per-input antichain
      // search skipped a violator or invented one.
      if (res->method == "bounded-refutation" &&
          !LawDone("typecheck/antichain-witness")) {
        ++report_.comparisons;
        const TypecheckOptions o = TcOptions();
        std::optional<BinaryTree> first;
        for (BinaryTree& t : EnumerateAcceptedTrees(
                 tau1, o.refutation_max_nodes, o.refutation_max_trees)) {
          if (!RefAccepts(tau2, t)) {
            first = std::move(t);
            break;
          }
        }
        if (!first.has_value() || !res->counterexample_input.has_value() ||
            !(*res->counterexample_input == *first)) {
          Fail("typecheck/antichain-witness", iter,
               "a bounded-refutation counterexample must be the first "
               "enumerated τ1 tree that the reference membership rejects",
               Repro("typecheck/antichain-witness", iter, false, &tau1,
                     &tau2,
                     res->counterexample_input.has_value()
                         ? &*res->counterexample_input
                         : nullptr,
                     "counterexample_input is the first enumerated τ1 tree "
                     "outside L(τ2)"));
        }
      }
      if (LawDone("typecheck/witness")) break;
      ++report_.comparisons;
      bool witness_ok = res->counterexample_input.has_value() &&
                        RefAccepts(tau1, *res->counterexample_input) &&
                        !RefAccepts(tau2, *res->counterexample_input);
      if (witness_ok && res->counterexample_output.has_value()) {
        // The copy transducer's only output on t is t itself.
        witness_ok = *res->counterexample_output == *res->counterexample_input;
      }
      if (!witness_ok) {
        Fail("typecheck/witness", iter,
             "counterexample input must lie in τ1 \\ τ2 (and the copy "
             "transducer's output must equal its input)",
             Repro("typecheck/witness", iter, false, &tau1, &tau2,
                   res->counterexample_input.has_value()
                       ? &*res->counterexample_input
                       : nullptr,
                   "counterexample_input ∈ L(τ1) \\ L(τ2)"));
      }
      break;
    }
    case TypecheckVerdict::kUnknown:
      // A deadline/budget cut is a tallied skip; kUnknown with nothing cut
      // short means the ladder gave up on a decidable tiny instance.
      if (res->exhausted.exhausted) {
        ++report_.budget_skips;
        break;
      }
      fail_verdict("typecheck/verdict",
                   "verdict kUnknown on a tiny copy-transducer instance");
      break;
  }
}

void Harness::CheckInferInverse(size_t iter, Rng& rng) {
  if (LawDone("infer/copy")) return;
  RandomNbtaOptions o;
  o.num_states = 1 + static_cast<uint32_t>(rng.NextBelow(3));
  o.rule_density = 0.2 + 0.5 * rng.NextDouble();
  o.leaf_density = 0.4 + 0.4 * rng.NextDouble();
  o.accepting_density = 0.3 + 0.4 * rng.NextDouble();
  const Nbta tau2 = RandomNbta(base_, rng, o);

  const PebbleTransducer copy = MakeCopyTransducer(base_);
  const Typechecker tc(copy, base_, base_);
  Result<Nbta> inferred = tc.InferInverseType(tau2, TcOptions());
  if (!inferred.ok()) {
    if (inferred.status().code() == StatusCode::kResourceExhausted ||
        inferred.status().code() == StatusCode::kDeadlineExceeded) {
      ++report_.budget_skips;
      return;
    }
    Fail("infer/copy", iter,
         "InferInverseType failed: " + inferred.status().ToString(),
         Repro("infer/copy", iter, false, &tau2, nullptr, nullptr,
               "InferInverseType succeeds"));
    return;
  }
  // For the copy transducer, τ2⁻¹ = {t | {t} ⊆ τ2} = L(τ2).
  NbtaIndex idx_inf(*inferred);
  for (const BinaryTree& t : exhaustive_base_) {
    ++report_.comparisons;
    if (NbtaAccepts(idx_inf, t) != RefAccepts(tau2, t)) {
      Fail("infer/copy", iter,
           "InferInverseType for the copy transducer must equal L(τ2)",
           Repro("infer/copy", iter, false, &tau2, nullptr, &t,
                 "inferred inverse type accepts t iff τ2 does"));
      return;
    }
  }
}

// Law "typecheck/downward-search": with pass 1 off, pass 2's τ1-guided
// search decides, and it must agree on emptiness with the reference closure
// intersected with τ1 — RefDownwardProduct over RefDeterminize(τ2) with
// every accepting bit flipped, a complete DBTA for ¬τ2 built without the
// optimized ops. A witness must be a τ1 tree, and the reported violating
// output must be one of its outputs (Prop. 3.8 membership) and lie outside
// τ2. Returns the violation, or nullopt; `*skipped` is set when a budget or
// the deadline cut either side short.
std::optional<std::string> Harness::DownwardSearchViolation(
    const PebbleTransducer& t, const RankedAlphabet& out_sigma,
    const Nbta& tau1, const Nbta& tau2, bool* skipped) const {
  TypecheckOptions o = TcOptions();
  o.refutation_max_trees = 0;
  o.run_complete_decision = false;
  o.degrade_on_exhaustion = false;
  const Typechecker tc(t, base_, out_sigma);
  Result<TypecheckResult> res = tc.Typecheck(tau1, tau2, o);
  if (!res.ok()) return "Typecheck failed outright: " + res.status().ToString();
  if (res->exhausted.exhausted) {
    *skipped = true;
    return std::nullopt;
  }
  if (res->method != "downward-fastpath") {
    return "pass 2 did not decide (method " + res->method + ")";
  }
  Result<Dbta> not_tau2 = RefDeterminize(tau2, out_sigma);
  PEBBLETC_CHECK(not_tau2.ok()) << "RefDeterminize on a <=4-state automaton";
  for (StateId q = 0; q < not_tau2->num_states(); ++q) {
    not_tau2->set_accepting(q, !not_tau2->accepting(q));
  }
  Result<Nbta> closure = RefDownwardProduct(t, *not_tau2, base_);
  if (!closure.ok()) {
    if (closure.status().code() == StatusCode::kResourceExhausted) {
      *skipped = true;
      return std::nullopt;
    }
    return "RefDownwardProduct failed: " + closure.status().ToString();
  }
  const bool ref_typechecks = RefIsEmpty(RefIntersect(tau1, *closure));
  const bool typechecks = res->verdict == TypecheckVerdict::kTypechecks;
  if (typechecks != ref_typechecks) {
    return std::string("the search says ") +
           (typechecks ? "no bad input" : "a bad input") +
           " exists, RefDownwardProduct ∩ τ1 says the opposite";
  }
  if (typechecks) return std::nullopt;
  if (!res->counterexample_input.has_value() ||
      !RefAccepts(tau1, *res->counterexample_input)) {
    return "the witness input is missing or outside τ1";
  }
  if (!res->counterexample_output.has_value()) {
    return "no violating output was recovered for the witness input";
  }
  Result<bool> produced = OutputContains(t, *res->counterexample_input,
                                         *res->counterexample_output);
  if (!produced.ok() || !*produced) {
    return "the reported output is not an output of the witness input";
  }
  if (RefAccepts(tau2, *res->counterexample_output)) {
    return "the reported output is in τ2";
  }
  return std::nullopt;
}

void Harness::CheckDownwardSearch(size_t iter, Rng& rng) {
  if (LawDone("typecheck/downward-search")) return;
  RandomNbtaOptions o;
  o.num_states = 1 + static_cast<uint32_t>(rng.NextBelow(4));
  o.rule_density = 0.2 + 0.5 * rng.NextDouble();
  o.leaf_density = 0.4 + 0.4 * rng.NextDouble();
  o.accepting_density = 0.3 + 0.4 * rng.NextDouble();
  const Nbta tau1 = RandomNbta(base_, rng, o);
  const Nbta copy_tau2 = RandomNbta(base_, rng, o);
  const Nbta doubling_tau2 = RandomNbta(doubled_, rng, o);
  const Nbta random_tau2 = RandomNbta(base_, rng, o);
  const PebbleTransducer copy = MakeCopyTransducer(base_);
  const PebbleTransducer random = RandomDownwardTransducer(base_, rng);

  struct Case {
    const char* name;
    const PebbleTransducer& t;
    const RankedAlphabet& out_sigma;
    const Nbta& tau2;
  };
  for (const Case& c : {Case{"copy", copy, base_, copy_tau2},
                        Case{"doubling", doubling_, doubled_, doubling_tau2},
                        Case{"random", random, base_, random_tau2}}) {
    ++report_.comparisons;
    bool skipped = false;
    std::optional<std::string> detail =
        DownwardSearchViolation(c.t, c.out_sigma, tau1, c.tau2, &skipped);
    if (skipped) ++report_.budget_skips;
    if (!detail.has_value()) continue;
    Nbta s1 = tau1, s2 = c.tau2;
    BinaryTree dummy;
    dummy.SetRoot(dummy.AddLeaf(0));
    if (opts_.shrink) {
      ShrinkTwoNbtaAndTree(&s1, &s2, &dummy,
                           [&](const Nbta& c1, const Nbta& c2,
                               const BinaryTree&) {
                             bool cut = false;
                             return DownwardSearchViolation(
                                        c.t, c.out_sigma, c1, c2, &cut)
                                 .has_value();
                           });
    }
    std::ostringstream repro;
    repro << "// law \"typecheck/downward-search\" violated at iteration "
          << iter << " (seed " << opts_.seed << "), " << c.name
          << " transducer.\n";
    repro << "// replay: ta_diffcheck --seed=" << opts_.seed
          << " --start=" << iter << " --iters=1\n";
    repro << "/* transducer:\n"
          << TransducerString(c.t, base_, c.out_sigma) << "*/\n";
    repro << FormatNbtaConstruction(s1, base_, "tau1");
    repro << FormatNbtaConstruction(s2, c.out_sigma, "tau2");
    repro << "// expect: " << *detail << "\n";
    Fail("typecheck/downward-search", iter,
         std::string(c.name) + ": " + *detail, repro.str());
    return;
  }
}

}  // namespace

RankedAlphabet DiffcheckAlphabet(bool extended) {
  RankedAlphabet sigma;
  PEBBLETC_CHECK(sigma.AddLeaf("a0").ok());
  PEBBLETC_CHECK(sigma.AddLeaf("b0").ok());
  PEBBLETC_CHECK(sigma.AddBinary("a2").ok());
  PEBBLETC_CHECK(sigma.AddBinary("b2").ok());
  if (extended) {
    PEBBLETC_CHECK(sigma.AddLeaf("u0").ok());
    PEBBLETC_CHECK(sigma.AddBinary("u2").ok());
  }
  return sigma;
}

std::string FormatNbtaConstruction(const Nbta& a, const RankedAlphabet& sigma,
                                   const std::string& var) {
  std::ostringstream os;
  os << "Nbta " << var << ";\n";
  os << var << ".num_symbols = " << a.num_symbols << ";\n";
  if (a.num_states > 0) {
    os << "for (int i = 0; i < " << a.num_states << "; ++i) " << var
       << ".AddState();\n";
  }
  for (StateId q = 0; q < a.num_states; ++q) {
    if (a.accepting[q]) os << var << ".accepting[" << q << "] = true;\n";
  }
  for (const Nbta::LeafRule& r : a.leaf_rules) {
    os << var << ".AddLeafRule(" << r.symbol << ", " << r.to << ");  // "
       << (r.symbol < sigma.size() ? sigma.Name(r.symbol) : "?") << "\n";
  }
  for (const Nbta::BinaryRule& r : a.rules) {
    os << var << ".AddRule(" << r.symbol << ", " << r.left << ", " << r.right
       << ", " << r.to << ");  // "
       << (r.symbol < sigma.size() ? sigma.Name(r.symbol) : "?") << "\n";
  }
  return os.str();
}

DiffcheckReport RunDiffcheck(const DiffcheckOptions& options) {
  const uint32_t threads = std::min<uint64_t>(
      options.num_threads == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : options.num_threads,
      options.iters == 0 ? 1 : options.iters);
  if (threads <= 1) {
    Harness harness(options);
    return harness.Run();
  }

  // Sharded sweep: contiguous per-worker iteration ranges (iteration i draws
  // from MixSeed(seed, i) alone, so the split has no effect on what any
  // iteration does), one thread and one Harness per worker, a shared failure
  // tally capping the whole sweep, and a deterministic merge ordered by
  // worker index.
  std::vector<DiffcheckReport::WorkerRange> ranges(threads);
  const size_t base = options.iters / threads;
  const size_t rem = options.iters % threads;
  size_t next_start = options.start;
  for (uint32_t w = 0; w < threads; ++w) {
    ranges[w].worker = w;
    ranges[w].start = next_start;
    ranges[w].iters = base + (w < rem ? 1 : 0);
    next_start += ranges[w].iters;
  }

  std::atomic<size_t> shared_failures{0};
  std::vector<DiffcheckReport> reports(threads);
  {
    // jthreads join when the vector goes out of scope, on every path.
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (uint32_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        DiffcheckOptions shard = options;
        shard.start = ranges[w].start;
        shard.iters = ranges[w].iters;
        Harness harness(shard, &shared_failures);
        reports[w] = harness.Run();
      });
    }
  }

  DiffcheckReport merged;
  merged.worker_ranges = std::move(ranges);
  std::set<std::string> seen_laws;
  for (DiffcheckReport& r : reports) {
    merged.iterations += r.iterations;
    merged.comparisons += r.comparisons;
    merged.budget_skips += r.budget_skips;
    merged.suppressed_failures += r.suppressed_failures;
    for (DiffcheckFailure& f : r.failures) {
      // Each law reports once sweep-wide, as in a serial run; later workers'
      // duplicates count as suppressed.
      if (!seen_laws.insert(f.law).second ||
          merged.failures.size() >= options.max_failures) {
        ++merged.suppressed_failures;
        continue;
      }
      merged.failures.push_back(std::move(f));
    }
  }
  return merged;
}

}  // namespace pebbletc
