#include "src/ta/nbta.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/packed_sets.h"
#include "src/ta/nbta_index.h"

namespace pebbletc {

Status Nbta::Validate(const RankedAlphabet& alphabet) const {
  if (num_symbols != alphabet.size()) {
    return Status::InvalidArgument("num_symbols does not match the alphabet");
  }
  if (accepting.size() != num_states) {
    return Status::InvalidArgument("accepting vector size mismatch");
  }
  for (const LeafRule& r : leaf_rules) {
    if (r.to >= num_states || r.symbol >= num_symbols) {
      return Status::InvalidArgument("leaf rule out of range");
    }
    if (alphabet.Rank(r.symbol) != 0) {
      return Status::InvalidArgument("leaf rule on binary symbol '" +
                                     alphabet.Name(r.symbol) + "'");
    }
  }
  for (const BinaryRule& r : rules) {
    if (r.to >= num_states || r.left >= num_states || r.right >= num_states ||
        r.symbol >= num_symbols) {
      return Status::InvalidArgument("binary rule out of range");
    }
    if (alphabet.Rank(r.symbol) != 2) {
      return Status::InvalidArgument("binary rule on leaf symbol '" +
                                     alphabet.Name(r.symbol) + "'");
    }
  }
  return Status::OK();
}

std::vector<std::vector<bool>> NbtaRunStates(const NbtaIndex& idx,
                                             const BinaryTree& tree) {
  const Nbta& a = idx.nbta();
  // Children are always created before parents, so ascending NodeId order is
  // a valid bottom-up evaluation order.
  std::vector<std::vector<bool>> states(tree.size(),
                                        std::vector<bool>(a.num_states, false));
  for (NodeId n = 0; n < tree.size(); ++n) {
    const SymbolId sym = tree.symbol(n);
    if (tree.IsLeaf(n)) {
      for (StateId q : idx.LeafTargets(sym)) states[n][q] = true;
    } else {
      const auto& ls = states[tree.left(n)];
      const auto& rs = states[tree.right(n)];
      for (uint32_t ri : idx.RulesWithSymbol(sym)) {
        const Nbta::BinaryRule& r = a.rules[ri];
        if (ls[r.left] && rs[r.right]) states[n][r.to] = true;
      }
    }
  }
  return states;
}

bool NbtaAccepts(const NbtaIndex& idx, const BinaryTree& tree) {
  const Nbta& a = idx.nbta();
  if (tree.empty()) return false;
  const NodeId root = tree.root();
  std::vector<std::vector<bool>> states(tree.size());
  for (NodeId n = 0; n < tree.size(); ++n) {
    const SymbolId sym = tree.symbol(n);
    if (tree.IsLeaf(n)) {
      if (n == root) {
        // Early exit: accept as soon as one accepting leaf rule fires.
        for (StateId q : idx.LeafTargets(sym)) {
          if (a.accepting[q]) return true;
        }
        return false;
      }
      std::vector<bool> out(a.num_states, false);
      for (StateId q : idx.LeafTargets(sym)) out[q] = true;
      states[n] = std::move(out);
    } else {
      const auto& ls = states[tree.left(n)];
      const auto& rs = states[tree.right(n)];
      if (n == root) {
        // Early exit: no need to materialize the full root bitset.
        for (uint32_t ri : idx.RulesWithSymbol(sym)) {
          const Nbta::BinaryRule& r = a.rules[ri];
          if (a.accepting[r.to] && ls[r.left] && rs[r.right]) return true;
        }
        return false;
      }
      std::vector<bool> out(a.num_states, false);
      for (uint32_t ri : idx.RulesWithSymbol(sym)) {
        const Nbta::BinaryRule& r = a.rules[ri];
        if (ls[r.left] && rs[r.right]) out[r.to] = true;
      }
      states[n] = std::move(out);
    }
  }
  return false;  // root outside the node range (cannot happen for valid trees)
}

std::vector<std::vector<bool>> Nbta::RunStates(const BinaryTree& tree) const {
  return NbtaRunStates(NbtaIndex(*this), tree);
}

bool Nbta::Accepts(const BinaryTree& tree) const {
  return NbtaAccepts(NbtaIndex(*this), tree);
}

Dbta::Dbta(uint32_t num_states, uint32_t num_symbols)
    : num_states_(num_states),
      num_symbols_(num_symbols),
      accepting_(num_states, false),
      leaf_(num_symbols, 0),
      table_(static_cast<size_t>(num_symbols) * num_states * num_states, 0) {
  PEBBLETC_CHECK(num_states > 0) << "DBTA needs at least one state";
}

StateId Dbta::Eval(const BinaryTree& tree) const {
  PEBBLETC_CHECK(!tree.empty()) << "Eval on empty tree";
  std::vector<StateId> state(tree.size());
  for (NodeId n = 0; n < tree.size(); ++n) {
    state[n] = tree.IsLeaf(n)
                   ? LeafState(tree.symbol(n))
                   : Next(tree.symbol(n), state[tree.left(n)],
                          state[tree.right(n)]);
  }
  return state[tree.root()];
}

Nbta Dbta::ToNbta(const RankedAlphabet& alphabet) const {
  PEBBLETC_CHECK(alphabet.size() == num_symbols_) << "alphabet mismatch";
  Nbta out;
  out.num_symbols = num_symbols_;
  for (StateId q = 0; q < num_states_; ++q) {
    StateId id = out.AddState();
    out.accepting[id] = accepting_[q];
  }
  for (SymbolId a : alphabet.LeafSymbols()) out.AddLeafRule(a, leaf_[a]);
  for (SymbolId a : alphabet.BinarySymbols()) {
    for (StateId l = 0; l < num_states_; ++l) {
      for (StateId r = 0; r < num_states_; ++r) {
        out.AddRule(a, l, r, Next(a, l, r));
      }
    }
  }
  return out;
}

namespace {

// --- the frontier-driven subset construction (docs/DETERMINIZE.md) ---
//
// Subsets are processed in interning order; dequeuing subset p expands the
// pairs (p, j) and (j, p) for every j ≤ p and each binary symbol. Any pair
// (i, j) is therefore expanded exactly once — when max(i, j) leaves the
// frontier — instead of being rescanned on every pass of a fixpoint.

// One computed transition δ_sym(l, r) = to, recorded only when `to` is not
// the sink (the Dbta constructor maps every entry to the sink). The
// frontier discipline produces each (sym, l, r) triple exactly once, so
// records append to a flat list; no transition map is needed.
struct DetTrans {
  SymbolId sym;
  StateId l;
  StateId r;
  StateId to;
};

// The state budget and the transition-table cap, enforced *during* the
// frontier loop (between frontier items and at the interior polls), so a
// blowing-up construction aborts promptly instead of after a full pass.
Status DetBudgetCheck(size_t num_subsets, size_t max_states,
                      uint32_t num_symbols) {
  if (max_states != 0 && num_subsets > max_states) {
    return Status::ResourceExhausted(
        "determinization exceeded state budget of " +
        std::to_string(max_states));
  }
  const size_t table_entries =
      static_cast<size_t>(num_symbols) * num_subsets * num_subsets;
  if (table_entries > (size_t{1} << 28)) {
    return Status::ResourceExhausted(
        "determinized transition table too large (" +
        std::to_string(table_entries) + " entries)");
  }
  return Status::OK();
}

// A fold's rows may not pass this many words (32 MiB), so an input's width
// alone never forces an allocation: rows are appended as the adjacency
// touches them. Inputs of at most 11584 states never reach it.
constexpr size_t kMaxFoldWords = size_t{1} << 22;

// Interior polls come every kPollPairs pairs or kPollWords word operations,
// whichever is first. A one-word input counts fewer than 200 word
// operations per pair, so below 65 states the pairs always come first.
constexpr size_t kPollPairs = 4096;
constexpr size_t kPollWords = size_t{1} << 20;

// Subsets are packed sets of w = ⌈n/64⌉ words interned in a PackedSetTable
// (src/common/packed_sets.h); kWords = 1 fixes w at compile time for inputs of
// at most 64 states, kWords = 0 reads it at run time. When S_p leaves the
// frontier, each binary symbol folds it once, through the (symbol, child)
// adjacency, into rows indexed by state: left row q2 is δ(S_p, {q2}), right
// row q1 is δ({q1}, S_p). δ(S_p, S_j) is then the union of the left rows of
// S_j's states and δ(S_j, S_p) that of its right rows: |S_j| w-word ORs.
template <size_t kWords>
Result<Dbta> Determinize(const NbtaIndex& idx, TaOpContext* ctx) {
  const Nbta& a = idx.nbta();
  const uint32_t ns = a.num_states;
  const size_t w = kWords != 0 ? kWords : (ns + 63) / 64;
  const size_t max_states = TaBudgetMaxDetStates(ctx);

  // Three w-word sets: the one being built, and a pair's two results.
  std::vector<uint64_t> buf(3 * w, 0);
  uint64_t* const scratch = buf.data();
  uint64_t* const out_lr = scratch + w;  // δ(S_p, S_j)
  uint64_t* const out_rl = out_lr + w;   // δ(S_j, S_p)

  PackedSetTable subsets(w);
  subsets.Intern<kWords>(scratch);  // the empty subset: sink, state 0
  std::vector<StateId> leaf_state(a.num_symbols);
  for (SymbolId s = 0; s < a.num_symbols; ++s) {
    std::fill_n(scratch, w, 0);
    for (StateId q : idx.LeafTargets(s)) SetBit(scratch, q);
    leaf_state[s] = subsets.Intern<kWords>(scratch);
  }

  std::vector<SymbolId> active;  // symbols with at least one binary rule
  for (SymbolId s = 0; s < a.num_symbols; ++s) {
    if (!idx.RulesWithSymbol(s).empty()) active.push_back(s);
  }

  // The fold's rows, by side k (0: left, 1: right) and state q: row (k, q)
  // is [slot[k * ns + q] * w, +w) of `rows` while bit q of side k's `live`
  // words is set. A fold appends a row, zeroed, on its first touch; the
  // next fold clears `live` and refills `rows` from the start.
  std::vector<uint64_t> live(2 * w);
  std::vector<uint32_t> slot(2 * static_cast<size_t>(ns));
  std::vector<uint64_t> rows;
  size_t used = 0;
  bool capped = false;  // a fold's rows would pass kMaxFoldWords
  size_t words = 0;     // word operations of folds and pairs, for the polls
  // Sets bit `to` of row (k, q), appending the row when absent.
  auto add = [&](size_t k, StateId q, StateId to) {
    uint32_t& at = slot[k * ns + q];
    if (!TestBit(live.data() + k * w, q)) {
      if ((used + 1) * w > kMaxFoldWords) {
        capped = true;
        return;
      }
      SetBit(live.data() + k * w, q);
      at = static_cast<uint32_t>(used++);
      if (rows.size() < used * w) rows.resize(used * w);
      std::fill_n(rows.data() + at * w, w, 0);
      words += w;
    }
    SetBit(rows.data() + static_cast<size_t>(at) * w, to);
  };
  // out = the union of side k's rows of `set`'s states; false when there
  // are none: out is then empty and the pair goes to the sink.
  auto apply = [&](size_t k, const uint64_t* set, uint64_t* out) {
    const uint64_t* side_live = live.data() + k * w;
    const uint32_t* side_slot = slot.data() + k * ns;
    std::fill_n(out, w, 0);
    size_t ored = 0;
    for (size_t wi = 0; wi < w; ++wi) {
      for (uint64_t bits = set[wi] & side_live[wi]; bits != 0;
           bits &= bits - 1) {
        const size_t q = wi * 64 + std::countr_zero(bits);
        const uint64_t* row = rows.data() + side_slot[q] * w;
        for (size_t i = 0; i < w; ++i) out[i] |= row[i];
        ++ored;
      }
    }
    words += (2 + ored) * w;
    return ored != 0;
  };

  std::vector<DetTrans> trans;
  size_t pairs = 0;
  size_t rules_scanned = 0;
  // The frontier loop. Its counters are flushed on every exit path.
  auto frontier = [&]() -> Status {
    size_t next_poll = kPollPairs;
    size_t next_words = kPollWords;
    for (uint32_t p = 0; p < subsets.size(); ++p) {
      for (SymbolId s : active) {
        PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
        std::fill(live.begin(), live.end(), 0);
        used = 0;
        ForEachBit(subsets.Set(p), w, [&](StateId q) {
          if (capped) return;
          const auto as_left = idx.SymbolLeft(s, q);
          const auto as_right = idx.SymbolRight(s, q);
          rules_scanned += as_left.size() + as_right.size();
          for (const auto& rt : as_left) add(0, rt.right, rt.to);
          for (const auto& lt : as_right) add(1, lt.left, lt.to);
        });
        if (capped) {
          return Status::ResourceExhausted("determinization fold exceeded " +
                                           std::to_string(kMaxFoldWords) +
                                           " words");
        }

        for (uint32_t j = 0; j <= p; ++j) {
          // Both results before either intern: interning may move S_j.
          const uint64_t* sj = subsets.Set(j);
          const bool lr = apply(0, sj, out_lr);
          const bool rl = j != p && apply(1, sj, out_rl);
          if (lr) trans.push_back({s, p, j, subsets.Intern<kWords>(out_lr)});
          if (rl) trans.push_back({s, j, p, subsets.Intern<kWords>(out_rl)});
          pairs += j != p ? 2 : 1;
          if (pairs >= next_poll || words >= next_words) {
            next_poll = pairs + kPollPairs;
            next_words = words + kPollWords;
            PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
            PEBBLETC_RETURN_IF_ERROR(
                DetBudgetCheck(subsets.size(), max_states, a.num_symbols));
          }
        }
        PEBBLETC_RETURN_IF_ERROR(
            DetBudgetCheck(subsets.size(), max_states, a.num_symbols));
      }
    }
    return Status::OK();
  };
  const Status done = frontier();
  TaCountRules(ctx, rules_scanned);
  if (ctx != nullptr) {
    ctx->counters.det_pairs_expanded += pairs;
    ctx->counters.det_subsets_interned += subsets.size();
  }
  PEBBLETC_RETURN_IF_ERROR(done);

  uint64_t* const accepting = scratch;
  std::fill_n(accepting, w, 0);
  for (StateId q : idx.AcceptingStates()) SetBit(accepting, q);
  const uint32_t n = subsets.size();
  Dbta out(n, a.num_symbols);
  for (StateId q = 0; q < n; ++q) {
    out.set_accepting(q, Intersects(subsets.Set(q), accepting, w));
  }
  for (SymbolId s = 0; s < a.num_symbols; ++s) out.SetLeafState(s, leaf_state[s]);
  for (const DetTrans& t : trans) out.SetNext(t.sym, t.l, t.r, t.to);
  if (ctx != nullptr) {
    ctx->counters.determinizations++;
    ctx->counters.states_materialized += n;
  }
  return out;
}

}  // namespace

Result<Dbta> DeterminizeNbta(const NbtaIndex& idx,
                             const RankedAlphabet& alphabet, TaOpContext* ctx) {
  const Nbta& a = idx.nbta();
  if (alphabet.size() != a.num_symbols) {
    return Status::InvalidArgument("alphabet size mismatch in determinize");
  }
  TaOpTimer timer(ctx);
  return a.num_states <= 64 ? Determinize<1>(idx, ctx)
                            : Determinize<0>(idx, ctx);
}

Result<Dbta> DeterminizeNbta(const Nbta& a, const RankedAlphabet& alphabet,
                             TaOpContext* ctx) {
  return DeterminizeNbta(NbtaIndex(a, ctx), alphabet, ctx);
}

Result<Dbta> ComplementDbta(const NbtaIndex& a, const RankedAlphabet& alphabet,
                            TaOpContext* ctx) {
  PEBBLETC_ASSIGN_OR_RETURN(Dbta det, DeterminizeNbta(a, alphabet, ctx));
  if (ctx != nullptr) ctx->counters.complementations++;
  for (StateId q = 0; q < det.num_states(); ++q) {
    det.set_accepting(q, !det.accepting(q));
  }
  return det;
}

Result<Nbta> ComplementNbta(const NbtaIndex& a, const RankedAlphabet& alphabet,
                            TaOpContext* ctx) {
  PEBBLETC_ASSIGN_OR_RETURN(Dbta det, ComplementDbta(a, alphabet, ctx));
  return det.ToNbta(alphabet);
}

Result<Nbta> ComplementNbta(const Nbta& a, const RankedAlphabet& alphabet,
                            TaOpContext* ctx) {
  return ComplementNbta(NbtaIndex(a, ctx), alphabet, ctx);
}

namespace {

// ---------------------------------------------------------------------------
// Flat product-construction machinery (docs/PARALLEL.md).
//
// Every (a-rule, b-rule) candidate touches two structures: the pair
// interner — the shared PackedSetTable (src/common/packed_sets.h) over
// one-word keys x << 32 | y, whose ids are the product's states — and the
// emitted-combination guard below. Both are flat arrays; the node-based
// std::map / std::set they replaced dominated the product's profile the
// same way the determinization maps did before the frontier rewrite
// (docs/DETERMINIZE.md).
// ---------------------------------------------------------------------------

inline uint64_t PackPair(StateId x, StateId y) {
  return (static_cast<uint64_t>(x) << 32) | y;
}

// Replaces the per-(a-rule, b-rule) std::set emitted guard with lazily
// allocated per-a-rule bitmap rows. A surviving candidate's b-rule always
// carries the a-rule's symbol (mismatches are rejected before the guard), so
// a row only spans the b-rules labelled with that symbol: bit positions are
// each b-rule's dense position inside ib.RulesWithSymbol(symbol),
// precomputed once. Rows live in one arena and are allocated the first time
// their a-rule survives the pair lookups.
class EmittedGuard {
 public:
  EmittedGuard(const NbtaIndex& ib, size_t num_a_rules)
      : rows_(num_a_rules, kNoRow) {
    const Nbta& b = ib.nbta();
    b_pos_.resize(b.rules.size());
    row_words_.resize(b.num_symbols);
    for (SymbolId s = 0; s < b.num_symbols; ++s) {
      const auto rules = ib.RulesWithSymbol(s);
      row_words_[s] = static_cast<uint32_t>((rules.size() + 63) / 64);
      uint32_t pos = 0;
      for (uint32_t rb_i : rules) b_pos_[rb_i] = pos++;
    }
  }

  // Test-and-set of (ra_i, rb_i); true when the combination is new.
  bool Mark(uint32_t ra_i, SymbolId symbol, uint32_t rb_i) {
    uint64_t row = rows_[ra_i];
    if (row == kNoRow) {
      row = arena_.size();
      arena_.resize(arena_.size() + row_words_[symbol], 0);
      rows_[ra_i] = row;
    }
    const uint32_t pos = b_pos_[rb_i];
    uint64_t& word = arena_[row + pos / 64];
    const uint64_t bit = 1ull << (pos % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

 private:
  static constexpr uint64_t kNoRow = ~0ull;
  std::vector<uint64_t> rows_;       // a-rule -> arena word offset
  std::vector<uint64_t> arena_;      // concatenated bitmap rows
  std::vector<uint32_t> b_pos_;      // b-rule -> dense per-symbol position
  std::vector<uint32_t> row_words_;  // symbol -> row width in words
};

// The product construction. Worklist-driven and serial by design: one
// product has too little independent work to pay for sharding (measured in
// docs/PARALLEL.md, "What stays serial"), and serial keeps state numbering,
// rule order and checkpoint ordinals a function of the operands alone.
void IntersectSerial(const NbtaIndex& ia, const NbtaIndex& ib,
                     TaOpContext* ctx, Nbta& out) {
  const Nbta& a = ia.nbta();
  const Nbta& b = ib.nbta();

  // Discovered (inhabited) state pairs, worklist-driven.
  PackedSetTable pairs(1);
  std::vector<std::pair<StateId, StateId>> worklist;
  auto intern = [&](StateId x, StateId y) -> StateId {
    const uint64_t key = PackPair(x, y);
    const StateId id = pairs.Intern<1>(&key);
    if (id == out.num_states) {
      out.AddState();
      out.accepting[id] = a.accepting[x] && b.accepting[y];
      worklist.push_back({x, y});
    }
    return id;
  };
  auto find = [&](StateId x, StateId y) {
    const uint64_t key = PackPair(x, y);
    return pairs.Find<1>(&key);
  };

  // Leaf pairs seed the worklist.
  for (SymbolId s = 0; s < a.num_symbols; ++s) {
    for (StateId ta : ia.LeafTargets(s)) {
      for (StateId tb : ib.LeafTargets(s)) {
        out.AddLeafRule(s, intern(ta, tb));
      }
    }
  }

  // Each (a-rule, b-rule) combination is emitted at most once.
  size_t rules_scanned = 0;
  bool interrupted = false;
  EmittedGuard emitted(ib, a.rules.size());
  auto try_emit = [&](uint32_t ra_i, uint32_t rb_i) {
    ++rules_scanned;
    const auto& ra = a.rules[ra_i];
    const auto& rb = b.rules[rb_i];
    if (ra.symbol != rb.symbol) return;
    const StateId l = find(ra.left, rb.left);
    if (l == PackedSetTable::kNone) return;
    const StateId r = find(ra.right, rb.right);
    if (r == PackedSetTable::kNone) return;
    if (!emitted.Mark(ra_i, ra.symbol, rb_i)) return;
    const StateId to = intern(ra.to, rb.to);
    out.AddRule(ra.symbol, l, r, to);
  };
  // One discovered pair scans |rules_a(child)| × |rules_b(child)|
  // combinations — billions over large (track-extended) alphabets — so the
  // per-item checkpoint below is not enough. Poll between inner sweeps once
  // enough pairs accumulate: the innermost loop stays check-free (the poll
  // must not tax the hot path) and interruption latency is bounded by one
  // b-side rule list.
  size_t next_poll = 4096;
  auto poll = [&]() {
    if (rules_scanned >= next_poll) {
      next_poll = rules_scanned + 4096;
      if (!TaCheckpoint(ctx).ok()) interrupted = true;
    }
  };

  // The compiled by-child adjacency means each discovered pair only visits
  // the rules that mention it.
  while (!worklist.empty() && !interrupted) {
    // Interrupted: drain early; the partial product is structurally valid
    // (every emitted rule is sound), callers consult TaInterruptStatus before
    // drawing emptiness conclusions from it.
    if (!TaCheckpoint(ctx).ok()) break;
    auto [xa, xb] = worklist.back();
    worklist.pop_back();
    for (uint32_t ra_i : ia.RulesWithLeft(xa)) {
      for (uint32_t rb_i : ib.RulesWithLeft(xb)) try_emit(ra_i, rb_i);
      poll();
      if (interrupted) break;
    }
    for (uint32_t ra_i : ia.RulesWithRight(xa)) {
      for (uint32_t rb_i : ib.RulesWithRight(xb)) try_emit(ra_i, rb_i);
      poll();
      if (interrupted) break;
    }
  }
  if (ctx != nullptr) ctx->counters.rules_scanned += rules_scanned;
}

}  // namespace

Nbta IntersectNbta(const NbtaIndex& ia, const NbtaIndex& ib, TaOpContext* ctx) {
  const Nbta& a = ia.nbta();
  const Nbta& b = ib.nbta();
  PEBBLETC_CHECK(a.num_symbols == b.num_symbols)
      << "intersection over mismatched alphabets";
  TaOpTimer timer(ctx);
  Nbta out;
  out.num_symbols = a.num_symbols;
  IntersectSerial(ia, ib, ctx, out);
  if (ctx != nullptr) {
    ctx->counters.intersections++;
    ctx->counters.states_materialized += out.num_states;
  }
  return out;
}

Nbta IntersectNbta(const Nbta& a, const Nbta& b) {
  return IntersectNbta(NbtaIndex(a), NbtaIndex(b), nullptr);
}

Nbta UnionNbta(const Nbta& a, const Nbta& b) {
  PEBBLETC_CHECK(a.num_symbols == b.num_symbols)
      << "union over mismatched alphabets";
  Nbta out;
  out.num_symbols = a.num_symbols;
  for (StateId q = 0; q < a.num_states; ++q) {
    StateId id = out.AddState();
    out.accepting[id] = a.accepting[q];
  }
  const StateId offset = a.num_states;
  for (StateId q = 0; q < b.num_states; ++q) {
    StateId id = out.AddState();
    out.accepting[id] = b.accepting[q];
  }
  out.leaf_rules = a.leaf_rules;
  out.rules = a.rules;
  for (const auto& r : b.leaf_rules) {
    out.AddLeafRule(r.symbol, r.to + offset);
  }
  for (const auto& r : b.rules) {
    out.AddRule(r.symbol, r.left + offset, r.right + offset, r.to + offset);
  }
  return out;
}

namespace {

// States inhabited by at least one tree, worklist-driven off the compiled
// by-child adjacency: each rule is inspected at most twice (once per child
// becoming inhabited). On interruption the fixpoint drains early, leaving an
// *under*-approximation: every marked state really is inhabited, but some
// inhabited states may be unmarked.
std::vector<bool> InhabitedStates(const NbtaIndex& idx,
                                  TaOpContext* ctx = nullptr) {
  const Nbta& a = idx.nbta();
  std::vector<bool> inhabited(a.num_states, false);
  std::vector<StateId> work;
  auto mark = [&](StateId q) {
    if (!inhabited[q]) {
      inhabited[q] = true;
      work.push_back(q);
    }
  };
  for (const auto& r : a.leaf_rules) mark(r.to);
  while (!work.empty()) {
    if (!TaCheckpoint(ctx).ok()) break;
    StateId q = work.back();
    work.pop_back();
    for (uint32_t ri : idx.RulesWithLeft(q)) {
      const Nbta::BinaryRule& r = a.rules[ri];
      if (inhabited[r.right]) mark(r.to);
    }
    for (uint32_t ri : idx.RulesWithRight(q)) {
      const Nbta::BinaryRule& r = a.rules[ri];
      if (inhabited[r.left]) mark(r.to);
    }
  }
  return inhabited;
}

}  // namespace

bool IsEmptyNbta(const NbtaIndex& idx, TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const Nbta& a = idx.nbta();
  TaCountRules(ctx, a.leaf_rules.size() + a.rules.size());
  std::vector<bool> inhabited = InhabitedStates(idx, ctx);
  for (StateId q : idx.AcceptingStates()) {
    if (inhabited[q]) return false;
  }
  return true;
}

bool IsEmptyNbta(const Nbta& a) { return IsEmptyNbta(NbtaIndex(a), nullptr); }

std::optional<BinaryTree> WitnessTree(const NbtaIndex& idx, TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const Nbta& a = idx.nbta();
  // Minimal witness sizes per state: worklist relaxation over the rule
  // hypergraph via the by-child adjacency (each improvement re-examines only
  // the rules mentioning the improved state).
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> best(a.num_states, kInf);
  // The realizing rule for each state: leaf (symbol) or binary (rule index).
  std::vector<int64_t> via_leaf(a.num_states, -1);
  std::vector<int64_t> via_rule(a.num_states, -1);
  std::vector<StateId> work;
  std::vector<bool> queued(a.num_states, false);
  auto push = [&](StateId q) {
    if (!queued[q]) {
      queued[q] = true;
      work.push_back(q);
    }
  };

  for (const auto& r : a.leaf_rules) {
    if (best[r.to] > 1) {
      best[r.to] = 1;
      via_leaf[r.to] = r.symbol;
      via_rule[r.to] = -1;
      push(r.to);
    }
  }
  size_t rules_scanned = 0;
  auto relax = [&](uint32_t ri) {
    ++rules_scanned;
    const Nbta::BinaryRule& r = a.rules[ri];
    if (best[r.left] == kInf || best[r.right] == kInf) return;
    uint64_t cost = best[r.left] + best[r.right] + 1;
    if (cost < best[r.to]) {
      best[r.to] = cost;
      via_rule[r.to] = static_cast<int64_t>(ri);
      via_leaf[r.to] = -1;
      push(r.to);
    }
  };
  while (!work.empty()) {
    // Interrupted: stop relaxing. Any witness reconstructed below is still
    // genuine (each recorded realizing rule is valid); only minimality and
    // completeness of the search are lost.
    if (!TaCheckpoint(ctx).ok()) break;
    StateId q = work.back();
    work.pop_back();
    queued[q] = false;
    for (uint32_t ri : idx.RulesWithLeft(q)) relax(ri);
    for (uint32_t ri : idx.RulesWithRight(q)) relax(ri);
  }
  TaCountRules(ctx, rules_scanned);

  StateId target = kNoSymbol;
  uint64_t target_size = kInf;
  for (StateId q : idx.AcceptingStates()) {
    if (best[q] < target_size) {
      target_size = best[q];
      target = q;
    }
  }
  if (target == kNoSymbol) return std::nullopt;

  // Unfold the recorded realizing rules from the target.
  return UnfoldTree(target, [&](StateId q) {
    if (via_rule[q] < 0) {
      PEBBLETC_CHECK(via_leaf[q] >= 0) << "no realizing rule";
      return TreeNodeRef{static_cast<SymbolId>(via_leaf[q]), kNoNode, kNoNode};
    }
    const Nbta::BinaryRule& r = a.rules[via_rule[q]];
    return TreeNodeRef{r.symbol, r.left, r.right};
  });
}

std::optional<BinaryTree> WitnessTree(const Nbta& a) {
  return WitnessTree(NbtaIndex(a), nullptr);
}

Nbta TrimNbta(const NbtaIndex& idx, TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const Nbta& a = idx.nbta();
  std::vector<bool> inhabited = InhabitedStates(idx, ctx);
  // Co-reachable: can contribute to an accepted run. Worklist over the
  // reverse by-target adjacency; each rule is visited once (when its target
  // is popped).
  std::vector<bool> useful(a.num_states, false);
  std::vector<StateId> work;
  auto mark = [&](StateId q) {
    if (!useful[q]) {
      useful[q] = true;
      work.push_back(q);
    }
  };
  for (StateId q : idx.AcceptingStates()) {
    if (inhabited[q]) mark(q);
  }
  while (!work.empty()) {
    // Interrupted: the trim keeps fewer states than it could; the result
    // still only contains sound rules (a subset of the input automaton).
    if (!TaCheckpoint(ctx).ok()) break;
    StateId q = work.back();
    work.pop_back();
    for (uint32_t ri : idx.RulesWithTarget(q)) {
      const Nbta::BinaryRule& r = a.rules[ri];
      if (inhabited[r.left] && inhabited[r.right]) {
        mark(r.left);
        mark(r.right);
      }
    }
  }

  std::vector<StateId> remap(a.num_states, kNoSymbol);
  Nbta out;
  out.num_symbols = a.num_symbols;
  for (StateId q = 0; q < a.num_states; ++q) {
    if (useful[q] && inhabited[q]) {
      remap[q] = out.AddState();
      out.accepting[remap[q]] = a.accepting[q];
    }
  }
  for (const auto& r : a.leaf_rules) {
    if (remap[r.to] != kNoSymbol) out.AddLeafRule(r.symbol, remap[r.to]);
  }
  for (const auto& r : a.rules) {
    if (remap[r.to] != kNoSymbol && remap[r.left] != kNoSymbol &&
        remap[r.right] != kNoSymbol) {
      out.AddRule(r.symbol, remap[r.left], remap[r.right], remap[r.to]);
    }
  }
  // Guarantee at least one state so downstream code can assume non-zero.
  if (out.num_states == 0) out.AddState();
  if (ctx != nullptr) {
    ctx->counters.trims++;
    ctx->counters.states_materialized += out.num_states;
    ctx->counters.rules_scanned += a.leaf_rules.size() + 2 * a.rules.size();
  }
  return out;
}

Nbta TrimNbta(const Nbta& a) { return TrimNbta(NbtaIndex(a), nullptr); }

Nbta InverseRelabelNbta(const NbtaIndex& idx, const std::vector<SymbolId>& map,
                        uint32_t new_num_symbols, TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const Nbta& a = idx.nbta();
  Nbta out;
  out.num_states = a.num_states;
  out.accepting = a.accepting;
  out.num_symbols = new_num_symbols;
  for (SymbolId big = 0; big < new_num_symbols; ++big) {
    PEBBLETC_CHECK(big < map.size() && map[big] < a.num_symbols)
        << "unmapped symbol " << big;
    for (StateId to : idx.LeafTargets(map[big])) out.AddLeafRule(big, to);
    for (uint32_t ri : idx.RulesWithSymbol(map[big])) {
      const Nbta::BinaryRule& r = a.rules[ri];
      out.AddRule(big, r.left, r.right, r.to);
    }
  }
  TaCountRules(ctx, out.leaf_rules.size() + out.rules.size());
  return out;
}

Nbta InverseRelabelNbta(const Nbta& a, const std::vector<SymbolId>& map,
                        uint32_t new_num_symbols) {
  return InverseRelabelNbta(NbtaIndex(a), map, new_num_symbols, nullptr);
}

Nbta RelabelNbta(const Nbta& a, const std::vector<SymbolId>& map,
                 uint32_t new_num_symbols) {
  Nbta out;
  out.num_states = a.num_states;
  out.accepting = a.accepting;
  out.num_symbols = new_num_symbols;
  for (const auto& r : a.leaf_rules) {
    PEBBLETC_CHECK(r.symbol < map.size() && map[r.symbol] < new_num_symbols)
        << "unmapped symbol " << r.symbol;
    out.AddLeafRule(map[r.symbol], r.to);
  }
  for (const auto& r : a.rules) {
    PEBBLETC_CHECK(r.symbol < map.size() && map[r.symbol] < new_num_symbols)
        << "unmapped symbol " << r.symbol;
    out.AddRule(map[r.symbol], r.left, r.right, r.to);
  }
  return out;
}

Nbta UniversalNbta(const RankedAlphabet& alphabet) {
  Nbta out;
  out.num_symbols = static_cast<uint32_t>(alphabet.size());
  StateId q = out.AddState();
  out.accepting[q] = true;
  for (SymbolId a : alphabet.LeafSymbols()) out.AddLeafRule(a, q);
  for (SymbolId a : alphabet.BinarySymbols()) out.AddRule(a, q, q, q);
  return out;
}

Nbta EmptyLanguageNbta(const RankedAlphabet& alphabet) {
  Nbta out;
  out.num_symbols = static_cast<uint32_t>(alphabet.size());
  out.AddState();  // inert, non-accepting
  return out;
}

uint64_t CountAcceptedTrees(const Nbta& a, size_t num_nodes) {
  if (num_nodes == 0 || num_nodes % 2 == 0) return 0;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  auto sat_add = [](uint64_t x, uint64_t y) {
    return (x > kMax - y) ? kMax : x + y;
  };
  auto sat_mul = [](uint64_t x, uint64_t y) -> uint64_t {
    if (x == 0 || y == 0) return 0;
    if (x > kMax / y) return kMax;
    return x * y;
  };
  // count[s][q]: trees with s nodes evaluating to q (s odd).
  std::vector<std::vector<uint64_t>> count(
      num_nodes + 1, std::vector<uint64_t>(a.num_states, 0));
  for (const auto& r : a.leaf_rules) {
    count[1][r.to] = sat_add(count[1][r.to], 1);
  }
  for (size_t s = 3; s <= num_nodes; s += 2) {
    for (const auto& r : a.rules) {
      for (size_t s1 = 1; s1 <= s - 2; s1 += 2) {
        size_t s2 = s - 1 - s1;
        uint64_t c = sat_mul(count[s1][r.left], count[s2][r.right]);
        if (c != 0) count[s][r.to] = sat_add(count[s][r.to], c);
      }
    }
  }
  uint64_t total = 0;
  for (StateId q = 0; q < a.num_states; ++q) {
    if (a.accepting[q]) total = sat_add(total, count[num_nodes][q]);
  }
  return total;
}

}  // namespace pebbletc
