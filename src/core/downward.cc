#include "src/core/downward.h"

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace pebbletc {

bool IsDownwardTransducer(const PebbleTransducer& t) {
  if (t.max_pebbles() != 1) return false;
  using M = PebbleTransducer::MoveKind;
  for (const auto& tr : t.transitions()) {
    if (tr.kind != PebbleTransducer::TransitionKind::kMove) continue;
    if (tr.move != M::kStay && tr.move != M::kDownLeft &&
        tr.move != M::kDownRight) {
      return false;
    }
  }
  return true;
}

uint64_t TransducerFingerprint(const PebbleTransducer& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(t.num_states());
  mix(t.start());
  mix(t.num_input_symbols());
  mix(t.num_output_symbols());
  mix(t.max_pebbles());
  for (const auto& tr : t.transitions()) {
    mix(static_cast<uint64_t>(tr.kind));
    mix(tr.guard.symbol);
    mix(tr.guard.presence_mask);
    mix(tr.guard.presence_value);
    mix(tr.from);
    mix(static_cast<uint64_t>(tr.move));
    mix(tr.to);
    mix(tr.output_symbol);
    mix(tr.out_left);
    mix(tr.out_right);
  }
  return h;
}

namespace {

// A subset of Q_T × Q_D, as a sorted vector of pair indices qT*nd + qD.
using Subset = std::vector<uint32_t>;

}  // namespace

Result<Nbta> DownwardProductAutomaton(const PebbleTransducer& t, const Dbta& d,
                                      const RankedAlphabet& input_alphabet,
                                      size_t max_states) {
  TaOpContext ctx;
  ctx.budgets.fastpath_max_states = max_states;
  return DownwardProductAutomaton(t, d, input_alphabet, &ctx);
}

Result<Nbta> DownwardProductAutomaton(const PebbleTransducer& t, const Dbta& d,
                                      const RankedAlphabet& input_alphabet,
                                      TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const size_t max_states =
      ctx != nullptr ? ctx->budgets.fastpath_max_states : 0;
  if (!IsDownwardTransducer(t)) {
    return Status::InvalidArgument(
        "transducer is outside the downward fragment");
  }
  if (input_alphabet.size() != t.num_input_symbols()) {
    return Status::InvalidArgument("input alphabet size mismatch");
  }
  if (d.num_symbols() != t.num_output_symbols()) {
    return Status::InvalidArgument(
        "output automaton alphabet does not match the transducer");
  }
  const uint32_t nt = t.num_states();
  const uint32_t nd = d.num_states();
  const size_t pairs = static_cast<size_t>(nt) * nd;

  using M = PebbleTransducer::MoveKind;
  using TK = PebbleTransducer::TransitionKind;

  // Transitions applicable at a node labelled `a` (guards are symbol-only in
  // the downward fragment).
  auto guard_matches = [](const PebbleGuard& g, SymbolId a) {
    return g.symbol == kAnySymbol || g.symbol == a;
  };

  // Computes S for a node labelled `a` whose children (if any) carry subsets
  // `left`/`right` (null for leaves).
  auto node_set = [&](SymbolId a, const Subset* left,
                      const Subset* right) -> Subset {
    std::vector<bool> in(pairs, false);
    // Bitset views of the child subsets for O(1) membership.
    std::vector<bool> left_in(pairs, false), right_in(pairs, false);
    if (left != nullptr) {
      for (uint32_t k : *left) left_in[k] = true;
    }
    if (right != nullptr) {
      for (uint32_t k : *right) right_in[k] = true;
    }
    auto add = [&](uint32_t qt, uint32_t qd) -> bool {
      size_t idx = static_cast<size_t>(qt) * nd + qd;
      if (in[idx]) return false;
      in[idx] = true;
      return true;
    };
    auto has = [&](const std::vector<bool>& s, uint32_t qt, uint32_t qd) {
      return s[static_cast<size_t>(qt) * nd + qd];
    };
    bool changed = true;
    while (changed) {
      // Interrupted: the partial subset is discarded by the caller (the
      // outer closure re-checks the sticky interrupt and returns it).
      if (!TaCheckpoint(ctx).ok()) break;
      changed = false;
      for (const auto& tr : t.transitions()) {
        if (!guard_matches(tr.guard, a)) continue;
        switch (tr.kind) {
          case TK::kOutputLeaf:
            changed |= add(tr.from, d.LeafState(tr.output_symbol));
            break;
          case TK::kOutputBinary:
            for (uint32_t d1 = 0; d1 < nd; ++d1) {
              if (!in[static_cast<size_t>(tr.out_left) * nd + d1]) continue;
              for (uint32_t d2 = 0; d2 < nd; ++d2) {
                if (!in[static_cast<size_t>(tr.out_right) * nd + d2]) continue;
                changed |= add(tr.from, d.Next(tr.output_symbol, d1, d2));
              }
            }
            break;
          case TK::kMove:
            switch (tr.move) {
              case M::kStay:
                for (uint32_t qd = 0; qd < nd; ++qd) {
                  if (in[static_cast<size_t>(tr.to) * nd + qd]) {
                    changed |= add(tr.from, qd);
                  }
                }
                break;
              case M::kDownLeft:
                for (uint32_t qd = 0; qd < nd; ++qd) {
                  if (has(left_in, tr.to, qd)) changed |= add(tr.from, qd);
                }
                break;
              case M::kDownRight:
                for (uint32_t qd = 0; qd < nd; ++qd) {
                  if (has(right_in, tr.to, qd)) changed |= add(tr.from, qd);
                }
                break;
              default:
                PEBBLETC_CHECK(false) << "non-downward move survived check";
            }
            break;
        }
      }
    }
    Subset out;
    for (uint32_t i = 0; i < pairs; ++i) {
      if (in[i]) out.push_back(i);
    }
    return out;
  };

  // Lazy closure over reachable subsets, interned flat: the subsets
  // themselves live in `subsets` (they vary in length), deduplicated through
  // an open-addressing table keyed by an FNV-1a hash of the elements — the
  // node-based std::map this replaces paid a tree walk plus a key copy per
  // lookup (same eviction as the IntersectNbta pair interner, PARALLEL.md).
  std::vector<Subset> subsets;
  size_t sub_mask = (1u << 8) - 1;
  std::vector<uint32_t> sub_table(sub_mask + 1, ~0u);
  auto sub_hash = [](const Subset& s) {
    uint64_t h = 1469598103934665603ull;
    for (uint32_t v : s) h = (h ^ v) * 1099511628211ull;
    return h;
  };
  auto intern = [&](Subset s) -> StateId {
    size_t slot = sub_hash(s) & sub_mask;
    for (;;) {
      const uint32_t cand = sub_table[slot];
      if (cand == ~0u) break;
      if (subsets[cand] == s) return cand;
      slot = (slot + 1) & sub_mask;
    }
    const StateId id = static_cast<StateId>(subsets.size());
    sub_table[slot] = id;
    subsets.push_back(std::move(s));
    if (subsets.size() * 16 > (sub_mask + 1) * 9) {
      sub_mask = (sub_mask + 1) * 2 - 1;
      sub_table.assign(sub_mask + 1, ~0u);
      for (uint32_t i = 0; i < subsets.size(); ++i) {
        size_t rs = sub_hash(subsets[i]) & sub_mask;
        while (sub_table[rs] != ~0u) rs = (rs + 1) & sub_mask;
        sub_table[rs] = i;
      }
    }
    return id;
  };

  Nbta out;
  out.num_symbols = static_cast<uint32_t>(input_alphabet.size());
  std::vector<std::pair<SymbolId, StateId>> leaf_rules;
  for (SymbolId a : input_alphabet.LeafSymbols()) {
    leaf_rules.push_back({a, intern(node_set(a, nullptr, nullptr))});
  }
  PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));

  // Frontier-driven closure (the discipline of docs/DETERMINIZE.md): subset
  // p is paired against every j ≤ p in both child positions when it leaves
  // the frontier, so each (symbol, i, j) triple is computed exactly once and
  // records append to a flat list — no transition map, no pass rescans.
  struct TransRec {
    SymbolId sym;
    StateId l;
    StateId r;
    StateId to;
  };
  std::vector<TransRec> trans;
  size_t pairs_expanded = 0;
  for (StateId p = 0; p < subsets.size(); ++p) {
    if (max_states != 0 && subsets.size() > max_states) {
      if (ctx != nullptr) {
        ctx->counters.det_pairs_expanded += pairs_expanded;
        ctx->counters.det_subsets_interned += subsets.size();
      }
      return Status::ResourceExhausted(
          "downward subset construction exceeded " +
          std::to_string(max_states) + " states");
    }
    for (SymbolId a : input_alphabet.BinarySymbols()) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
      for (StateId j = 0; j <= p; ++j) {
        trans.push_back({a, p, j, intern(node_set(a, &subsets[p], &subsets[j]))});
        ++pairs_expanded;
        if (j != p) {
          trans.push_back(
              {a, j, p, intern(node_set(a, &subsets[j], &subsets[p]))});
          ++pairs_expanded;
        }
        // node_set drains early on interruption; never intern further
        // partial subsets once the sticky interrupt is set.
        PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
      }
    }
  }
  if (ctx != nullptr) {
    ctx->counters.det_pairs_expanded += pairs_expanded;
    ctx->counters.det_subsets_interned += subsets.size();
  }

  for (size_t i = 0; i < subsets.size(); ++i) out.AddState();
  for (auto [a, q] : leaf_rules) out.AddLeafRule(a, q);
  for (const TransRec& t : trans) out.AddRule(t.sym, t.l, t.r, t.to);
  // Accepting: some output from the initial transducer state is accepted
  // by D.
  for (size_t i = 0; i < subsets.size(); ++i) {
    for (uint32_t k : subsets[i]) {
      if (k / nd == t.start() && d.accepting(k % nd)) {
        out.accepting[i] = true;
        break;
      }
    }
  }
  if (ctx != nullptr) ctx->counters.determinizations++;
  TaCountStates(ctx, out.num_states);
  TaCountRules(ctx, out.leaf_rules.size() + out.rules.size());
  return out;
}

}  // namespace pebbletc
