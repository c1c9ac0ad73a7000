#include "src/pt/eval.h"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/ta/convert.h"
#include "src/ta/enumerate.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"

namespace pebbletc {

namespace {

using Config = PebbleTransducer::Config;
using TKind = PebbleTransducer::TransitionKind;

}  // namespace

Result<OutputAutomaton> BuildOutputAutomaton(const PebbleTransducer& t,
                                             const BinaryTree& input,
                                             size_t max_configs,
                                             TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  if (input.empty()) {
    return Status::InvalidArgument("empty input tree");
  }
  // Intern reachable configurations.
  std::map<Config, StateId> index;
  std::vector<Config> configs;
  auto intern = [&](Config c) -> StateId {
    auto [it, inserted] = index.emplace(std::move(c), configs.size());
    if (inserted) configs.push_back(it->first);
    return it->second;
  };
  intern(t.InitialConfig(input));

  // Transition records gathered during the BFS; emitted into the automaton
  // once the final state id (qf = #configs) is known.
  struct SilentRec {
    StateId from;
    StateId to;          // config id, or kNoSymbol marker for qf
    SymbolId symbol;     // specific symbol, or kAnySymbol for "every symbol"
  };
  std::vector<SilentRec> silents;
  struct BinaryRec {
    StateId from;
    SymbolId symbol;
    StateId left;
    StateId right;
  };
  std::vector<BinaryRec> binaries;
  constexpr StateId kFinalMarker = static_cast<StateId>(-2);

  for (size_t i = 0; i < configs.size(); ++i) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
    if (max_configs != 0 && configs.size() > max_configs) {
      return Status::ResourceExhausted(
          "configuration budget of " + std::to_string(max_configs) +
          " exceeded");
    }
    const Config current = configs[i];  // copy: `configs` grows below
    for (const auto* tr : t.Applicable(input, current)) {
      switch (tr->kind) {
        case TKind::kMove: {
          StateId to = intern(t.ApplyMove(*tr, input, current));
          silents.push_back(
              {static_cast<StateId>(i), to, kAnySymbol});
          break;
        }
        case TKind::kOutputLeaf:
          silents.push_back(
              {static_cast<StateId>(i), kFinalMarker, tr->output_symbol});
          break;
        case TKind::kOutputBinary: {
          Config l = current;
          l.state = tr->out_left;
          Config r = current;
          r.state = tr->out_right;
          StateId li = intern(std::move(l));
          StateId ri = intern(std::move(r));
          binaries.push_back(
              {static_cast<StateId>(i), tr->output_symbol, li, ri});
          break;
        }
      }
    }
  }

  OutputAutomaton out;
  out.num_configs = configs.size();
  TopDownTA& a = out.automaton;
  a.num_symbols = t.num_output_symbols();
  for (size_t i = 0; i < configs.size(); ++i) a.AddState();
  const StateId qf = a.AddState();
  a.start = 0;  // the initial configuration was interned first

  for (const SilentRec& s : silents) {
    const StateId to = (s.to == kFinalMarker) ? qf : s.to;
    if (s.symbol == kAnySymbol) {
      // Pebble moves are independent of the output label.
      for (SymbolId sym = 0; sym < a.num_symbols; ++sym) {
        a.AddSilent(sym, s.from, to);
      }
    } else {
      a.AddSilent(s.symbol, s.from, to);
    }
  }
  for (const BinaryRec& b : binaries) {
    a.AddRule(b.symbol, b.from, b.left, b.right);
  }
  // qf accepts exactly at leaves (the output0 symbol was already checked by
  // the label-specific silent transition into qf).
  for (SymbolId sym = 0; sym < a.num_symbols; ++sym) {
    a.AddFinalPair(sym, qf);
  }
  TaCountStates(ctx, a.num_states);
  TaCountRules(ctx, a.rules.size() + a.silent.size() + a.final_pairs.size());
  return out;
}

Result<bool> OutputContains(const PebbleTransducer& t, const BinaryTree& input,
                            const BinaryTree& candidate, size_t max_configs,
                            TaOpContext* ctx) {
  PEBBLETC_ASSIGN_OR_RETURN(OutputAutomaton a,
                            BuildOutputAutomaton(t, input, max_configs, ctx));
  return TopDownAccepts(a.automaton, candidate);
}

Result<std::vector<BinaryTree>> EnumerateOutputs(const PebbleTransducer& t,
                                                 const BinaryTree& input,
                                                 size_t max_nodes,
                                                 size_t max_count,
                                                 size_t max_configs,
                                                 TaOpContext* ctx) {
  PEBBLETC_ASSIGN_OR_RETURN(OutputAutomaton a,
                            BuildOutputAutomaton(t, input, max_configs, ctx));
  Nbta nbta = TrimNbta(NbtaIndex(TopDownToNbta(a.automaton, ctx), ctx), ctx);
  std::vector<BinaryTree> trees =
      EnumerateAcceptedTrees(nbta, max_nodes, max_count, ctx);
  // An interrupted enumeration yields genuine-but-fewer outputs; surface the
  // interrupt so callers relying on exhaustiveness can tell.
  PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
  return trees;
}

namespace {

// Proto output tree: built top-down, converted to the bottom-up BinaryTree
// arena at the end.
struct ProtoNode {
  SymbolId symbol = kNoSymbol;
  int64_t left = -1;
  int64_t right = -1;
};

BinaryTree ProtoToTree(const std::vector<ProtoNode>& proto, int64_t root) {
  BinaryTree out;
  struct Frame {
    int64_t node;
    bool expanded;
  };
  std::vector<Frame> stack = {{root, false}};
  std::vector<NodeId> results;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const ProtoNode& p = proto[f.node];
    if (p.left < 0) {
      results.push_back(out.AddLeaf(p.symbol));
    } else if (!f.expanded) {
      stack.push_back({f.node, true});
      stack.push_back({p.right, false});
      stack.push_back({p.left, false});
    } else {
      NodeId r = results.back();
      results.pop_back();
      NodeId l = results.back();
      results.pop_back();
      results.push_back(out.AddInternal(p.symbol, l, r));
    }
  }
  PEBBLETC_CHECK(results.size() == 1) << "proto conversion imbalance";
  out.SetRoot(results.back());
  return out;
}

}  // namespace

Result<BinaryTree> RunDeterministicBranches(const PebbleTransducer& t,
                                            const BinaryTree& input,
                                            size_t max_steps,
                                            TaOpContext* ctx,
                                            const NextTransition& next) {
  std::vector<ProtoNode> proto;
  // Each pending branch computes the subtree for a slot in `proto`:
  // slot < 0 means "the root slot".
  struct Branch {
    Config config;
    int64_t parent;  // proto index, -1 for root
    bool is_left;
  };
  int64_t root_index = -1;
  std::vector<Branch> work;
  work.push_back({t.InitialConfig(input), -1, false});
  size_t steps = 0;

  while (!work.empty()) {
    Branch branch = std::move(work.back());
    work.pop_back();
    // Configurations seen on this branch since its last output; revisiting
    // one means the (deterministic) run diverges.
    std::set<Config> seen;
    while (true) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
      if (++steps > max_steps) {
        return Status::ResourceExhausted("evaluation exceeded " +
                                         std::to_string(max_steps) +
                                         " steps");
      }
      PEBBLETC_ASSIGN_OR_RETURN(const PebbleTransducer::Transition tr,
                                next(branch.config));
      if (tr.kind == TKind::kMove) {
        Config moved = t.ApplyMove(tr, input, branch.config);
        if (!seen.insert(std::move(branch.config)).second) {
          return Status::FailedPrecondition(
              "transducer diverges on this input (configuration revisited "
              "without output)");
        }
        branch.config = std::move(moved);
        continue;
      }
      // Output: allocate the proto node and wire it to the parent slot.
      int64_t node = static_cast<int64_t>(proto.size());
      proto.push_back({tr.output_symbol, -1, -1});
      if (branch.parent < 0) {
        root_index = node;
      } else if (branch.is_left) {
        proto[branch.parent].left = node;
      } else {
        proto[branch.parent].right = node;
      }
      if (tr.kind == TKind::kOutputLeaf) break;
      // output2: continue this branch as the left child, queue the right.
      Config right_config = branch.config;
      right_config.state = tr.out_right;
      work.push_back({std::move(right_config), node, false});
      branch.config.state = tr.out_left;
      branch.parent = node;
      branch.is_left = true;
      seen.clear();
    }
  }
  PEBBLETC_CHECK(root_index >= 0) << "no output produced";
  return ProtoToTree(proto, root_index);
}

Result<BinaryTree> EvalDeterministic(const PebbleTransducer& t,
                                     const BinaryTree& input,
                                     size_t max_steps, TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  if (input.empty()) {
    return Status::InvalidArgument("empty input tree");
  }
  if (!t.IsDeterministic()) {
    return Status::FailedPrecondition(
        "transducer is (syntactically) nondeterministic; use "
        "BuildOutputAutomaton/EnumerateOutputs instead");
  }
  return RunDeterministicBranches(
      t, input, max_steps, ctx,
      [&](const Config& config) -> Result<PebbleTransducer::Transition> {
        auto applicable = t.Applicable(input, config);
        if (applicable.empty()) {
          return Status::FailedPrecondition(
              "computation branch is stuck (no applicable transition); the "
              "transducer produces no output on this input");
        }
        return *applicable.front();
      });
}

}  // namespace pebbletc
