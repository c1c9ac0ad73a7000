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

Result<BinaryTree> RunDeterministicBranches(const PebbleTransducer& t,
                                            const BinaryTree& input,
                                            size_t max_steps,
                                            TaOpContext* ctx,
                                            const NextTransition& next) {
  // The output tree, built top-down as nodes that name their children by
  // index into `proto`, and unfolded into a BinaryTree at the end.
  std::vector<TreeNodeRef> proto;
  // Each pending branch computes the subtree for a slot in `proto`.
  struct Branch {
    Config config;
    NodeId parent;  // proto index, kNoNode for the root slot
    bool is_left;
  };
  NodeId root_index = kNoNode;
  std::vector<Branch> work;
  work.push_back({t.InitialConfig(input), kNoNode, false});
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
      const NodeId node = static_cast<NodeId>(proto.size());
      proto.push_back({tr.output_symbol, kNoNode, kNoNode});
      if (branch.parent == kNoNode) {
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
  PEBBLETC_CHECK(root_index != kNoNode) << "no output produced";
  return UnfoldTree(root_index, [&](NodeId n) { return proto[n]; });
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
