#include "src/pt/eval.h"

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
  // A_t's states are the configurations, numbered as interned (the initial
  // one, 0, is the start), and the leaf state qf = #configs. Rules are
  // written as the configurations are explored; a leaf output names qf as
  // kNoConfig until the count is known.
  OutputAutomaton out;
  TopDownTA& a = out.automaton;
  a.num_symbols = t.num_output_symbols();
  ConfigTable configs(t.max_pebbles());
  PEBBLETC_RETURN_IF_ERROR(t.ExploreConfigs(
      input, max_configs, ctx, configs,
      [&](StateId from, const Config& config,
          const PebbleTransducer::Transition& tr, StateId to) {
        switch (tr.kind) {
          case TKind::kMove:
            // Pebble moves are independent of the output label.
            for (SymbolId sym = 0; sym < a.num_symbols; ++sym) {
              a.AddSilent(sym, from, to);
            }
            break;
          case TKind::kOutputLeaf:
            a.AddSilent(tr.output_symbol, from, kNoConfig);
            break;
          case TKind::kOutputBinary: {
            const StateId left = configs.Intern(tr.out_left, config.pebbles);
            a.AddRule(tr.output_symbol, from, left,
                      configs.Intern(tr.out_right, config.pebbles));
            break;
          }
        }
      }));
  out.num_configs = configs.size();
  const StateId qf = configs.size();
  a.num_states = qf + 1;
  for (TopDownTA::SilentRule& s : a.silent) {
    if (s.to == kNoConfig) s.to = qf;
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

Result<Nbta> BuildOutputNbta(const PebbleTransducer& t,
                             const BinaryTree& input, size_t max_configs,
                             TaOpContext* ctx) {
  PEBBLETC_ASSIGN_OR_RETURN(OutputAutomaton a,
                            BuildOutputAutomaton(t, input, max_configs, ctx));
  return TrimNbta(NbtaIndex(TopDownToNbta(a.automaton, ctx), ctx), ctx);
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
  PEBBLETC_ASSIGN_OR_RETURN(Nbta nbta,
                            BuildOutputNbta(t, input, max_configs, ctx));
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
    ConfigTable seen(t.max_pebbles());
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
        const uint32_t seen_before = seen.size();
        if (seen.Intern(branch.config) < seen_before) {
          return Status::FailedPrecondition(
              "transducer diverges on this input (configuration revisited "
              "without output)");
        }
        branch.config = t.ApplyMove(tr, input, branch.config);
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
      seen = ConfigTable(t.max_pebbles());
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
