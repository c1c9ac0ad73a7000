#include "src/ext/joins.h"

#include "src/pt/eval.h"

namespace pebbletc {

PebbleTransducer AbstractJoins(const JoinTransducer& jt) {
  PebbleTransducer out = jt.base;
  using M = PebbleTransducer::MoveKind;
  for (const EqualityTest& test : jt.tests) {
    out.AddMove(test.guard, test.from, M::kStay, test.if_equal);
    out.AddMove(test.guard, test.from, M::kStay, test.if_distinct);
  }
  return out;
}

Result<BinaryTree> EvalJoinConcrete(const JoinTransducer& jt,
                                    const DataTree& input, size_t max_steps) {
  const BinaryTree& tree = input.tree;
  const PebbleTransducer& t = jt.base;
  if (tree.empty()) return Status::InvalidArgument("empty input");
  using Config = PebbleTransducer::Config;
  using Transition = PebbleTransducer::Transition;

  auto test_applies = [&](const EqualityTest& test,
                          const Config& c) -> Result<bool> {
    if (test.from != c.state) return false;
    if (!GuardMatches(test.guard, tree, c)) return false;
    if (test.pebble_a == 0 || test.pebble_a > c.pebbles.size() ||
        test.pebble_b == 0 || test.pebble_b > c.pebbles.size()) {
      return false;
    }
    NodeId a = c.pebbles[test.pebble_a - 1];
    NodeId b = c.pebbles[test.pebble_b - 1];
    if (tree.symbol(a) != jt.data_symbol || tree.symbol(b) != jt.data_symbol) {
      return false;
    }
    if (a >= input.values.size() || b >= input.values.size()) {
      return Status::InvalidArgument("data leaf without a value");
    }
    return true;
  };

  return RunDeterministicBranches(
      t, tree, max_steps, /*ctx=*/nullptr,
      [&](const Config& config) -> Result<Transition> {
        // Equality tests first (they are the extension's primitive).
        const EqualityTest* fired = nullptr;
        for (const EqualityTest& test : jt.tests) {
          PEBBLETC_ASSIGN_OR_RETURN(bool applies, test_applies(test, config));
          if (applies) {
            if (fired != nullptr) {
              return Status::FailedPrecondition(
                  "two equality tests apply to one configuration");
            }
            fired = &test;
          }
        }
        auto applicable = t.Applicable(tree, config);
        if (fired != nullptr) {
          if (!applicable.empty()) {
            return Status::FailedPrecondition(
                "equality test races a base transition");
          }
          // A test is a stay move whose target the data values pick.
          NodeId a = config.pebbles[fired->pebble_a - 1];
          NodeId b = config.pebbles[fired->pebble_b - 1];
          Transition stay;
          stay.kind = PebbleTransducer::TransitionKind::kMove;
          stay.guard = fired->guard;
          stay.from = fired->from;
          stay.to = input.values[a] == input.values[b] ? fired->if_equal
                                                       : fired->if_distinct;
          return stay;
        }
        if (applicable.empty()) {
          return Status::FailedPrecondition(
              "computation branch is stuck; no output on this input");
        }
        if (applicable.size() > 1) {
          return Status::FailedPrecondition(
              "base transducer is nondeterministic");
        }
        return *applicable.front();
      });
}

}  // namespace pebbletc
