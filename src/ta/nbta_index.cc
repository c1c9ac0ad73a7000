#include "src/ta/nbta_index.h"

namespace pebbletc {

NbtaIndex::NbtaIndex(const Nbta& a, TaOpContext* ctx) : a_(&a) {
  TaOpTimer timer(ctx);
  const auto& leaf = a.leaf_rules;
  const auto& bin = a.rules;
  auto ids = [](size_t i) { return static_cast<uint32_t>(i); };

  leaf_by_symbol_ = Csr<StateId>::Build(
      a.num_symbols, leaf.size(), [&](size_t i) { return leaf[i].symbol; },
      [&](size_t i) { return leaf[i].to; });
  leaf_by_target_ = Csr<uint32_t>::Build(
      a.num_states, leaf.size(), [&](size_t i) { return leaf[i].to; }, ids);

  by_symbol_ = Csr<uint32_t>::Build(
      a.num_symbols, bin.size(), [&](size_t i) { return bin[i].symbol; }, ids);
  by_left_ = Csr<uint32_t>::Build(
      a.num_states, bin.size(), [&](size_t i) { return bin[i].left; }, ids);
  by_right_ = Csr<uint32_t>::Build(
      a.num_states, bin.size(), [&](size_t i) { return bin[i].right; }, ids);
  by_target_ = Csr<uint32_t>::Build(
      a.num_states, bin.size(), [&](size_t i) { return bin[i].to; }, ids);

  for (StateId q = 0; q < a.num_states; ++q) {
    if (a.accepting[q]) accepting_states_.push_back(q);
  }

  if (ctx != nullptr) {
    ctx->counters.indexes_built++;
    ctx->counters.rules_scanned += leaf.size() + bin.size();
  }
}

std::span<const NbtaIndex::RightTo> NbtaIndex::SymbolLeft(SymbolId symbol,
                                                          StateId left) const {
  if (!symbol_left_built_) {
    const auto& bin = a_->rules;
    const size_t rows = static_cast<size_t>(a_->num_symbols) * a_->num_states;
    symbol_left_ = Csr<RightTo>::Build(
        rows, bin.size(),
        [&](size_t i) {
          return static_cast<size_t>(bin[i].symbol) * a_->num_states +
                 bin[i].left;
        },
        [&](size_t i) { return RightTo{bin[i].right, bin[i].to}; });
    symbol_left_built_ = true;
  }
  return symbol_left_.Row(static_cast<size_t>(symbol) * a_->num_states + left);
}

std::span<const NbtaIndex::LeftTo> NbtaIndex::SymbolRight(
    SymbolId symbol, StateId right) const {
  if (!symbol_right_built_) {
    const auto& bin = a_->rules;
    const size_t rows = static_cast<size_t>(a_->num_symbols) * a_->num_states;
    symbol_right_ = Csr<LeftTo>::Build(
        rows, bin.size(),
        [&](size_t i) {
          return static_cast<size_t>(bin[i].symbol) * a_->num_states +
                 bin[i].right;
        },
        [&](size_t i) { return LeftTo{bin[i].left, bin[i].to}; });
    symbol_right_built_ = true;
  }
  return symbol_right_.Row(static_cast<size_t>(symbol) * a_->num_states +
                           right);
}

}  // namespace pebbletc
