// Sets of automaton states as packed 64-bit words, and the one table that
// interns fixed-width keys of such words to dense ids. Its users:
//   - the subset construction (DeterminizeNbta, src/ta/nbta.h;
//     docs/DETERMINIZE.md): its subsets, the DBTA states;
//   - the antichain engine (src/ta/antichain.h; docs/INCLUSION.md): the
//     sets of its pairs, its offered (state, set) pairs, one word each, and
//     its Post keys (left set, right set, symbol), two words;
//   - the tree enumeration (src/ta/enumerate.h): its hash-consed tree
//     nodes, two words, and its (state, tree) pairs, one word;
//   - the product construction (IntersectNbta, src/ta/nbta.h): its state
//     pairs, one word, whose ids are the product's states;
//   - the content-model subset construction (DeterminizeWithin,
//     src/regex/dfa.h): its subsets, the DFA states, and its kernels; the
//     NFA's ε-closure (EpsilonClosure, src/regex/nfa.h) closes such sets.
//   - the pebble machines' configuration space (ConfigTable,
//     src/pt/machine.h): a configuration, one word for the state and one
//     per pebble slot, whose ids are A_t's states (BuildOutputAutomaton),
//     G_{A,t}'s or-nodes (PebbleAutomatonAccepts) and the branch walker's
//     divergence set (RunDeterministicBranches).

#ifndef PEBBLETC_COMMON_PACKED_SETS_H_
#define PEBBLETC_COMMON_PACKED_SETS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pebbletc {

/// Sets bit i of `words`.
inline void SetBit(uint64_t* words, uint32_t i) {
  words[i / 64] |= uint64_t{1} << (i % 64);
}

/// Whether bit i of `words` is set.
inline bool TestBit(const uint64_t* words, uint32_t i) {
  return ((words[i / 64] >> (i % 64)) & 1) != 0;
}

/// Whether a[0, n) and b[0, n) share a bit.
inline bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Calls fn(i) for every bit i set in words[0, n), in increasing order.
template <typename Fn>
void ForEachBit(const uint64_t* words, size_t n, Fn&& fn) {
  for (size_t w = 0; w < n; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

/// Interns sets of words() words each and numbers them 0, 1, … in the
/// order they are first seen. Open addressing with linear probing at load
/// ≤ 1/2; a slot keeps its set's first word next to the id, so a probe
/// reads the set arena only when first words agree (never, for one-word
/// sets). A set has at least one word: a table over zero states still
/// holds the empty set.
///
/// Find<kWords> and Intern<kWords> with kWords = words() let a caller that
/// knows the width at compile time have the hash and the comparison
/// unrolled; kWords = 0 reads the width at run time.
class PackedSetTable {
 public:
  /// The id Find returns for a set never interned.
  static constexpr uint32_t kNone = 0xffffffffu;

  // The arena starts with room for the 8 sets the first 16 slots admit.
  explicit PackedSetTable(size_t words)
      : words_(std::max<size_t>(words, 1)), slots_(16) {
    arena_.reserve(slots_.size() / 2 * words_);
  }

  size_t words() const { return words_; }
  uint32_t size() const { return size_; }
  const uint64_t* Set(uint32_t id) const {
    return arena_.data() + static_cast<size_t>(id) * words_;
  }

  /// The id of `set`, or kNone when it was never interned.
  template <size_t kWords = 0>
  uint32_t Find(const uint64_t* set) const {
    return slots_[Probe<kWords>(set)].id;
  }

  /// The id of `set`, interning a copy when it is new (the id is then the
  /// size() before the call). Interning a new set invalidates pointers
  /// from Set().
  template <size_t kWords = 0>
  uint32_t Intern(const uint64_t* set) {
    const size_t i = Probe<kWords>(set);
    if (slots_[i].id != kNone) return slots_[i].id;
    const uint32_t id = size_++;
    slots_[i] = {set[0], id};
    arena_.insert(arena_.end(), set, set + (kWords != 0 ? kWords : words_));
    if (2 * size_ > slots_.size()) Rehash(2 * slots_.size());
    return id;
  }

  /// Makes room for `sets` sets in all, so that interning up to that many
  /// reallocates neither the slots nor the arena.
  void Reserve(size_t sets) {
    arena_.reserve(sets * words_);
    size_t slots = slots_.size();
    while (2 * sets > slots) slots *= 2;
    if (slots != slots_.size()) Rehash(slots);
  }

 private:
  struct Slot {
    uint64_t head = 0;  // the set's first word
    uint32_t id = kNone;
  };

  // The slot holding `set`, or the empty slot where it would go.
  template <size_t kWords>
  size_t Probe(const uint64_t* set) const {
    const size_t w = kWords != 0 ? kWords : words_;
    const size_t mask = slots_.size() - 1;
    size_t i = Hash<kWords>(set) >> shift_;
    for (; slots_[i].id != kNone; i = (i + 1) & mask) {
      if (slots_[i].head == set[0] &&
          std::equal(set + 1, set + w, Set(slots_[i].id) + 1)) {
        break;
      }
    }
    return i;
  }

  // One multiply per word; the slot index is the top bits of the product.
  template <size_t kWords>
  uint64_t Hash(const uint64_t* set) const {
    const size_t w = kWords != 0 ? kWords : words_;
    uint64_t h = 0;
    for (size_t i = 0; i < w; ++i) h = (h ^ set[i]) * 0x9e3779b97f4a7c15ull;
    return h;
  }

  // `slots` is a power of two.
  void Rehash(size_t slots) {
    slots_.assign(slots, Slot{});
    shift_ = 64 - std::countr_zero(slots);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size_; ++id) {
      const uint64_t* set = Set(id);
      size_t i = Hash<0>(set) >> shift_;
      while (slots_[i].id != kNone) i = (i + 1) & mask;
      slots_[i] = {set[0], id};
    }
  }

  size_t words_;
  uint32_t size_ = 0;
  int shift_ = 64 - 4;  // 64 - log2(slots_.size())
  std::vector<uint64_t> arena_;  // set i is [i * words_, (i + 1) * words_)
  std::vector<Slot> slots_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_COMMON_PACKED_SETS_H_
