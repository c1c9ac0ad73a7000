// Compressed-sparse-row storage for compiled rule indexes: a flat value
// array plus per-row offsets, built with a two-pass counting sort. Immutable
// after Build; O(rows + items) construction, zero per-row allocations.

#ifndef PEBBLETC_TA_CSR_H_
#define PEBBLETC_TA_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

namespace pebbletc {

template <typename T>
struct Csr {
  std::vector<uint32_t> offsets;  // size num_rows + 1
  std::vector<T> values;

  std::span<const T> Row(size_t r) const {
    return std::span<const T>(values.data() + offsets[r],
                              offsets[r + 1] - offsets[r]);
  }

  /// `key(i)` gives item i's row, `val(i)` its stored value.
  template <typename KeyFn, typename ValFn>
  static Csr Build(size_t num_rows, size_t num_items, KeyFn key, ValFn val) {
    Csr csr;
    csr.offsets.assign(num_rows + 1, 0);
    for (size_t i = 0; i < num_items; ++i) ++csr.offsets[key(i) + 1];
    for (size_t r = 0; r < num_rows; ++r) {
      csr.offsets[r + 1] += csr.offsets[r];
    }
    // offsets[r] serves as row r's cursor, ending at row r + 1's start;
    // shifting the array down one row then restores the starts.
    csr.values.resize(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      csr.values[csr.offsets[key(i)]++] = val(i);
    }
    for (size_t r = num_rows; r > 0; --r) csr.offsets[r] = csr.offsets[r - 1];
    csr.offsets[0] = 0;
    return csr;
  }
};

}  // namespace pebbletc

#endif  // PEBBLETC_TA_CSR_H_
