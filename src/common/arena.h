// Ignored: validation allocates on the ordinary heap (docs/VALIDATION.md).
// Arena is a no-op kept only so existing callers that construct one, Reset()
// it, read bytes_allocated(), and pass it as ValidateDoc's last argument
// still compile. Nothing in the library includes this header.

#ifndef PEBBLETC_COMMON_ARENA_H_
#define PEBBLETC_COMMON_ARENA_H_

#include <cstddef>

namespace pebbletc {

class Arena {
 public:
  /// Does nothing.
  void Reset() {}
  /// Always 0: an Arena never allocates.
  size_t bytes_allocated() const { return 0; }
};

}  // namespace pebbletc

#endif  // PEBBLETC_COMMON_ARENA_H_
