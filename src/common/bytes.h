// The little-endian byte codec shared by the wire protocol
// (src/serve/protocol.cc) and the binary artifact formats
// (src/ta/serialize.cc): Put* writers that append to a string, LoadLe for
// fixed-size prefixes, and one bounds-checked ByteReader. Both formats sit on
// the service's trust boundary, so every read is range-checked and fails
// with kParseError instead of running past its input.

#ifndef PEBBLETC_COMMON_BYTES_H_
#define PEBBLETC_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace pebbletc {

/// The unsigned integer whose little-endian encoding starts at `p`; the
/// caller guarantees the sizeof(T) bytes are there.
template <class T>
T LoadLe(const char* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Appends the little-endian encoding of `v`, in one append.
template <class T>
void PutLe(T v, std::string* out) {
  static_assert(std::is_unsigned_v<T>);
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(bytes, sizeof(T));
}

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}
inline void PutU32(uint32_t v, std::string* out) { PutLe(v, out); }
inline void PutU64(uint64_t v, std::string* out) { PutLe(v, out); }

/// A u32 byte count, then the bytes.
inline void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Bit i in bit (i % 8) of byte (i / 8); the spare bits of the last byte are
/// zero, so the encoding is unique.
inline void PutBits(const std::vector<bool>& bits, std::string* out) {
  uint8_t acc = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) acc |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      PutU8(acc, out);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) PutU8(acc, out);
}

/// Reads what the Put* writers wrote, front to back. Every read checks the
/// bytes are there; a failed read is kParseError and names `format` ("wire
/// message truncated"), and leaves the reader where it was.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* format)
      : bytes_(bytes), format_(format) {}

  Status ReadU8(uint8_t* v) { return ReadLe(v); }
  Status ReadU32(uint32_t* v) { return ReadLe(v); }
  Status ReadU64(uint64_t* v) { return ReadLe(v); }

  /// A byte that must be 0 or 1.
  Status ReadBool(bool* v) {
    uint8_t b = 0;
    PEBBLETC_RETURN_IF_ERROR(ReadU8(&b));
    if (b > 1) return Error(" bool out of {0, 1}");
    *v = b != 0;
    return Status::OK();
  }

  /// A PutString field of at most `max_bytes` bytes.
  Status ReadString(uint32_t max_bytes, std::string* s) {
    uint32_t n = 0;
    PEBBLETC_RETURN_IF_ERROR(ReadU32(&n));
    if (n > max_bytes) {
      return Status::ParseError(std::string(format_) +
                                " string field exceeds cap of " +
                                std::to_string(max_bytes) + " bytes");
    }
    if (remaining() < n) return Error(" truncated");
    s->assign(bytes_.substr(pos_, n));
    pos_ += n;
    return Status::OK();
  }

  /// A PutBits field of `n` bits. Nonzero padding is rejected, so a bitset
  /// has one encoding and a payload checksum is well-defined.
  Status ReadBits(size_t n, std::vector<bool>* bits) {
    const size_t nbytes = (n + 7) / 8;
    if (remaining() < nbytes) return Error(" truncated");
    bits->assign(n, false);
    for (size_t i = 0; i < n; ++i) {
      (*bits)[i] = (static_cast<unsigned char>(bytes_[pos_ + i / 8]) >>
                    (i % 8)) & 1;
    }
    if (n % 8 != 0 &&
        (static_cast<unsigned char>(bytes_[pos_ + nbytes - 1]) >> (n % 8)) !=
            0) {
      return Status::ParseError(std::string("nonzero padding in ") + format_ +
                                " bitset");
    }
    pos_ += nbytes;
    return Status::OK();
  }

  /// OK when every byte has been read.
  Status Done() const {
    if (pos_ != bytes_.size()) {
      return Status::ParseError(std::string("trailing bytes after ") +
                                format_);
    }
    return Status::OK();
  }

  /// Bytes left to read. A count field claiming more entries than these can
  /// encode is malformed, and is rejected before anything is reserved.
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <class T>
  Status ReadLe(T* v) {
    if (remaining() < sizeof(T)) return Error(" truncated");
    *v = LoadLe<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status Error(const char* what) const {
    return Status::ParseError(std::string(format_) + what);
  }

  std::string_view bytes_;
  const char* format_;
  size_t pos_ = 0;
};

}  // namespace pebbletc

#endif  // PEBBLETC_COMMON_BYTES_H_
