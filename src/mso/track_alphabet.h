// Track-extended alphabets for the MSO→tree-automaton compilation: symbols
// of Σ × {0,1}^m, where bit i of the track vector records whether the
// position belongs to variable i's interpretation. Extended symbol ids are
// base_id * 2^m + bits, and ranks are inherited from the base symbol.

#ifndef PEBBLETC_MSO_TRACK_ALPHABET_H_
#define PEBBLETC_MSO_TRACK_ALPHABET_H_

#include <cstdint>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"

namespace pebbletc {

/// An alphabet Σ × {0,1}^m with id arithmetic helpers.
class TrackAlphabet {
 public:
  /// Builds the extended ranked alphabet; names are "a#0101" (low track
  /// first). m up to 20 tracks (the alphabet size is |Σ|·2^m); more is a
  /// structural limit, kLimitExceeded, on which the typechecker's ladder
  /// degrades instead of failing the call.
  static Result<TrackAlphabet> Make(const RankedAlphabet& base,
                                    uint32_t num_tracks);

  const RankedAlphabet& ranked() const { return ranked_; }
  uint32_t num_tracks() const { return num_tracks_; }
  uint32_t base_size() const { return base_size_; }

  SymbolId Id(SymbolId base_symbol, uint32_t bits) const {
    return base_symbol * (1u << num_tracks_) + bits;
  }
  SymbolId BaseOf(SymbolId ext) const { return ext >> num_tracks_; }
  uint32_t BitsOf(SymbolId ext) const {
    return ext & ((1u << num_tracks_) - 1);
  }
  bool BitOf(SymbolId ext, uint32_t track) const {
    return (BitsOf(ext) >> track) & 1u;
  }

  /// Symbol map ext → ext′ dropping track `track` (for projection): the
  /// result ranges over an alphabet with num_tracks-1 tracks.
  std::vector<SymbolId> DropTrackMap(uint32_t track) const;

  /// Symbol map ext → base (dropping all tracks).
  std::vector<SymbolId> ToBaseMap() const;

 private:
  RankedAlphabet ranked_;
  uint32_t base_size_ = 0;
  uint32_t num_tracks_ = 0;
};

}  // namespace pebbletc

#endif  // PEBBLETC_MSO_TRACK_ALPHABET_H_
