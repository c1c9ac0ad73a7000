#include "src/mso/track_alphabet.h"

#include <string>

#include "src/common/check.h"

namespace pebbletc {

Result<TrackAlphabet> TrackAlphabet::Make(const RankedAlphabet& base,
                                          uint32_t num_tracks) {
  if (num_tracks > 20) {
    return Status::LimitExceeded("too many MSO tracks (" +
                                 std::to_string(num_tracks) + " > 20)");
  }
  const uint64_t ext_size = static_cast<uint64_t>(base.size())
                            << num_tracks;
  if (ext_size > (1u << 22)) {
    return Status::ResourceExhausted("extended alphabet too large (" +
                                     std::to_string(ext_size) + " symbols)");
  }
  TrackAlphabet out;
  out.base_size_ = static_cast<uint32_t>(base.size());
  out.num_tracks_ = num_tracks;
  const uint32_t combos = 1u << num_tracks;
  for (SymbolId b = 0; b < base.size(); ++b) {
    for (uint32_t bits = 0; bits < combos; ++bits) {
      std::string name = base.Name(b);
      if (num_tracks > 0) {
        name += '#';
        for (uint32_t t = 0; t < num_tracks; ++t) {
          name += ((bits >> t) & 1u) ? '1' : '0';
        }
      }
      Result<SymbolId> id = base.Rank(b) == 0
                                ? out.ranked_.AddLeaf(name)
                                : out.ranked_.AddBinary(name);
      PEBBLETC_CHECK(id.ok()) << id.status().ToString();
      PEBBLETC_CHECK(*id == out.Id(b, bits)) << "extended id out of sync";
    }
  }
  return out;
}

std::vector<SymbolId> TrackAlphabet::DropTrackMap(uint32_t track) const {
  PEBBLETC_CHECK(track < num_tracks_) << "bad track";
  std::vector<SymbolId> map(ranked_.size());
  const uint32_t low_mask = (1u << track) - 1;
  for (SymbolId ext = 0; ext < ranked_.size(); ++ext) {
    const SymbolId base = BaseOf(ext);
    const uint32_t bits = BitsOf(ext);
    const uint32_t reduced = (bits & low_mask) | ((bits >> (track + 1)) << track);
    map[ext] = base * (1u << (num_tracks_ - 1)) + reduced;
  }
  return map;
}

std::vector<SymbolId> TrackAlphabet::ToBaseMap() const {
  std::vector<SymbolId> map(ranked_.size());
  for (SymbolId ext = 0; ext < ranked_.size(); ++ext) map[ext] = BaseOf(ext);
  return map;
}

}  // namespace pebbletc
