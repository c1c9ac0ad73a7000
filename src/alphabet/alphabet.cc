#include "src/alphabet/alphabet.h"

#include <string>
#include <utility>

#include "src/common/check.h"

namespace pebbletc {

SymbolId Alphabet::Intern(std::string_view name) {
  PEBBLETC_CHECK(!name.empty()) << "empty symbol name";
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

SymbolId Alphabet::Find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kNoSymbol : it->second;
}

const std::string& Alphabet::Name(SymbolId id) const {
  PEBBLETC_CHECK(Contains(id)) << "invalid symbol id " << id;
  return names_[id];
}

Result<SymbolId> RankedAlphabet::AddLeaf(std::string_view name) {
  if (name.empty()) return Status::InvalidArgument("empty symbol name");
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (ranks_[it->second] != 0) {
      return Status::InvalidArgument("symbol '" + std::string(name) +
                                     "' already has rank 2");
    }
    return it->second;
  }
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ranks_.push_back(0);
  leaves_.push_back(id);
  index_.emplace(names_.back(), id);
  return id;
}

Result<SymbolId> RankedAlphabet::AddBinary(std::string_view name) {
  if (name.empty()) return Status::InvalidArgument("empty symbol name");
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (ranks_[it->second] != 2) {
      return Status::InvalidArgument("symbol '" + std::string(name) +
                                     "' already has rank 0");
    }
    return it->second;
  }
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ranks_.push_back(2);
  binaries_.push_back(id);
  index_.emplace(names_.back(), id);
  return id;
}

SymbolId RankedAlphabet::Find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kNoSymbol : it->second;
}

const std::string& RankedAlphabet::Name(SymbolId id) const {
  PEBBLETC_CHECK(Contains(id)) << "invalid symbol id " << id;
  return names_[id];
}

int RankedAlphabet::Rank(SymbolId id) const {
  PEBBLETC_CHECK(Contains(id)) << "invalid symbol id " << id;
  return ranks_[id];
}

SymbolId EncodedAlphabet::TagOf(SymbolId id) const {
  for (SymbolId tag = 0; tag < tag_symbol.size(); ++tag) {
    if (tag_symbol[tag] == id) return tag;
  }
  return kNoSymbol;
}

Result<EncodedAlphabet> MakeEncodedAlphabet(const Alphabet& tags) {
  EncodedAlphabet out;
  out.tag_symbol.reserve(tags.size());
  for (SymbolId tag = 0; tag < tags.size(); ++tag) {
    const std::string& name = tags.Name(tag);
    if (name == kConsName || name == kNilName) {
      return Status::InvalidArgument("tag name '" + name +
                                     "' collides with an encoding symbol");
    }
    PEBBLETC_ASSIGN_OR_RETURN(SymbolId id, out.ranked.AddBinary(name));
    out.tag_symbol.push_back(id);
  }
  PEBBLETC_ASSIGN_OR_RETURN(out.cons, out.ranked.AddBinary(kConsName));
  PEBBLETC_ASSIGN_OR_RETURN(out.nil, out.ranked.AddLeaf(kNilName));
  return out;
}

}  // namespace pebbletc
