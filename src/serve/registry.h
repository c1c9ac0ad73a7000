// The artifact registry: named, pre-compiled schemas, DTDs, transducers, and
// XSLT programs the daemon serves requests against (docs/SERVING.md).
//
// Thread-safety model: the registry hands out `shared_ptr<const Entry>`
// snapshots. Installing or replacing a name swaps the map slot under a
// mutex; requests already holding the old snapshot keep using it until they
// finish, so hot-reloading an artifact never invalidates an in-flight
// request. Entries are immutable after installation.
//
// Two sources feed the registry:
//   * LoadDirectory — `.dtd` (text, ParseSpecializedDtd), `.xslt` (text,
//     ParseXslt; compiled per typecheck request, see below), and `.ptar`
//     (WrapTaArtifact binary containers) files, named by file stem;
//   * the kLoadArtifact wire op — a `.ptar`-style container in the request
//     body, validated end-to-end by PutWrapped before installation (a
//     corrupt container installs nothing).
//
// XSLT programs are stored *as programs*, not as compiled transducers: the
// XSLT fragment's alphabets depend on which DTDs a request pairs it with
// (the input alphabet is template heads ∪ τ1's tags, the output alphabet
// literal tags ∪ τ2's tags — the pebbletc_cli convention), so compilation
// happens per request that runs the typechecker. A repeated typecheck is
// replayed instead from ServerCore's decision map, which holds an answer
// only while the names resolve to the entries it was decided on
// (docs/CACHING.md).

#ifndef PEBBLETC_SERVE_REGISTRY_H_
#define PEBBLETC_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/ta/serialize.h"

namespace pebbletc::serve {

/// What a registry name resolves to. Exactly one of the payload pointers is
/// set, matching `kind`. (kXslt is registry-only — XSLT programs are text
/// artifacts, not members of the binary TaArtifactKind enum; `kind_byte`
/// distinguishes them on the wire in ListArtifacts.)
struct RegistryEntry {
  enum class Kind : uint8_t {
    kDtd = 0,
    kSchema = 1,
    kTransducer = 2,
    kXslt = 3,
  };
  Kind kind = Kind::kDtd;

  std::shared_ptr<const SpecializedDtd> dtd;
  std::shared_ptr<const SchemaArtifact> schema;
  std::shared_ptr<const TransducerArtifact> transducer;

  /// For kXslt: the parsed program plus the alphabets its source interned
  /// (template heads / literal output tags). Requests copy these and extend
  /// them with the paired DTDs' tags before compiling.
  struct XsltSource {
    XsltProgram program;
    Alphabet head_tags;
    Alphabet literal_tags;
  };
  std::shared_ptr<const XsltSource> xslt;
};

const char* RegistryKindName(RegistryEntry::Kind kind);

class ArtifactRegistry {
 public:
  /// Installs (or replaces) `entry` under `name`.
  void Put(std::string_view name, RegistryEntry entry);

  /// Snapshot lookup; nullptr when absent.
  std::shared_ptr<const RegistryEntry> Get(std::string_view name) const;

  /// Parses and installs a WrapTaArtifact container (kDtd / kSchema /
  /// kTransducer payloads; kNbta and kDbta are cache-internal formats and
  /// are rejected here — a bare automaton without its alphabet cannot answer
  /// requests). The payload is fully deserialized and validated before the
  /// name becomes visible.
  Result<RegistryEntry::Kind> PutWrapped(std::string_view name,
                                         std::string_view container_bytes);

  /// Parses `text` as an XSLT program and installs it under `name`.
  Status PutXsltText(std::string_view name, std::string_view text);

  /// Parses `text` as a (specialized) DTD and installs it under `name`.
  Status PutDtdText(std::string_view name, std::string_view text);

  /// Loads every `.dtd`, `.xslt`, and `.ptar` file in `dir` (non-recursive),
  /// named by file stem. Returns the number of artifacts installed; fails on
  /// the first unreadable or unparsable file (a daemon must not come up
  /// half-loaded with artifacts silently missing).
  Result<size_t> LoadDirectory(const std::string& dir);

  /// Name → kind listing, sorted by name.
  std::vector<std::pair<std::string, RegistryEntry::Kind>> List() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const RegistryEntry>, std::less<>>
      entries_;
};

/// An EncodedAlphabet reconstructed from a stored ranked alphabet, plus the
/// unranked tag table XML documents parse against. `enc.ranked` is a copy of
/// the source alphabet, so automata and transducers serialized over it keep
/// their symbol ids.
struct RankedEncodingView {
  Alphabet tags;
  EncodedAlphabet enc;
};

/// Rebuilds the encoding view of a ranked alphabet that was produced by
/// MakeEncodedAlphabet (e.g. one stored in a transducer or schema artifact):
/// locates the `-`/`|` symbols and derives the unranked tag table with an
/// id-exact `tag_symbol` mapping. Fails with kFailedPrecondition if the
/// alphabet lacks the encoding symbols — such an artifact cannot process
/// XML documents.
Result<RankedEncodingView> EncodedViewOfRanked(const RankedAlphabet& ranked);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_REGISTRY_H_
