// Binary (de)serialization for tree automata, transducers, and DTDs — the
// typecheck service's artifact registry and wire format (docs/SERVING.md).
//
// The layouts (docs/FORMATS.md, "Binary formats") are flat little-endian
// dumps of the in-memory representations, written and read through the
// byte codec of src/common/bytes.h: fixed-width u32 fields, bit-packed
// accepting sets, rules in storage order, length-prefixed names. Every
// deserializer validates every structural invariant (state/symbol ranges,
// section sizes, level discipline, regex arity/depth) so a truncated or
// bit-flipped input fails with kParseError instead of yielding an
// out-of-range structure — these functions sit on the service's trust
// boundary, where the bytes may be adversarial, not just stale.
//
// Self-contained *artifacts* (a transducer with its alphabets, a DTD, a
// schema automaton with its alphabet) additionally travel inside a versioned
// container with a magic number, a kind byte, and an FNV-1a payload checksum
// (WrapTaArtifact / UnwrapTaArtifact), so registries and wire peers can
// reject corrupted or mislabelled payloads before parsing a single field.

#ifndef PEBBLETC_TA_SERIALIZE_H_
#define PEBBLETC_TA_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "src/pt/transducer.h"
#include "src/ta/nbta.h"

namespace pebbletc {

/// Appends the binary encoding of `a` to `*out`.
void SerializeNbta(const Nbta& a, std::string* out);

/// Parses an automaton serialized by SerializeNbta. The whole string must be
/// consumed; trailing bytes, truncation, or out-of-range ids are kParseError.
Result<Nbta> DeserializeNbta(std::string_view bytes);

/// FNV-1a 64 over `bytes` — the checksum the artifact container
/// (WrapTaArtifact) stores and UnwrapTaArtifact re-verifies.
uint64_t TaPayloadChecksum(std::string_view bytes);

// ---------------------------------------------------------------------------
// Self-contained artifacts (docs/SERVING.md registry, LoadArtifact wire op).
// ---------------------------------------------------------------------------

/// Appends the binary encoding of a ranked alphabet (rank byte + name per
/// symbol, in id order, so ids survive the round trip).
void SerializeRankedAlphabet(const RankedAlphabet& alphabet, std::string* out);

/// Parses an alphabet serialized by SerializeRankedAlphabet (whole string).
Result<RankedAlphabet> DeserializeRankedAlphabet(std::string_view bytes);

/// A pebble transducer bundled with the alphabets it runs over — the unit
/// the registry stores, since a bare PebbleTransducer only knows alphabet
/// *sizes* and cannot be validated or driven without the symbol tables.
struct TransducerArtifact {
  PebbleTransducer transducer{1, 0, 0};
  RankedAlphabet input_alphabet;
  RankedAlphabet output_alphabet;
};

/// Appends the binary encoding of `artifact`.
void SerializeTransducerArtifact(const TransducerArtifact& artifact,
                                 std::string* out);

/// Parses a transducer artifact. Beyond the byte-level checks, every state
/// id, level, move kind, and guard is range-checked and the reconstructed
/// machine must pass PebbleTransducer::Validate against its alphabets; any
/// violation is kParseError (malformed artifacts never build a machine).
Result<TransducerArtifact> DeserializeTransducerArtifact(
    std::string_view bytes);

/// Appends the binary encoding of `dtd` (tag/type name tables, type→tag map,
/// root types, and content-model regex ASTs in postorder).
void SerializeDtdArtifact(const SpecializedDtd& dtd, std::string* out);

/// Parses a DTD artifact. Regex ASTs are rebuilt through the Regex factories
/// with arity, node-count, and depth caps; type/tag references are
/// range-checked; the result is Finalize()d. Any violation is kParseError.
Result<SpecializedDtd> DeserializeDtdArtifact(std::string_view bytes);

/// A compiled schema: a tree automaton bundled with its ranked alphabet.
struct SchemaArtifact {
  RankedAlphabet alphabet;
  Nbta automaton;
};

/// Appends the binary encoding of `artifact`.
void SerializeSchemaArtifact(const SchemaArtifact& artifact, std::string* out);

/// Caps on a schema artifact's width. A state costs one bit on the wire, but
/// the schema's first validation builds an NbtaIndex with row offsets per
/// (symbol, state), so the artifact's size alone does not bound its cost.
inline constexpr uint32_t kMaxSchemaStates = 1u << 16;
inline constexpr uint64_t kMaxSchemaIndexEntries = 1u << 22;  // |Σ| × states

/// Parses a schema artifact; the automaton must pass Nbta::Validate against
/// the bundled alphabet (rank discipline included) and stay within the caps
/// above. Violations → kParseError.
Result<SchemaArtifact> DeserializeSchemaArtifact(std::string_view bytes);

/// What a wrapped artifact contains. Wire-stable values — do not renumber.
enum class TaArtifactKind : uint8_t {
  kNbta = 0,
  kDbta = 1,
  kTransducer = 2,
  kDtd = 3,
  kSchema = 4,
};

/// Container format version written by WrapTaArtifact.
inline constexpr uint8_t kTaArtifactVersion = 1;

/// Wraps `payload` in the versioned artifact container: magic "PTAR",
/// version byte, kind byte, FNV-1a payload checksum, payload.
void WrapTaArtifact(TaArtifactKind kind, std::string_view payload,
                    std::string* out);

/// A parsed container header; `payload` views into the unwrapped bytes.
struct TaArtifactView {
  TaArtifactKind kind;
  std::string_view payload;
};

/// Validates the container framing (magic, version, known kind, checksum)
/// and returns the kind plus a view of the payload. kParseError on any
/// mismatch — the payload is not inspected.
Result<TaArtifactView> UnwrapTaArtifact(std::string_view bytes);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_SERIALIZE_H_
