// Trust-boundary shape checks for the typecheck service, in the style of
// RethinkDB's `validate_pb` checks (docs/SERVING.md): every decoded request
// passes CheckRequest *before* dispatch touches the registry or any automata
// op, and every rejection is a structured kInvalidArgument (mapped to
// WireStatus::kValidationFailed), never a crash.
//
// The checks are cheap and always on: registry names are non-empty,
// length-capped and drawn from a conservative charset; documents, batches
// and artifact payloads respect their caps; requested deadlines respect the
// server maximum (rejected, not clamped). O(field length), no parsing. The
// bytes themselves are parsed exactly once, by the dispatch that uses them:
// ValidateDoc's streaming fold answers a malformed document with
// kInvalidArgument (src/serve/validate.h), and ArtifactRegistry::PutWrapped
// answers a corrupt artifact with kParseError (kValidationFailed on the
// wire) and installs nothing.

#ifndef PEBBLETC_SERVE_VALIDITY_H_
#define PEBBLETC_SERVE_VALIDITY_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/serve/protocol.h"

namespace pebbletc::serve {

/// The caps CheckRequest enforces.
struct ValidityOptions {
  uint32_t max_name_bytes = 256;
  uint32_t max_document_bytes = 1u << 20;
  uint32_t max_artifact_bytes = 2u << 20;
  /// Most documents one kValidateBatch request may carry. Bounds the work a
  /// single admission slot can claim; every document still respects
  /// max_document_bytes individually.
  uint32_t max_batch_docs = 64;
  /// Largest deadline a client may request; larger asks are rejected (not
  /// clamped — a client that asks for an hour should learn the server's
  /// policy, not silently get two seconds).
  uint32_t max_deadline_ms = 30000;
};

/// Checks a decoded request's shape against `options`. OK means "safe to
/// dispatch"; any violation returns kInvalidArgument with a message naming
/// the offending field.
Status CheckRequest(const Request& request, const ValidityOptions& options);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_VALIDITY_H_
