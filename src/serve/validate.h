// The serving layer's validation fast path (docs/VALIDATION.md): a named
// artifact compiled once into a ValidationPlan — tag table, Section 2.1
// encoding, and a compiled MembershipEngine — then applied per document, or
// in order across a whole batch.
//
// ValidateDoc is the only place a served document is parsed: its streaming
// DBTA fold decides well-formedness and membership in one pass, so a
// malformed document gets its answer (kInvalidArgument, "document: "
// diagnostic) from the same parse that would have validated it. The
// NbtaAccepts fallback runs when determinization blew its budget.
// ValidateBatch runs one plan over N documents in order, on the caller's
// context.

#ifndef PEBBLETC_SERVE_VALIDATE_H_
#define PEBBLETC_SERVE_VALIDATE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "src/ta/membership.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/serialize.h"

namespace pebbletc {
class Arena;
}  // namespace pebbletc

namespace pebbletc::serve {

/// A validation artifact compiled for repeated membership queries. Cheap to
/// copy (shared payloads); safe to share across threads once compiled.
struct ValidationPlan {
  /// Unranked tag table documents are resolved against (never mutated).
  Alphabet tags;
  /// The Section 2.1 encoding of `tags`; `engine` runs over `enc.ranked`.
  EncodedAlphabet enc;
  /// Compiled membership (fast DBTA table, or NbtaAccepts fallback).
  MembershipEngine engine;
  /// Set for DTD artifacts: renders per-node diagnostics for rejections.
  std::shared_ptr<const SpecializedDtd> dtd;
};

/// Compiles a DTD artifact into a plan. Determinization runs under `ctx`
/// budgets against `cache` (null = process-wide); a budget blowup degrades
/// the engine to the fallback route, while deadline/cancel propagate.
Result<ValidationPlan> CompileDtdPlan(
    std::shared_ptr<const SpecializedDtd> dtd, TaOpContext* ctx = nullptr,
    TaOpCache* cache = nullptr);

/// Compiles a schema artifact (ranked automaton + alphabet) into a plan.
Result<ValidationPlan> CompileSchemaPlan(const SchemaArtifact& schema,
                                         TaOpContext* ctx = nullptr,
                                         TaOpCache* cache = nullptr);

/// Per-document outcome. `code` is kOk whenever validation itself completed
/// (even with valid == false); a non-kOk code means this document's request
/// failed — malformed XML (kInvalidArgument, diagnostic prefixed
/// "document: "), deadline, cancellation, injected fault — and `diagnostic`
/// carries the Status message.
struct DocVerdict {
  StatusCode code = StatusCode::kOk;
  bool valid = false;
  std::string diagnostic;
};

/// Validates one document against a compiled plan. Checkpoints under `ctx`,
/// so deadline/cancel/fault surface per document. Ignored: the Arena
/// argument (a no-op class); it is kept only so existing callers that pass
/// one still compile.
DocVerdict ValidateDoc(const ValidationPlan& plan, std::string_view document,
                       TaOpContext* ctx = nullptr, Arena* arena = nullptr);

struct BatchResult {
  std::vector<DocVerdict> verdicts;  ///< one per input document, in order
  uint64_t fast_path_docs = 0;       ///< answered via the compiled table
  uint64_t fallback_docs = 0;        ///< answered via NbtaAccepts
};

/// Validates every document against one plan, in order, under `ctx`. Once
/// the context's sticky interrupt trips (deadline, disconnect cancellation),
/// every not-yet-validated document reports that code honestly instead of a
/// fabricated verdict.
BatchResult ValidateBatch(const ValidationPlan& plan,
                          const std::vector<std::string>& documents,
                          TaOpContext* ctx = nullptr);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_VALIDATE_H_
