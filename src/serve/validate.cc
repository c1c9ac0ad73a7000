#include "src/serve/validate.h"

#include <utility>

#include "src/common/check.h"
#include "src/serve/registry.h"
#include "src/tree/encode.h"
#include "src/xml/xml.h"

namespace pebbletc::serve {
namespace {

DocVerdict ErrorVerdict(const Status& status) {
  DocVerdict v;
  if (status.code() == StatusCode::kParseError) {
    // The wire contract DoValidate always had: a malformed document is an
    // invalid-argument response whose detail leads with "document: ".
    v.code = StatusCode::kInvalidArgument;
    v.diagnostic = "document: " + status.ToString();
  } else {
    v.code = status.code();
    v.diagnostic = status.message();
  }
  return v;
}

DocVerdict UnknownTagVerdict(const ValidationPlan& plan,
                             const std::string& tag) {
  DocVerdict v;
  v.valid = false;
  v.diagnostic = plan.dtd != nullptr
                     ? "document uses tag '" + tag +
                           "' which the DTD does not declare"
                     : "document uses tag '" + tag +
                           "' outside the schema alphabet";
  return v;
}

// Diagnostic for a document the automaton rejected. DTD plans re-derive the
// per-node message from the DTD itself, reading the document's events once
// more; schema plans have only the automaton to point at.
std::string RejectionDiagnostic(const ValidationPlan& plan,
                                std::string_view document) {
  if (plan.dtd != nullptr) {
    Status conforms = plan.dtd->ValidateXml(document);
    if (!conforms.ok()) return std::string(conforms.message());
    // Engine and DTD disagree — a diffcheck-law violation if it ever
    // happens; stay honest rather than inventing a node.
    return "DTD automaton rejects the document";
  }
  return "schema automaton rejects the document";
}

}  // namespace

Result<ValidationPlan> CompileDtdPlan(
    std::shared_ptr<const SpecializedDtd> dtd, TaOpContext* ctx,
    TaOpCache* cache) {
  PEBBLETC_CHECK(dtd != nullptr) << "CompileDtdPlan on null DTD";
  ValidationPlan plan;
  plan.tags = dtd->tags();
  PEBBLETC_ASSIGN_OR_RETURN(plan.enc, MakeEncodedAlphabet(plan.tags));
  PEBBLETC_ASSIGN_OR_RETURN(Nbta nbta, CompileDtdToNbta(*dtd, plan.enc));
  PEBBLETC_ASSIGN_OR_RETURN(
      plan.engine, MembershipEngine::Compile(nbta, plan.enc.ranked, ctx, cache));
  plan.dtd = std::move(dtd);
  return plan;
}

Result<ValidationPlan> CompileSchemaPlan(const SchemaArtifact& schema,
                                         TaOpContext* ctx, TaOpCache* cache) {
  PEBBLETC_ASSIGN_OR_RETURN(RankedEncodingView view,
                            EncodedViewOfRanked(schema.alphabet));
  ValidationPlan plan;
  plan.tags = std::move(view.tags);
  plan.enc = std::move(view.enc);
  PEBBLETC_ASSIGN_OR_RETURN(
      plan.engine,
      MembershipEngine::Compile(schema.automaton, plan.enc.ranked, ctx, cache));
  return plan;
}

DocVerdict ValidateDoc(const ValidationPlan& plan, std::string_view document,
                       TaOpContext* ctx, Arena* /*arena*/) {
  DocVerdict v;
  if (plan.engine.fast()) {
    // Streaming: fold the compiled table over the parse events. No tree is
    // built: a DTD rejection is worded by reading the bytes again with the
    // DTD's possible-types DP over the events.
    Result<StreamVerdict> stream = StreamingValidateXml(
        document, *plan.engine.table(), plan.enc, plan.tags, ctx);
    if (!stream.ok()) return ErrorVerdict(stream.status());
    if (!stream->unknown_tag.empty()) {
      return UnknownTagVerdict(plan, stream->unknown_tag);
    }
    v.valid = stream->accepted;
    if (!v.valid) v.diagnostic = RejectionDiagnostic(plan, document);
    return v;
  }
  // Fallback route: materialize, encode, NbtaAccepts — correct under any
  // budget, just slower; counted via membership_fallbacks.
  Result<KnownXmlParse> parsed = ParseXmlKnown(document, plan.tags);
  if (!parsed.ok()) return ErrorVerdict(parsed.status());
  if (!parsed->unknown_tag.empty()) {
    return UnknownTagVerdict(plan, parsed->unknown_tag);
  }
  Result<BinaryTree> encoded = EncodeTree(parsed->tree, plan.enc);
  if (!encoded.ok()) return ErrorVerdict(encoded.status());
  Result<bool> accepted = plan.engine.Accepts(*encoded, ctx);
  if (!accepted.ok()) return ErrorVerdict(accepted.status());
  v.valid = *accepted;
  if (!v.valid) v.diagnostic = RejectionDiagnostic(plan, document);
  return v;
}

BatchResult ValidateBatch(const ValidationPlan& plan,
                          const std::vector<std::string>& documents,
                          TaOpContext* ctx) {
  BatchResult result;
  result.verdicts.reserve(documents.size());
  const size_t fast0 = ctx != nullptr ? ctx->counters.membership_fast_hits : 0;
  const size_t fall0 = ctx != nullptr ? ctx->counters.membership_fallbacks : 0;
  for (const std::string& document : documents) {
    result.verdicts.push_back(ValidateDoc(plan, document, ctx));
  }
  if (ctx != nullptr) {
    result.fast_path_docs = ctx->counters.membership_fast_hits - fast0;
    result.fallback_docs = ctx->counters.membership_fallbacks - fall0;
  }
  return result;
}

}  // namespace pebbletc::serve
