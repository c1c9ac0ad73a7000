#include "src/serve/validity.h"

#include <string>
#include <string_view>

namespace pebbletc::serve {
namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
}

Status CheckName(std::string_view name, std::string_view field,
                 const ValidityOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument(std::string(field) + " name is empty");
  }
  if (name.size() > options.max_name_bytes) {
    return Status::InvalidArgument(
        std::string(field) + " name exceeds " +
        std::to_string(options.max_name_bytes) + " bytes");
  }
  for (char c : name) {
    if (!IsNameChar(c)) {
      return Status::InvalidArgument(
          std::string(field) +
          " name contains a character outside [A-Za-z0-9_.-]");
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckRequest(const Request& request, const ValidityOptions& options) {
  if (request.header.deadline_ms > options.max_deadline_ms) {
    return Status::InvalidArgument(
        "requested deadline " + std::to_string(request.header.deadline_ms) +
        "ms exceeds the server maximum of " +
        std::to_string(options.max_deadline_ms) + "ms");
  }
  return std::visit(
      [&options](const auto& body) -> Status {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, ValidateRequest>) {
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.schema, "schema", options));
          if (body.document.empty()) {
            return Status::InvalidArgument("document is empty");
          }
          if (body.document.size() > options.max_document_bytes) {
            return Status::InvalidArgument(
                "document exceeds " +
                std::to_string(options.max_document_bytes) + " bytes");
          }
        } else if constexpr (std::is_same_v<T, TypecheckRequest>) {
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.transducer, "transducer", options));
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.input_type, "input type", options));
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.output_type, "output type", options));
        } else if constexpr (std::is_same_v<T, InferInverseRequest>) {
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.transducer, "transducer", options));
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.output_type, "output type", options));
        } else if constexpr (std::is_same_v<T, LoadArtifactRequest>) {
          PEBBLETC_RETURN_IF_ERROR(CheckName(body.name, "artifact", options));
          if (body.artifact.empty()) {
            return Status::InvalidArgument("artifact payload is empty");
          }
          if (body.artifact.size() > options.max_artifact_bytes) {
            return Status::InvalidArgument(
                "artifact payload exceeds " +
                std::to_string(options.max_artifact_bytes) + " bytes");
          }
        } else if constexpr (std::is_same_v<T, ValidateBatchRequest>) {
          PEBBLETC_RETURN_IF_ERROR(
              CheckName(body.schema, "schema", options));
          if (body.documents.empty()) {
            return Status::InvalidArgument("batch carries no documents");
          }
          if (body.documents.size() > options.max_batch_docs) {
            return Status::InvalidArgument(
                "batch of " + std::to_string(body.documents.size()) +
                " documents exceeds the limit of " +
                std::to_string(options.max_batch_docs));
          }
          for (size_t i = 0; i < body.documents.size(); ++i) {
            if (body.documents[i].empty()) {
              return Status::InvalidArgument("batch document " +
                                             std::to_string(i) + " is empty");
            }
            if (body.documents[i].size() > options.max_document_bytes) {
              return Status::InvalidArgument(
                  "batch document " + std::to_string(i) + " exceeds " +
                  std::to_string(options.max_document_bytes) + " bytes");
            }
          }
        }
        return Status::OK();
      },
      request.body);
}

}  // namespace pebbletc::serve
