// pebbletc_cli — command-line typechecker for XSLT-fragment programs.
//
// Usage:
//   pebbletc_cli typecheck <program.xslt> <input.dtd> <output.dtd>
//   pebbletc_cli run       <program.xslt> <doc.xml>
//   pebbletc_cli validate  <doc.xml> <schema.dtd>
//
// File formats are the library's text formats (see README): the XSLT
// fragment, plain/specialized DTDs, and element-only XML.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pt/eval.h"
#include "src/query/xslt.h"
#include "src/tree/encode.h"
#include "src/xml/xml.h"

using namespace pebbletc;

namespace {

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 2;
}

template <typename T>
T Get(Result<T> r, const char* what, int* error) {
  if (!r.ok()) {
    *error = Fail(std::string(what) + ": " + r.status().ToString());
    std::exit(*error);
  }
  return std::move(r).value();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int CmdTypecheck(const std::string& program_path, const std::string& in_path,
                 const std::string& out_path) {
  int error = 0;
  std::string program_text = Get(ReadFile(program_path), "program", &error);
  std::string in_text = Get(ReadFile(in_path), "input DTD", &error);
  std::string out_text = Get(ReadFile(out_path), "output DTD", &error);

  Alphabet in_tags, out_tags;
  XsltProgram program =
      Get(ParseXslt(program_text, &in_tags, &out_tags), "program", &error);
  SpecializedDtd in_dtd =
      Get(ParseSpecializedDtd(in_text), "input DTD", &error);
  SpecializedDtd out_dtd =
      Get(ParseSpecializedDtd(out_text), "output DTD", &error);
  // The program must at least cover the DTD's tags.
  for (SymbolId t = 0; t < in_dtd.tags().size(); ++t) {
    in_tags.Intern(in_dtd.tags().Name(t));
  }
  for (SymbolId t = 0; t < out_dtd.tags().size(); ++t) {
    out_tags.Intern(out_dtd.tags().Name(t));
  }
  EncodedAlphabet in_enc =
      Get(MakeEncodedAlphabet(in_tags), "input alphabet", &error);
  EncodedAlphabet out_enc =
      Get(MakeEncodedAlphabet(out_tags), "output alphabet", &error);
  PebbleTransducer t =
      Get(CompileXslt(program, in_enc, out_enc), "compile", &error);
  Nbta tau1 = Get(CompileDtdOver(in_dtd, in_enc), "input type", &error);
  Nbta tau2 = Get(CompileDtdOver(out_dtd, out_enc), "output type", &error);

  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  TypecheckResult r = Get(tc.Typecheck(tau1, tau2), "typecheck", &error);
  switch (r.verdict) {
    case TypecheckVerdict::kTypechecks:
      std::cout << "TYPECHECKS (" << r.method << ")\n";
      return 0;
    case TypecheckVerdict::kCounterexample: {
      std::cout << "COUNTEREXAMPLE (" << r.method << ")\n";
      if (r.counterexample_input.has_value()) {
        auto doc = DecodeTree(*r.counterexample_input, in_enc);
        if (doc.ok()) {
          std::cout << "  input:  " << XmlString(*doc, in_tags) << "\n";
        }
      }
      if (r.counterexample_output.has_value()) {
        auto doc = DecodeTree(*r.counterexample_output, out_enc);
        if (doc.ok()) {
          std::cout << "  output: " << XmlString(*doc, out_tags) << "\n";
        }
      }
      return 1;
    }
    case TypecheckVerdict::kUnknown:
      std::cout << "INCONCLUSIVE";
      if (!r.notes.empty()) std::cout << " (" << r.notes << ")";
      std::cout << "\n";
      return 3;
  }
  return 2;
}

int CmdRun(const std::string& program_path, const std::string& doc_path) {
  int error = 0;
  std::string program_text = Get(ReadFile(program_path), "program", &error);
  std::string doc_text = Get(ReadFile(doc_path), "document", &error);
  Alphabet in_tags, out_tags;
  XsltProgram program =
      Get(ParseXslt(program_text, &in_tags, &out_tags), "program", &error);
  UnrankedTree doc = Get(ParseXml(doc_text, &in_tags), "document", &error);
  EncodedAlphabet in_enc =
      Get(MakeEncodedAlphabet(in_tags), "input alphabet", &error);
  EncodedAlphabet out_enc =
      Get(MakeEncodedAlphabet(out_tags), "output alphabet", &error);
  PebbleTransducer t =
      Get(CompileXslt(program, in_enc, out_enc), "compile", &error);
  BinaryTree encoded = Get(EncodeTree(doc, in_enc), "encode", &error);
  BinaryTree out_bin = Get(EvalDeterministic(t, encoded), "run", &error);
  UnrankedTree out = Get(DecodeTree(out_bin, out_enc), "decode", &error);
  std::cout << XmlString(out, out_tags, /*indent=*/true);
  return 0;
}

int CmdValidate(const std::string& doc_path, const std::string& dtd_path) {
  int error = 0;
  std::string doc_text = Get(ReadFile(doc_path), "document", &error);
  std::string dtd_text = Get(ReadFile(dtd_path), "DTD", &error);
  SpecializedDtd dtd = Get(ParseSpecializedDtd(dtd_text), "DTD", &error);
  UnrankedTree doc =
      Get(ParseXml(doc_text, dtd.mutable_tags()), "document", &error);
  Status s = dtd.Validate(doc);
  if (s.ok()) {
    std::cout << "VALID\n";
    return 0;
  }
  std::cout << "INVALID: " << s.message() << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage:\n"
      "  pebbletc_cli typecheck <program.xslt> <input.dtd> <output.dtd>\n"
      "  pebbletc_cli run       <program.xslt> <doc.xml>\n"
      "  pebbletc_cli validate  <doc.xml> <schema.dtd>\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "typecheck" && argc == 5) {
    return CmdTypecheck(argv[2], argv[3], argv[4]);
  }
  if (cmd == "run" && argc == 4) {
    return CmdRun(argv[2], argv[3]);
  }
  if (cmd == "validate" && argc == 4) {
    return CmdValidate(argv[2], argv[3]);
  }
  std::cerr << usage;
  return 2;
}
