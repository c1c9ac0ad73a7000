// Example 4.2: type inference fails, inverse type inference succeeds.
//
// Part A reproduces the paper's query Q1 (all pairs of <a/> children: the
// map a^n -> n² output items, whose image is *not* a regular tree language)
// and verifies the inverse-type claim concretely: with the output type
// "an even number of items", exactly the inputs with an even number of a's
// conform — the (a.a)* of the paper.
//
// Part B runs the complete inverse-type-inference pipeline (Prop. 4.6 +
// Thm. 4.7 via MSO) on a small machine and checks the inferred automaton
// exactly.
//
// Build & run:  ./build/examples/inverse_inference

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pt/paper_machines.h"
#include "src/query/selection.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/tree/encode.h"
#include "src/tree/term.h"
#include "src/xml/xml.h"

using namespace pebbletc;

template <typename T>
T Get(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::cerr << what << ": " << r.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(r).value();
}

int main() {
  // ---------- Part A: Q1 and the (a.a)* inverse type ----------
  Alphabet in_tags;
  in_tags.Intern("root");
  in_tags.Intern("a");
  SelectionQuery q1;
  q1.pattern = Get(ParsePattern("[root]([root.a],[root.a])", &in_tags),
                   "parse Q1 pattern");
  q1.selected = 1;  // one <item/> per ($X, $Y) pair — n² of them

  Alphabet out_tags;
  SelectionOutputTags tags = ExtendAlphabetForSelection(in_tags, &out_tags);
  EncodedAlphabet in_enc = Get(MakeEncodedAlphabet(in_tags), "enc in");
  EncodedAlphabet out_enc = Get(MakeEncodedAlphabet(out_tags), "enc out");
  PebbleTransducer t =
      Get(CompileSelectionQuery(q1, in_enc, out_enc, tags), "compile Q1");
  std::cout << "Q1 as a " << t.max_pebbles() << "-pebble transducer ("
            << t.num_states() << " states)\n";

  // Output type τ2: an even number of items — result := (item.item)*.end.
  SpecializedDtd out_dtd = Get(ParseDtd(R"(
      result := (item.item)*.end
      item   := a
      a      := ()
      end    := ()
  )"),
                               "out dtd");
  // Align tag ids with the selection output alphabet by name.
  Nbta tau2_raw = Get(CompileDtdToNbta(out_dtd, Get(MakeEncodedAlphabet(
                                                        out_dtd.tags()),
                                                    "enc")),
                      "tau2");
  // The DTD's alphabet is ordered differently; rebuild τ2 over out_enc by
  // relabeling name-by-name.
  Alphabet dtd_tags = out_dtd.tags();
  EncodedAlphabet dtd_enc = Get(MakeEncodedAlphabet(dtd_tags), "dtd enc");
  std::vector<SymbolId> map(dtd_enc.ranked.size());
  for (SymbolId s = 0; s < dtd_enc.ranked.size(); ++s) {
    map[s] = out_enc.ranked.Find(dtd_enc.ranked.Name(s));
    if (map[s] == kNoSymbol) {
      std::cerr << "tag mismatch\n";
      return 1;
    }
  }
  Nbta tau2 = RelabelNbta(tau2_raw, map,
                          static_cast<uint32_t>(out_enc.ranked.size()));

  // Per-input exact checks (Prop. 3.8): conforms iff n is even — i.e. the
  // paper's inverse type (a.a)*.
  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  std::cout << "\n  n | #items = n^2 | T(a^n) ⊆ (item.item)*  [expect: even "
               "n only]\n";
  for (int n = 0; n <= 6; ++n) {
    std::string text = "root";
    if (n > 0) {
      text += "(a";
      for (int i = 1; i < n; ++i) text += ",a";
      text += ")";
    }
    UnrankedTree doc = Get(ParseUnrankedTerm(text, &in_tags), "doc");
    BinaryTree enc = Get(EncodeTree(doc, in_enc), "enc");
    bool ok = Get(tc.CheckOnInput(enc, tau2), "check");
    std::cout << "  " << n << " | " << (n * n) << " items | "
              << (ok ? "conforms" : "VIOLATES") << "\n";
  }
  std::cout << "\n=> the inverse type is exactly root := (a.a)* — regular, "
               "even though the image b^{n^2} is not.\n";

  // ---------- Part B: exact inverse inference via MSO (tiny machine) -----
  RankedAlphabet micro;
  (void)micro.AddLeaf("l");
  (void)micro.AddBinary("n");
  PebbleTransducer copy = MakeCopyTransducer(micro);
  // τ2: the root is the binary symbol n.
  Nbta tau2_micro;
  tau2_micro.num_symbols = 2;
  {
    StateId any = tau2_micro.AddState();
    StateId top = tau2_micro.AddState();
    tau2_micro.accepting[top] = true;
    tau2_micro.AddLeafRule(micro.Find("l"), any);
    tau2_micro.AddRule(micro.Find("n"), any, any, any);
    tau2_micro.AddRule(micro.Find("n"), any, any, top);
  }
  Typechecker tc2(copy, micro, micro);
  Nbta inverse = Get(tc2.InferInverseType(tau2_micro), "infer inverse");
  bool equal =
      Get(NbtaEquivalent(inverse, tau2_micro, micro), "compare");
  std::cout << "\nPart B — complete inverse-inference pipeline (Prop 4.6 "
               "product + regularization):\n"
            << "  inverse type of τ2 under the identity transducer ≡ τ2: "
            << (equal ? "verified" : "MISMATCH") << "  (inferred automaton: "
            << inverse.num_states << " states)\n";
  return 0;
}
