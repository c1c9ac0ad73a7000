// Seeded input generators for the served-request benchmark (README.md).
//
// Everything the daemon sees is produced here from a 64-bit seed:
//   * random plain DTDs whose content models are concatenations of factors
//     (x, x?, x*, x+, (x|y)), each factor naming tags no other factor of the
//     same production names;
//   * conforming documents, made by walking those content models with size,
//     depth, indentation and tag-length knobs, plus three mutation operators
//     (tag swap, insert, delete);
//   * a family of downward XSLT programs with output DTDs whose typecheck
//     verdict is known by construction.
//
// Expected verdicts never come from the served DBTA path: documents are
// judged by SpecializedDtd::Accepts on a tree built directly from the
// generator's own tree, and typecheck verdicts follow from how the output
// DTD was derived from the program.

#ifndef SERVEBENCH_GEN_H_
#define SERVEBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/dtd/dtd.h"

namespace servebench {

// ---------------------------------------------------------------------------
// DTDs.
// ---------------------------------------------------------------------------

enum class FactorKind : uint8_t { kOne, kOpt, kStar, kPlus, kAlt };

/// One factor of a content model: `a`, `a?`, `a*`, `a+`, or `(a|b)`.
struct Factor {
  FactorKind kind = FactorKind::kOne;
  uint32_t a = 0;
  uint32_t b = 0;  ///< second alternative, kAlt only
};

/// A plain DTD. Tag 0 is the root. Its production always starts with the
/// "record" factor `t1*`, which the document generator repeats to reach a
/// target size. A factor may name an earlier tag (a back edge, making the
/// language recursive) only when it is optional (`?` or `*`), so every tag
/// has a finite smallest tree.
struct GenDtd {
  std::vector<std::string> tags;
  std::vector<std::vector<Factor>> content;  ///< empty = `()`

  /// The DTD in the plain text format ParseDtd reads.
  std::string Text() const;
};

struct DtdKnobs {
  size_t num_tags = 8;  ///< at least 2
  size_t min_tag_len = 2;
  size_t max_tag_len = 24;
  size_t max_factors = 4;  ///< per production
  double back_edge_p = 0.25;
  /// A required factor is demoted to `?` when it would make the smallest
  /// tree of its tag exceed this many nodes.
  size_t max_min_nodes = 8;
};

/// Structure and tag-name lengths from `shape`, the letters from `names`
/// (the same generator may serve both).
GenDtd GenerateDtd(pebbletc::Rng& shape, pebbletc::Rng& names,
                   const DtdKnobs& knobs);

/// Parses `dtd.Text()`; the generator only emits parseable text.
pebbletc::SpecializedDtd ParseGenDtd(const GenDtd& dtd);

// ---------------------------------------------------------------------------
// Documents.
// ---------------------------------------------------------------------------

/// A document tree in the generator's own representation (tag indexes of
/// the GenDtd it was drawn from). Nodes unreachable from `root` (left by a
/// delete mutation) are ignored everywhere.
struct GenTree {
  struct Node {
    uint32_t tag = 0;
    std::vector<uint32_t> kids;
  };
  std::vector<Node> nodes;
  uint32_t root = 0;
};

struct DocKnobs {
  size_t target_bytes = 4096;
  size_t max_depth = 8;     ///< optional factors stop repeating below this
  double star_mean = 1.5;   ///< mean repetitions of `*` / extra `+` items
  size_t record_nodes = 200;  ///< node budget per root record
  bool indent = false;
};

/// A conforming tree: records are added until the serialized size reaches
/// `target_bytes` (a document never drops below its DTD's smallest tree).
GenTree GenerateTree(const GenDtd& dtd, pebbletc::Rng& rng,
                     const DocKnobs& knobs);

enum class Mutation : uint8_t { kNone, kSwap, kInsert, kDelete };

/// Applies one mutation at a random node: swap a tag for another DTD tag,
/// insert a leaf element with a random DTD tag, or delete a non-root
/// subtree. The result may or may not still conform.
void Mutate(GenTree* tree, const GenDtd& dtd, pebbletc::Rng& rng,
            Mutation mutation);

/// Element-only XML; leaves self-close; `indent` puts each element on its
/// own line, two spaces per level.
std::string ToXml(const GenTree& tree, const GenDtd& dtd, bool indent);

/// Conformance by SpecializedDtd::Accepts (the bottom-up possible-type DP),
/// on an UnrankedTree built straight from `tree` — no XML parsing involved.
bool ExpectedValid(const GenTree& tree, const GenDtd& dtd,
                   const pebbletc::SpecializedDtd& parsed);

/// Number of elements reachable from the root.
size_t CountNodes(const GenTree& tree);

// ---------------------------------------------------------------------------
// The typecheck family.
// ---------------------------------------------------------------------------

/// A downward XSLT program over `input`: one template per input tag, which
/// renames the tag injectively (out_tag), optionally emits a static leaf
/// first (static_tag, empty = none), and then either applies templates to
/// the children or drops them. No template has output after its `apply`, so
/// the compiled transducer is downward.
struct TcProgram {
  GenDtd input;
  std::vector<std::string> out_tag;
  std::vector<std::string> static_tag;
  std::vector<bool> applies;
  std::string XsltText() const;

  /// A production the typecheck can be made to fail on: a factor of a tag
  /// the program actually processes, which can be dropped (`?`, `*`),
  /// shortened (`+` to one) or narrowed (`(x|y)` to x) to a strictly
  /// smaller language.
  struct Tightening {
    uint32_t tag = 0;
    uint32_t factor = 0;
  };
  std::vector<Tightening> Tightenings() const;

  /// An output DTD for one hot load. `tightening` < 0 gives the exact image
  /// of the program on `input` (verdict kTypechecks); otherwise that factor
  /// is tightened (verdict kCounterexample).
  std::string OutputDtdText(int tightening) const;
};

struct TcKnobs {
  size_t num_tags = 5;
  size_t max_factors = 3;
  double static_p = 0.3;  ///< template emits a static leaf first
  double drop_p = 0.15;   ///< non-root template drops its children
};

/// Structure (content models, static leaves, dropped children) and
/// tag-name lengths from `shape`, the letters from `names`.
TcProgram GenerateProgram(pebbletc::Rng& shape, pebbletc::Rng& names,
                          const TcKnobs& knobs);

/// Wraps a DTD text as the `.ptar` container kLoadArtifact installs.
pebbletc::Result<std::string> DtdContainer(const std::string& dtd_text);

/// Checks a served counterexample: `input_xml` must conform to the input
/// DTD, and the program's reference output on it (ApplyXsltReference) must
/// conform to the exact image but not to `output_dtd_text`. Returns OK or a
/// message saying which check failed.
pebbletc::Status CheckCounterexample(const TcProgram& program,
                                     const std::string& output_dtd_text,
                                     const std::string& input_xml);

// ---------------------------------------------------------------------------
// Sampling helpers.
// ---------------------------------------------------------------------------

/// Stratified log-uniform sizes, ascending: the i-th of n values is drawn
/// from the i-th of n equal slices of [log lo, log hi]. Every seed gets
/// nearly the same size distribution, so throughput does not move with the
/// seed's luck of the draw.
std::vector<size_t> StratifiedLogSizes(pebbletc::Rng& rng, size_t n, size_t lo,
                                       size_t hi);

/// Zipf(s) over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(pebbletc::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace servebench

#endif  // SERVEBENCH_GEN_H_
