// Pins of the XML reader (src/xml/xml.cc): for each input, the exact event
// sequence, or the exact Status::ToString() that XmlEventReader, ParseXml
// and StreamingValidateXml all return for it.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "src/serve/validate.h"
#include "src/ta/membership.h"
#include "src/xml/xml.h"

namespace pebbletc {
namespace {

// The reader's events as "+name" (open), "-" (close) and "$" (end), or the
// error's Status::ToString().
std::string Events(std::string_view text) {
  XmlEventReader reader(text);
  std::string out;
  while (true) {
    Result<XmlEventReader::Event> ev = reader.Next();
    if (!ev.ok()) return ev.status().ToString();
    if (!out.empty()) out += ' ';
    switch (ev->kind) {
      case XmlEventReader::Kind::kOpen:
        out += '+';
        out += ev->name;
        break;
      case XmlEventReader::Kind::kClose:
        out += '-';
        break;
      case XmlEventReader::Kind::kEnd:
        out += '$';
        return out;
    }
  }
}

// A plan over the pins' tags, so StreamingValidateXml folds a real table.
const serve::ValidationPlan& PinPlan() {
  static const serve::ValidationPlan* plan = [] {
    auto dtd = std::make_shared<const SpecializedDtd>(
        std::move(ParseDtd("a := (a | b | c)*\nb := (a | b | c)*\n"
                           "c := (a | b | c)*\n"))
            .ValueOrDie());
    return new serve::ValidationPlan(
        std::move(serve::CompileDtdPlan(dtd)).ValueOrDie());
  }();
  return *plan;
}

struct Pin {
  const char* text;
  const char* want;  // Events(text)
};

// Well-formed inputs, with their events.
const Pin kWellFormed[] = {
    {"<a/>", "+a - $"},
    {"<a></a>", "+a - $"},
    {"<a><b><c/></b></a>", "+a +b +c - - - $"},
    {"<a_b.c:d-1/>", "+a_b.c:d-1 - $"},
    {"\t\n\v\f\r <a/>\r\n", "+a - $"},
    {" <!-- c --> <a> <!--x--> <b/>\n\t<c></c> </a> <!-- t --> \n",
     "+a +b - +c - - $"},
    {"<!----><a/><!---->", "+a - $"},
    {"<a><!-- <b/> --></a>", "+a - $"},
    {"<a><b/><b></b><!--c--><c/></a>", "+a +b - +b - +c - - $"},
};

// Malformed inputs, with the one status every route returns.
const Pin kMalformed[] = {
    {"", "parse-error: expected '<' at offset 0"},
    {"   ", "parse-error: expected '<' at offset 3"},
    {"abc", "parse-error: expected '<' at offset 0"},
    {"<>", "parse-error: expected tag name at offset 1"},
    {"</a>", "parse-error: expected tag name at offset 1"},
    {"<a><></a>", "parse-error: expected tag name at offset 4"},
    {"<a></>", "parse-error: expected tag name at offset 5"},
    {"<\xc3\xa9/>", "parse-error: expected tag name at offset 1"},
    {"<a x='1'/>", "parse-error: attributes are not supported (element 'a')"},
    {"<a><b c=\"d\"></b></a>",
     "parse-error: attributes are not supported (element 'b')"},
    {"<a", "parse-error: expected '>' at offset 2"},
    {"<a/", "parse-error: expected '>' at offset 2"},
    {"<a?>", "parse-error: expected '>' at offset 2"},
    {"<a\xc3\xa9/>", "parse-error: expected '>' at offset 2"},
    {"<a><b/ ></a>", "parse-error: expected '>' at offset 5"},
    {"<a></a", "parse-error: expected '>' after closing tag"},
    {"<a></a!>", "parse-error: expected '>' after closing tag"},
    {"<a></b>", "parse-error: mismatched </b>, expected </a>"},
    {"<a><b></a></b>", "parse-error: mismatched </a>, expected </b>"},
    {"<a></ab>", "parse-error: mismatched </ab>, expected </a>"},
    {"<ab></a>", "parse-error: mismatched </a>, expected </ab>"},
    {"<a>text</a>", "parse-error: text content is not supported (inside <a>)"},
    {"<a><b/>&amp;</a>",
     "parse-error: text content is not supported (inside <a>)"},
    {"<a/><b/>", "parse-error: trailing content at offset 4"},
    {"<a/> x", "parse-error: trailing content at offset 5"},
    {"<a></a></a>", "parse-error: trailing content at offset 7"},
    {"<a>", "parse-error: unexpected end of input inside <a>"},
    {"<a><b/>", "parse-error: unexpected end of input inside <a>"},
    {"<a><b> ", "parse-error: unexpected end of input inside <b>"},
    {"<!-- x", "parse-error: unterminated comment at offset 0"},
    {" <!-- <a/>", "parse-error: unterminated comment at offset 1"},
    {"<a><!-- x</a>", "parse-error: unterminated comment at offset 3"},
    {"<a/><!--", "parse-error: unterminated comment at offset 4"},
    {"<a/> <!-- x", "parse-error: unterminated comment at offset 5"},
    {"<a/><!-- x --><!-- y", "parse-error: unterminated comment at offset 14"},
};

TEST(XmlReaderPins, WellFormedInputsYieldTheirEvents) {
  for (const Pin& pin : kWellFormed) {
    SCOPED_TRACE(pin.text);
    EXPECT_EQ(Events(pin.text), pin.want);
    Alphabet tags;
    EXPECT_TRUE(ParseXml(pin.text, &tags).ok());
    const serve::ValidationPlan& plan = PinPlan();
    Result<StreamVerdict> stream = StreamingValidateXml(
        pin.text, *plan.engine.table(), plan.enc, plan.tags);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  }
}

TEST(XmlReaderPins, MalformedInputsGiveOneStatusOnEveryRoute) {
  const serve::ValidationPlan& plan = PinPlan();
  for (const Pin& pin : kMalformed) {
    SCOPED_TRACE(pin.text);
    EXPECT_EQ(Events(pin.text), pin.want);
    Alphabet tags;
    Result<UnrankedTree> tree = ParseXml(pin.text, &tags);
    ASSERT_FALSE(tree.ok());
    EXPECT_EQ(tree.status().ToString(), pin.want);
    Result<KnownXmlParse> known = ParseXmlKnown(pin.text, plan.tags);
    ASSERT_FALSE(known.ok());
    EXPECT_EQ(known.status().ToString(), pin.want);
    Result<StreamVerdict> stream = StreamingValidateXml(
        pin.text, *plan.engine.table(), plan.enc, plan.tags);
    ASSERT_FALSE(stream.ok());
    EXPECT_EQ(stream.status().ToString(), pin.want);
  }
}

// Every proper prefix of a well-formed document is malformed, and every
// route agrees on why.
TEST(XmlReaderPins, PrefixesAgreeAcrossRoutes) {
  const serve::ValidationPlan& plan = PinPlan();
  const std::string doc = " <!-- c --> <a> <!--x--> <b/>\n\t<c></c> </a>";
  for (size_t n = 0; n < doc.size(); ++n) {
    const std::string prefix = doc.substr(0, n);
    SCOPED_TRACE(prefix);
    const std::string events = Events(prefix);
    ASSERT_EQ(events.rfind("parse-error: ", 0), 0u) << events;
    Alphabet tags;
    EXPECT_EQ(ParseXml(prefix, &tags).status().ToString(), events);
    EXPECT_EQ(StreamingValidateXml(prefix, *plan.engine.table(), plan.enc,
                                   plan.tags)
                  .status()
                  .ToString(),
              events);
  }
}

// XML 1.0's STag, EmptyElemTag and ETag allow S? before '>' and '/>'. A name
// after the space is still an attribute.
TEST(XmlReaderPins, WhitespaceBeforeTagCloseIsAccepted) {
  const serve::ValidationPlan& plan = PinPlan();
  const Pin accepted[] = {
      {"<a />", "+a - $"},
      {"<a >", "parse-error: unexpected end of input inside <a>"},
      {"<a ></a >", "+a - $"},
      {"<a\t/>", "+a - $"},
      {"<a\n>\n<b\r\n/>\n</a\n>", "+a +b - - $"},
      {"<a ><b /><c ></c\t></a >", "+a +b - +c - - $"},
  };
  for (const Pin& pin : accepted) {
    SCOPED_TRACE(pin.text);
    EXPECT_EQ(Events(pin.text), pin.want);
    Alphabet tags;
    EXPECT_EQ(ParseXml(pin.text, &tags).ok(), pin.want[0] == '+');
    Result<StreamVerdict> stream = StreamingValidateXml(
        pin.text, *plan.engine.table(), plan.enc, plan.tags);
    EXPECT_EQ(stream.ok(), pin.want[0] == '+');
    if (stream.ok()) {
      EXPECT_TRUE(stream->accepted);
    }
  }
  const Pin refused[] = {
      {"<a x />", "parse-error: attributes are not supported (element 'a')"},
      {"<a\nx='1'>", "parse-error: attributes are not supported (element 'a')"},
      {"<a / >", "parse-error: expected '>' at offset 3"},
      {"<a ", "parse-error: expected '>' at offset 3"},
      {"<a  ?>", "parse-error: expected '>' at offset 4"},
      {"<a></a x>", "parse-error: expected '>' after closing tag"},
      {"<a></a ", "parse-error: expected '>' after closing tag"},
      {"<a></ a>", "parse-error: expected tag name at offset 5"},
      {"< a/>", "parse-error: expected tag name at offset 1"},
  };
  for (const Pin& pin : refused) {
    SCOPED_TRACE(pin.text);
    EXPECT_EQ(Events(pin.text), pin.want);
    Alphabet tags;
    EXPECT_EQ(ParseXml(pin.text, &tags).status().ToString(), pin.want);
    EXPECT_EQ(StreamingValidateXml(pin.text, *plan.engine.table(), plan.enc,
                                   plan.tags)
                  .status()
                  .ToString(),
              pin.want);
  }
}

// A 100,000-deep chain that the DTD rejects at its innermost element: the
// stream and the tree route both name node 0 without recursing.
TEST(XmlReaderPins, DeepRejectedDocumentIsDiagnosedIteratively) {
  constexpr size_t kDepth = 100000;
  std::string doc;
  for (size_t i = 0; i + 1 < kDepth; ++i) doc += "<a>";
  doc += "<a/>";
  for (size_t i = 0; i + 1 < kDepth; ++i) doc += "</a>";
  auto dtd = std::make_shared<const SpecializedDtd>(
      std::move(ParseDtd("a := a\n")).ValueOrDie());
  const serve::ValidationPlan plan =
      std::move(serve::CompileDtdPlan(dtd)).ValueOrDie();
  ASSERT_TRUE(plan.engine.fast());
  const serve::DocVerdict v = serve::ValidateDoc(plan, doc);
  EXPECT_EQ(v.code, StatusCode::kOk);
  EXPECT_FALSE(v.valid);
  EXPECT_EQ(v.diagnostic,
            "content of element 'a' (node 0) violates its content model");
  Result<KnownXmlParse> known = ParseXmlKnown(doc, dtd->tags());
  ASSERT_TRUE(known.ok());
  EXPECT_EQ(dtd->Validate(known->tree).message(), v.diagnostic);
}

}  // namespace
}  // namespace pebbletc
