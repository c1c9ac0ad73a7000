// Tests for the benchmark's seeded generators (gen.h, bench.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "servebench/bench.h"
#include "servebench/gen.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/xml/xml.h"

namespace servebench {
namespace {

namespace wire = pebbletc::serve;
using pebbletc::Rng;

/// Serves `p` through an in-process ServerCore and checks the answer.
Verdict Serve(wire::ServerCore* core, const Planned& p) {
  return CheckResponse(p, core->HandleFrame(p.payload()));
}

TEST(GenDtdTest, GeneratedDtdsParseAndNameEveryTag) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DtdKnobs knobs;
    knobs.num_tags = 8 + seed % 17;
    GenDtd dtd = GenerateDtd(rng, rng, knobs);
    pebbletc::SpecializedDtd parsed = ParseGenDtd(dtd);
    ASSERT_EQ(parsed.tags().size(), dtd.tags.size()) << dtd.Text();
    for (const std::string& tag : dtd.tags) {
      EXPECT_GE(tag.size(), knobs.min_tag_len);
      EXPECT_LE(tag.size(), knobs.max_tag_len);
    }
  }
}

TEST(GenDocTest, ConformingDrawsAreAcceptedAndHitTheirSize) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    DtdKnobs dk;
    dk.num_tags = 13;
    GenDtd dtd = GenerateDtd(rng, rng, dk);
    pebbletc::SpecializedDtd parsed = ParseGenDtd(dtd);
    for (bool indent : {false, true}) {
      DocKnobs knobs;
      knobs.target_bytes = 20000;
      knobs.indent = indent;
      GenTree tree = GenerateTree(dtd, rng, knobs);
      const std::string xml = ToXml(tree, dtd, indent);
      EXPECT_GE(xml.size(), knobs.target_bytes);
      EXPECT_TRUE(ExpectedValid(tree, dtd, parsed)) << dtd.Text();
      // The XML says the same thing as the tree it came from.
      pebbletc::Alphabet tags = parsed.tags();
      pebbletc::Result<pebbletc::UnrankedTree> doc =
          pebbletc::ParseXml(xml, &tags);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      EXPECT_EQ(doc->size(), CountNodes(tree));
      EXPECT_TRUE(*parsed.Accepts(*doc));
    }
  }
}

TEST(GenDocTest, SameSeedGivesByteIdenticalInputs) {
  for (const char* name : {"validate_batch_small", "typecheck_mix"}) {
    WorkloadSpec spec;
    ASSERT_TRUE(FindWorkload(name, &spec));
    Workload a(spec, 7), b(spec, 7), c(spec, 8);
    ASSERT_EQ(a.pool().size(), b.pool().size());
    for (size_t i = 0; i < a.pool().size(); ++i) {
      EXPECT_EQ(a.pool()[i].frame, b.pool()[i].frame);
    }
    std::vector<Slot> sa, sb, sc;
    std::vector<Planned> ra = a.SetupRequests(&sa);
    std::vector<Planned> rb = b.SetupRequests(&sb);
    std::vector<Planned> rc = c.SetupRequests(&sc);
    ASSERT_EQ(ra.size(), rb.size());
    bool differs = false;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].frame, rb[i].frame);
      differs |= ra[i].frame != rc[i].frame;
    }
    EXPECT_TRUE(differs) << "seeds 7 and 8 gave the same set-up";
    Stream s1(&a, &sa, 0, 2), s2(&b, &sb, 0, 2);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(s1.Next().frame, s2.Next().frame);
  }
}

TEST(GenDocTest, ServedVerdictsMatchAcceptsOnValidAndMutatedDraws) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("validate_batch_small", &spec));
  Workload w(spec, 3);
  size_t invalid = 0;
  for (const Doc& d : w.pool_docs()) invalid += d.valid ? 0 : 1;
  EXPECT_GT(invalid, 0u);
  wire::ServerCore core{wire::ServeOptions{}};
  // Install the schemas the way the daemon does: from their text files.
  const std::string dir = ::testing::TempDir() + "servebench_gen_test";
  ASSERT_EQ(system(("mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(w.WriteArtifacts(dir));
  ASSERT_TRUE(core.registry().LoadDirectory(dir).ok());
  for (const Planned& p : w.pool()) {
    Verdict v = Serve(&core, p);
    EXPECT_TRUE(v.ok_status) << v.detail;
    EXPECT_FALSE(v.wrong) << v.detail;
  }
}

TEST(TcFamilyTest, EveryMemberHasItsStatedVerdict) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("typecheck_mix", &spec));
  for (uint64_t seed : {1, 2}) {
    Workload w(spec, seed);
    const std::string dir = ::testing::TempDir() + "servebench_tc_" +
                            std::to_string(seed);
    ASSERT_EQ(system(("mkdir -p " + dir).c_str()), 0);
    ASSERT_TRUE(w.WriteArtifacts(dir));
    wire::ServerCore core{wire::ServeOptions{}};
    ASSERT_TRUE(core.registry().LoadDirectory(dir).ok());
    // The set-up sequence loads every variant of every program: the exact
    // image must prove, every tightening must refute.
    std::vector<Slot> slots;
    for (const Planned& p : w.SetupRequests(&slots)) {
      Verdict v = Serve(&core, p);
      ASSERT_TRUE(v.ok_status) << v.detail;
      EXPECT_FALSE(v.wrong) << v.detail;
      if (p.cls == ReqClass::kTypecheckCold) {
        EXPECT_TRUE(v.decided) << SlotName(p.slot) << " method " << v.method
                               << "\n" << *p.out_text;
      }
      if (!v.counterexample.empty()) {
        pebbletc::Status s = CheckCounterexample(
            w.programs()[p.slot % kPrograms], *p.out_text, v.counterexample);
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace servebench
