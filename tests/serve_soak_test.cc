// Fault-injected soak for the serving layer (labels: serve,
// fault-injection). Drives a ≥500-request scripted mix through ServerCore
// while a TaFaultInjector sweeps every checkpoint ordinal of the heavy
// requests. The acceptance bar (ISSUE / docs/SERVING.md):
//
//   * the injected request — and only the injected request — comes back as
//     a structured error or an honest kUnknown verdict carrying the
//     injected code;
//   * every non-injected request in the mix returns exactly its expected
//     result (the fault never leaks into neighbouring requests);
//   * zero crashes, zero leaked in-flight admission slots.
//
// Runs under ASan/UBSan in CI, so "contained" also means no UB and no
// leaked allocations on any unwound path.

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/status.h"
#include "src/dtd/dtd.h"
#include "src/pt/paper_machines.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/ta/op_context.h"
#include "src/ta/serialize.h"

namespace pebbletc::serve {
namespace {

constexpr char kRenameXslt[] = R"(
  template a { b { apply } }
  template c { d }
)";
constexpr char kInDtd[] = "a := c\nc := ()\n";
constexpr char kGoodOutDtd[] = "b := d\nd := ()\n";
constexpr char kBadOutDtd[] = "b := e\ne := ()\n";

Request MakeTypecheck(uint32_t id, const std::string& tau2) {
  Request request;
  request.header.opcode = Opcode::kTypecheck;
  request.header.request_id = id;
  request.body = TypecheckRequest{"rename", "in", tau2};
  return request;
}

Request MakeInfer(uint32_t id) {
  Request request;
  request.header.opcode = Opcode::kInferInverse;
  request.header.request_id = id;
  request.body = InferInverseRequest{"copy", "micro"};
  request.header.deadline_ms = 30000;  // inference is the slowest shape
  return request;
}

Request MakeValidate(uint32_t id, const std::string& document) {
  Request request;
  request.header.opcode = Opcode::kValidate;
  request.header.request_id = id;
  request.body = ValidateRequest{"in", document};
  return request;
}

class ServeSoakTest : public ::testing::Test {
 protected:
  ServeSoakTest() : server_(ServeOptions{}) {
    EXPECT_TRUE(server_.registry().PutXsltText("rename", kRenameXslt).ok());
    EXPECT_TRUE(server_.registry().PutDtdText("in", kInDtd).ok());
    EXPECT_TRUE(server_.registry().PutDtdText("good_out", kGoodOutDtd).ok());
    EXPECT_TRUE(server_.registry().PutDtdText("bad_out", kBadOutDtd).ok());
    // A pre-compiled identity transducer over a one-tag DTD's encoded
    // alphabet, small enough for exact inverse inference in the mix.
    EXPECT_TRUE(server_.registry().PutDtdText("micro", "m := ()\n").ok());
    SpecializedDtd dtd =
        std::move(ParseSpecializedDtd("m := ()\n")).ValueOrDie();
    EncodedAlphabet enc =
        std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
    auto artifact = std::make_shared<TransducerArtifact>();
    artifact->transducer = MakeCopyTransducer(enc.ranked);
    artifact->input_alphabet = enc.ranked;
    artifact->output_alphabet = enc.ranked;
    RegistryEntry entry;
    entry.kind = RegistryEntry::Kind::kTransducer;
    entry.transducer = std::move(artifact);
    server_.registry().Put("copy", std::move(entry));
  }

  /// Runs one clean request of each heavy kind with a never-tripping
  /// injector to learn the checkpoint ordinal space (fault-armed requests
  /// are forced serial + memo-cold, so the count is deterministic).
  uint64_t CountCheckpoints(const Request& request) {
    TaFaultInjector probe;
    probe.trip_at = ~uint64_t{0};
    server_.ArmFaultForNextRequest(&probe);
    Response response = server_.Handle(request);
    EXPECT_EQ(response.header.status, WireStatus::kOk)
        << response.header.detail;
    EXPECT_FALSE(probe.tripped);
    EXPECT_GT(probe.seen, 0u);
    return probe.seen;
  }

  ServerCore server_;
};

TEST_F(ServeSoakTest, FaultSweepAcrossScriptedMix) {
  const uint64_t typecheck_good_cp = CountCheckpoints(MakeTypecheck(1, "good_out"));
  const uint64_t typecheck_bad_cp = CountCheckpoints(MakeTypecheck(2, "bad_out"));
  const uint64_t infer_cp = CountCheckpoints(MakeInfer(3));

  // Baseline responses for exact-match comparison of non-injected requests.
  Response base_good = server_.Handle(MakeTypecheck(4, "good_out"));
  Response base_bad = server_.Handle(MakeTypecheck(5, "bad_out"));
  ASSERT_EQ(base_good.header.status, WireStatus::kOk);
  ASSERT_EQ(base_bad.header.status, WireStatus::kOk);
  ASSERT_EQ(std::get<TypecheckResponse>(base_good.body).verdict, 0);
  const auto& base_bad_body = std::get<TypecheckResponse>(base_bad.body);
  ASSERT_EQ(base_bad_body.verdict, 1);
  ASSERT_EQ(base_bad_body.counterexample_input_xml, "<a><c/></a>");

  // The injected failure codes to rotate through: two degradeable budget
  // codes, cancellation, and one hard internal fault.
  const StatusCode codes[] = {
      StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted,
      StatusCode::kCancelled,
      StatusCode::kInternal,
  };

  uint64_t requests = 0;
  uint64_t injected = 0;
  uint64_t tripped = 0;
  uint64_t degraded = 0;
  uint64_t hard = 0;
  uint64_t salvaged = 0;

  // The covering ordinal set: exhaustive when the checkpoint space is
  // small; otherwise every early ordinal (where setup/validation faults
  // live), a deterministic stride through the middle, and the final
  // ordinal. Exhaustive per-ordinal sweeps of a multi-thousand-checkpoint
  // space would take minutes under ASan without exercising any new path.
  auto covering = [](uint64_t checkpoints, uint64_t early, uint64_t strided) {
    std::vector<uint64_t> ordinals;
    if (checkpoints <= early + strided) {
      for (uint64_t o = 0; o < checkpoints; ++o) ordinals.push_back(o);
      return ordinals;
    }
    for (uint64_t o = 0; o < early; ++o) ordinals.push_back(o);
    const uint64_t stride = (checkpoints - early) / strided + 1;
    for (uint64_t o = early; o < checkpoints - 1; o += stride) {
      ordinals.push_back(o);
    }
    ordinals.push_back(checkpoints - 1);
    return ordinals;
  };

  // Sweep the covering ordinals of every heavy request shape. Between
  // fault-armed requests, interleave clean traffic and assert it is
  // byte-for-byte healthy — the fault must stay contained to the one
  // request that carried the injector.
  struct Sweep {
    uint64_t checkpoints;
    int shape;  // 0 = typecheck good, 1 = typecheck bad, 2 = infer
    // Covering-set shape: an armed run that trips at ordinal k only pays
    // ~k checkpoints, so late ordinals of an expensive shape dominate the
    // soak's runtime — inference gets fewer strided samples.
    uint64_t early;
    uint64_t strided;
  };
  const Sweep sweeps[] = {{typecheck_good_cp, 0, 64, 96},
                          {typecheck_bad_cp, 1, 64, 96},
                          {infer_cp, 2, 32, 8}};

  uint32_t id = 100;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t ordinal : covering(sweep.checkpoints, sweep.early,
                                     sweep.strided)) {
      TaFaultInjector injector;
      injector.trip_at = ordinal;
      injector.code = codes[ordinal % 4];
      server_.ArmFaultForNextRequest(&injector);

      Request request = sweep.shape == 2
                            ? MakeInfer(id)
                            : MakeTypecheck(id, sweep.shape == 0 ? "good_out"
                                                                 : "bad_out");
      Response response = server_.Handle(request);
      ++requests;
      ++injected;
      ASSERT_TRUE(injector.tripped)
          << "shape " << sweep.shape << " ordinal " << ordinal;
      ++tripped;

      if (response.header.status == WireStatus::kOk) {
        // Graceful degradation: an OK response must be an honest kUnknown
        // carrying the injected exhaustion code — never a fabricated
        // definite verdict.
        ASSERT_EQ(request.header.opcode, Opcode::kTypecheck);
        const auto& body = std::get<TypecheckResponse>(response.body);
        if (body.verdict != 2) {
          // The degraded counterexample salvage pass may still produce a
          // *sound* counterexample for the bad pair; a fabricated
          // "typechecks" is never acceptable.
          ASSERT_EQ(body.verdict, 1)
              << "ordinal " << ordinal << ": fault produced verdict "
              << int{body.verdict};
          ASSERT_EQ(sweep.shape, 1);
          ASSERT_EQ(body.counterexample_input_xml, "<a><c/></a>");
          ++salvaged;
        } else {
          ASSERT_TRUE(body.exhausted);
          ASSERT_EQ(body.exhaustion_code,
                    static_cast<uint8_t>(injector.code))
              << "ordinal " << ordinal;
          ++degraded;
        }
      } else {
        // Structured error path: the status must map the injected code.
        ASSERT_EQ(response.header.status, WireStatusOf(Status(injector.code,
                                                              "")))
            << "ordinal " << ordinal << ": " << response.header.detail;
        ASSERT_FALSE(response.header.detail.empty());
        ASSERT_EQ(response.header.request_id, id);
        ++hard;
      }

      // Failure containment: no leaked slot, and (sampled, to keep the
      // soak fast under ASan) the very next requests see a healthy server.
      ASSERT_EQ(server_.admission().in_flight(), 0u)
          << "leaked slot after ordinal " << ordinal;
      if (injected % 4 == 0) {
        Response after_good =
            server_.Handle(MakeTypecheck(id + 1, "good_out"));
        ASSERT_EQ(after_good.header.status, WireStatus::kOk)
            << after_good.header.detail;
        ASSERT_EQ(std::get<TypecheckResponse>(after_good.body).verdict, 0);
        Response after_validate =
            server_.Handle(MakeValidate(id + 2, "<a><c/></a>"));
        ASSERT_EQ(after_validate.header.status, WireStatus::kOk);
        ASSERT_TRUE(std::get<ValidateResponse>(after_validate.body).valid);
        requests += 2;
      }
      id += 3;
    }
  }

  // Pad the mix to the ≥500-request bar with clean traffic (small automata
  // have few checkpoints; the sweep above is exhaustive, not padded).
  while (requests < 500) {
    switch (requests % 4) {
      case 0: {
        Response r = server_.Handle(MakeTypecheck(id, "bad_out"));
        ASSERT_EQ(r.header.status, WireStatus::kOk);
        ASSERT_EQ(std::get<TypecheckResponse>(r.body).verdict, 1);
        break;
      }
      case 1: {
        Response r = server_.Handle(MakeValidate(id, "<a/>"));
        ASSERT_EQ(r.header.status, WireStatus::kOk);
        ASSERT_FALSE(std::get<ValidateResponse>(r.body).valid);
        break;
      }
      case 2: {
        Response r = server_.Handle(MakeValidate(id, "<a><z/></a>"));
        ASSERT_EQ(r.header.status, WireStatus::kOk);
        ASSERT_FALSE(std::get<ValidateResponse>(r.body).valid);
        break;
      }
      default: {
        Request ping;
        ping.header.opcode = Opcode::kPing;
        ping.header.request_id = id;
        ASSERT_EQ(server_.Handle(ping).header.status, WireStatus::kOk);
        break;
      }
    }
    ++requests;
    ++id;
  }

  // Global accounting: every injected fault fired, every one was visible on
  // the wire as degradation or a structured error, and no slot leaked.
  EXPECT_GE(requests, 500u);
  EXPECT_EQ(tripped, injected);
  // Every injected fault is wire-visible: an honest kUnknown, a salvaged
  // (still sound) counterexample, or a structured error.
  EXPECT_EQ(degraded + hard + salvaged, injected);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(hard, 0u);
  StatsResponse stats = server_.SnapshotStats();
  EXPECT_EQ(stats.faults_injected, injected)
      << "every tripped injector must be counted exactly once";
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.degraded_verdicts, degraded);
  EXPECT_EQ(stats.hard_errors, hard);
  // Summary for CI logs (and EXPERIMENTS.md E16).
  std::cout << "[soak] requests=" << requests << " injected=" << injected
            << " degraded=" << degraded << " salvaged=" << salvaged
            << " hard=" << hard << "\n";
}

// Fault sweep over the batch opcode: one injector armed for the whole
// batch, every checkpoint ordinal covered. Containment here is two-level —
// the fault must stay inside the one request AND inside the documents at or
// after the trip point: every verdict either matches the clean baseline or
// carries the injected code honestly (an injected kResourceExhausted at
// plan-compile time may instead degrade the whole batch to the fallback
// engine — same verdicts, fallback_docs > 0).
TEST_F(ServeSoakTest, FaultSweepAcrossBatchValidation) {
  auto make_batch = [](uint32_t id) {
    Request request;
    request.header.opcode = Opcode::kValidateBatch;
    request.header.request_id = id;
    request.body = ValidateBatchRequest{
        "in",
        {"<a><c/></a>", "<a/>", "<a><c/></a>", "<a><z/></a>", "<a/>",
         "<a><c/></a>"}};
    return request;
  };
  const uint64_t checkpoints = CountCheckpoints(make_batch(1));

  Response baseline = server_.Handle(make_batch(2));
  ASSERT_EQ(baseline.header.status, WireStatus::kOk)
      << baseline.header.detail;
  const auto base = std::get<ValidateBatchResponse>(baseline.body);
  ASSERT_EQ(base.verdicts.size(), 6u);

  const StatusCode codes[] = {
      StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted,
      StatusCode::kCancelled,
      StatusCode::kInternal,
  };

  uint64_t injected = 0;
  uint64_t hard = 0;
  uint64_t contained = 0;
  uint64_t absorbed = 0;
  uint32_t id = 100;
  for (uint64_t ordinal = 0; ordinal < checkpoints; ++ordinal) {
    TaFaultInjector injector;
    injector.trip_at = ordinal;
    injector.code = codes[ordinal % 4];
    server_.ArmFaultForNextRequest(&injector);
    Response response = server_.Handle(make_batch(id));
    ++injected;
    ASSERT_TRUE(injector.tripped) << "ordinal " << ordinal;
    const uint8_t injected_wire =
        static_cast<uint8_t>(WireStatusOf(Status(injector.code, "")));

    if (response.header.status != WireStatus::kOk) {
      // The fault aborted the whole request (plan compilation): the status
      // must map the injected code and carry a diagnostic.
      ASSERT_EQ(static_cast<uint8_t>(response.header.status), injected_wire)
          << "ordinal " << ordinal << ": " << response.header.detail;
      ASSERT_FALSE(response.header.detail.empty());
      ++hard;
    } else {
      const auto& body = std::get<ValidateBatchResponse>(response.body);
      ASSERT_EQ(body.verdicts.size(), base.verdicts.size())
          << "ordinal " << ordinal << ": a faulted batch still answers for "
          << "every document";
      bool any_injected = false;
      for (size_t k = 0; k < body.verdicts.size(); ++k) {
        const auto& v = body.verdicts[k];
        if (v.status == static_cast<uint8_t>(WireStatus::kOk)) {
          // Documents finished before the trip: verdicts match the clean
          // baseline exactly — never a fabricated answer.
          ASSERT_EQ(v.valid, base.verdicts[k].valid)
              << "ordinal " << ordinal << " doc " << k;
          ASSERT_EQ(v.diagnostic, base.verdicts[k].diagnostic)
              << "ordinal " << ordinal << " doc " << k;
        } else {
          ASSERT_EQ(v.status, injected_wire)
              << "ordinal " << ordinal << " doc " << k << ": "
              << v.diagnostic;
          ASSERT_FALSE(v.valid);
          any_injected = true;
        }
      }
      if (any_injected) {
        ++contained;
      } else {
        // Only a compile-time kResourceExhausted may vanish from the
        // verdicts — by degrading the engine to the fallback route.
        ASSERT_EQ(injector.code, StatusCode::kResourceExhausted)
            << "ordinal " << ordinal;
        ASSERT_GT(body.fallback_docs, 0u) << "ordinal " << ordinal;
        ++absorbed;
      }
    }
    ASSERT_EQ(server_.admission().in_flight(), 0u)
        << "leaked slot after ordinal " << ordinal;
    ++id;
  }

  // The server is healthy afterwards: a clean batch reproduces the baseline.
  Response after = server_.Handle(make_batch(id));
  ASSERT_EQ(after.header.status, WireStatus::kOk);
  const auto& after_body = std::get<ValidateBatchResponse>(after.body);
  ASSERT_EQ(after_body.verdicts.size(), base.verdicts.size());
  for (size_t k = 0; k < base.verdicts.size(); ++k) {
    EXPECT_EQ(after_body.verdicts[k].status, base.verdicts[k].status);
    EXPECT_EQ(after_body.verdicts[k].valid, base.verdicts[k].valid);
    EXPECT_EQ(after_body.verdicts[k].diagnostic,
              base.verdicts[k].diagnostic);
  }
  EXPECT_EQ(hard + contained + absorbed, injected);
  EXPECT_GT(contained, 0u) << "some fault must land mid-batch";
  std::cout << "[soak-batch] checkpoints=" << checkpoints
            << " injected=" << injected << " hard=" << hard
            << " contained=" << contained << " absorbed=" << absorbed
            << "\n";
}

TEST_F(ServeSoakTest, FaultArmedRequestsAreMemoColdAndDeterministic) {
  // Checkpoint ordinals must be stable across repeated armed runs (the op
  // cache is bypassed automatically when an injector is installed), or the
  // sweep above would be meaningless.
  const uint64_t first = CountCheckpoints(MakeTypecheck(1, "good_out"));
  const uint64_t second = CountCheckpoints(MakeTypecheck(2, "good_out"));
  const uint64_t third = CountCheckpoints(MakeTypecheck(3, "good_out"));
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, third);
}

TEST_F(ServeSoakTest, InjectedInternalFaultDoesNotPoisonTheRegistry) {
  TaFaultInjector injector;
  injector.trip_at = 0;
  injector.code = StatusCode::kInternal;
  server_.ArmFaultForNextRequest(&injector);
  Response faulted = server_.Handle(MakeTypecheck(1, "good_out"));
  EXPECT_TRUE(injector.tripped);
  EXPECT_NE(faulted.header.status, WireStatus::kOk);

  // Registry snapshots taken by the faulted request must not have been
  // corrupted: everything still resolves and typechecks.
  for (int i = 0; i < 8; ++i) {
    Response clean = server_.Handle(MakeTypecheck(10 + i, "good_out"));
    ASSERT_EQ(clean.header.status, WireStatus::kOk) << clean.header.detail;
    ASSERT_EQ(std::get<TypecheckResponse>(clean.body).verdict, 0);
  }
  EXPECT_EQ(server_.admission().in_flight(), 0u);
}

}  // namespace
}  // namespace pebbletc::serve
