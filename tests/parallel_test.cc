// Tests for what runs on threads (docs/PARALLEL.md): sharded diffcheck sweep
// equivalence, plus deadline and cancellation draining inside the serial
// IntersectNbta worklist, including a cancel flag flipped from another
// thread mid-flight.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/check/diffcheck.h"
#include "src/common/rng.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"

namespace pebbletc {
namespace {

// ------------------------------------- IntersectNbta interruption ---------

// A dense random pair with a rich reachable pair space.
Nbta DenseAutomaton(const RankedAlphabet& sigma, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions o;
  o.num_states = 12;
  o.rule_density = 0.7;
  o.leaf_density = 0.6;
  o.accepting_density = 0.4;
  return RandomNbta(sigma, rng, o);
}

TEST(IntersectInterruptTest, ExpiredDeadlineDrainsWorklist) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = DenseAutomaton(sigma, 0x33);
  const Nbta b = DenseAutomaton(sigma, 0x44);
  TaOpContext ctx;
  ctx.budgets.deadline = std::chrono::steady_clock::now();
  ctx.budgets.checkpoint_stride = 1;
  Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
  EXPECT_TRUE(ctx.interrupted());
  EXPECT_EQ(ctx.interrupt().code(), StatusCode::kDeadlineExceeded);
  // The partial product is structurally sound even when drained early.
  EXPECT_TRUE(product.Validate(sigma).ok());
}

TEST(IntersectInterruptTest, MidFlightCancellationDrainsWorklist) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  // Large, near-total automata: the product has tens of thousands of pair
  // scans, far more than the canceller's latency on any host.
  Rng rng_a(0xaaaa), rng_b(0xbbbb);
  RandomNbtaOptions big;
  big.num_states = 24;
  big.rule_density = 0.9;
  big.leaf_density = 0.9;
  big.accepting_density = 0.5;
  const Nbta a = RandomNbta(sigma, rng_a, big);
  const Nbta b = RandomNbta(sigma, rng_b, big);

  std::atomic<bool> cancel{false};
  TaOpContext ctx;
  ctx.budgets.cancel = &cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.store(true, std::memory_order_relaxed);
  });
  Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
  canceller.join();

  // Either the cancellation landed mid-flight (the interesting case: the
  // worklist drained with a sticky kCancelled) or the product beat the
  // canceller; both must leave a consistent context and a sound result.
  if (ctx.interrupted()) {
    EXPECT_EQ(ctx.interrupt().code(), StatusCode::kCancelled);
    // The checkpoint that observed the flag was counted; rules_scanned may
    // legitimately be zero if the flag landed before the first expansion
    // (e.g. under sanitizer slowdown).
    EXPECT_GT(ctx.counters.checkpoints, 0u);
  } else {
    EXPECT_EQ(product.num_states,
              IntersectNbta(NbtaIndex(a), NbtaIndex(b)).num_states);
    EXPECT_GT(ctx.counters.rules_scanned, 0u);
  }
  EXPECT_TRUE(product.Validate(sigma).ok());
  EXPECT_EQ(ctx.counters.intersections, 1u);
}

TEST(IntersectInterruptTest, CancelledBeforeStartProducesEmptyDrain) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = DenseAutomaton(sigma, 0x55);
  const Nbta b = DenseAutomaton(sigma, 0x66);
  std::atomic<bool> cancel{true};
  TaOpContext ctx;
  ctx.budgets.cancel = &cancel;
  Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
  EXPECT_TRUE(ctx.interrupted());
  EXPECT_EQ(ctx.interrupt().code(), StatusCode::kCancelled);
  EXPECT_TRUE(product.Validate(sigma).ok());
}

// --------------------------------------------- sharded diffcheck sweep -----

TEST(ParallelDiffcheckTest, ShardedSweepMatchesSerialSweep) {
  DiffcheckOptions opts;
  opts.seed = 0xd1ff;
  opts.iters = 24;
  opts.typecheck_every = 8;
  opts.num_threads = 1;
  const DiffcheckReport serial = RunDiffcheck(opts);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(serial.worker_ranges.empty());

  opts.num_threads = 3;
  const DiffcheckReport sharded = RunDiffcheck(opts);
  EXPECT_TRUE(sharded.ok());
  // Iterations are deterministic in (seed, iteration) alone, so the sharded
  // sweep performs exactly the serial sweep's work.
  EXPECT_EQ(sharded.iterations, serial.iterations);
  EXPECT_EQ(sharded.comparisons, serial.comparisons);
  EXPECT_EQ(sharded.budget_skips, serial.budget_skips);
  ASSERT_EQ(sharded.worker_ranges.size(), 3u);
  size_t covered = 0;
  size_t expect_start = opts.start;
  for (const auto& r : sharded.worker_ranges) {
    EXPECT_EQ(r.start, expect_start) << "ranges must be contiguous";
    expect_start += r.iters;
    covered += r.iters;
  }
  EXPECT_EQ(covered, opts.iters);
}

TEST(ParallelDiffcheckTest, ThreadCapDoesNotExceedIterations) {
  DiffcheckOptions opts;
  opts.seed = 0xd1ff;
  opts.iters = 2;
  opts.typecheck_every = 0;
  opts.demorgan_every = 0;
  opts.num_threads = 16;
  const DiffcheckReport r = RunDiffcheck(opts);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_EQ(r.worker_ranges.size(), 2u);
}

}  // namespace
}  // namespace pebbletc
