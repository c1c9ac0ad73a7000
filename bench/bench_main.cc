// Shared benchmark main: every bench_* binary reports the host's core count
// in its context block, so a BENCH_*.json produced from any harness carries
// the same `host_nproc` / `host_hardware_workers` caveat uniformly (a 1-core
// container makes thread-scaling rows measure pure overhead — see
// BENCH_parallel.json and docs/PARALLEL.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <thread>

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "host_nproc", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext(
      "host_hardware_workers",
      std::to_string(std::max(1u, std::thread::hardware_concurrency())));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
