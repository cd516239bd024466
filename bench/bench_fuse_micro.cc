// Op-level microbenchmarks of the FUSE path (google-benchmark, manual time
// from the virtual clock): per-op request latency through CntrFS vs the
// native filesystem. Supporting data for Figure 2's per-workload analysis,
// plus the READDIRPLUS before/after bars for the cold-tree-walk hot path.
// One case, BM_InodeTeardown_ResidentCache, is timed in host time instead.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/kernel/page_cache.h"
#include "src/obs/metrics.h"
#include "src/workloads/harness.h"

using namespace cntr;
using namespace cntr::workloads;

namespace {

// Measures virtual ns per op of `fn` on a fresh side.
template <typename Fn>
void RunOpBench(benchmark::State& state, bool through_cntr, Fn&& op) {
  HarnessOptions opts;
  auto side = through_cntr ? BenchSide::MakeCntrFs(opts) : BenchSide::MakeNative(opts);
  if (!side.ok()) {
    state.SkipWithError("side setup failed");
    return;
  }
  kernel::Kernel& kernel = (*side)->kernel();
  // Setup: one directory with files to operate on.
  auto proc = kernel.Fork(*kernel.init(), "micro");
  std::string dir = through_cntr ? "/cntrmnt/data/bench" : "/data/bench";
  int i = 0;
  for (auto _ : state) {
    uint64_t before = kernel.clock().NowNs();
    op(kernel, *proc, dir, i++);
    uint64_t elapsed = kernel.clock().NowNs() - before;
    state.SetIterationTime(static_cast<double>(elapsed) * 1e-9);
  }
}

void CreateUnlinkOp(kernel::Kernel& kernel, kernel::Process& proc, const std::string& dir,
                    int i) {
  std::string path = dir + "/micro-" + std::to_string(i);
  auto fd = kernel.Open(proc, path, kernel::kOWrOnly | kernel::kOCreat, 0644);
  if (fd.ok()) {
    (void)kernel.Close(proc, fd.value());
    (void)kernel.Unlink(proc, path);
  }
}

void StatColdOp(kernel::Kernel& kernel, kernel::Process& proc, const std::string& dir, int i) {
  static bool created = false;
  std::string path = dir + "/stat-target";
  if (!created) {
    auto fd = kernel.Open(proc, path, kernel::kOWrOnly | kernel::kOCreat, 0644);
    if (fd.ok()) {
      (void)kernel.Close(proc, fd.value());
    }
    created = true;
  }
  kernel.dcache().Clear();  // force the lookup every iteration
  (void)kernel.Stat(proc, path);
}

// 4KB pwrite against one long-lived fd. The fd is opened once per run and
// closed at the end; a failed open skips the benchmark instead of silently
// timing a no-op against fd -1.
void RunWrite4kBench(benchmark::State& state, bool through_cntr) {
  HarnessOptions opts;
  auto side = through_cntr ? BenchSide::MakeCntrFs(opts) : BenchSide::MakeNative(opts);
  if (!side.ok()) {
    state.SkipWithError("side setup failed");
    return;
  }
  kernel::Kernel& kernel = (*side)->kernel();
  auto proc = kernel.Fork(*kernel.init(), "micro");
  std::string dir = through_cntr ? "/cntrmnt/data/bench" : "/data/bench";
  auto opened = kernel.Open(*proc, dir + "/write-target", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  if (!opened.ok()) {
    state.SkipWithError(("open failed: " + opened.status().ToString()).c_str());
    return;
  }
  kernel::Fd fd = opened.value();
  char buf[4096] = {};
  int i = 0;
  for (auto _ : state) {
    uint64_t before = kernel.clock().NowNs();
    (void)kernel.Pwrite(*proc, fd, buf, sizeof(buf), static_cast<uint64_t>(i++ % 1024) * 4096);
    uint64_t elapsed = kernel.clock().NowNs() - before;
    state.SetIterationTime(static_cast<double>(elapsed) * 1e-9);
  }
  (void)kernel.Close(*proc, fd);
}

// Cold readdir + stat-every-child of a K-entry directory: the metadata walk
// behind compilebench-read (13.3x) and postmark (7.1x). With READDIRPLUS the
// listing and all child attributes arrive in ⌈K/batch⌉ requests; without it
// every child pays its own LOOKUP round trip.
constexpr int kWalkFiles = 256;

void RunColdWalkBench(benchmark::State& state, bool through_cntr, bool readdirplus) {
  HarnessOptions opts;
  opts.fuse.readdirplus = readdirplus;
  auto side = through_cntr ? BenchSide::MakeCntrFs(opts) : BenchSide::MakeNative(opts);
  if (!side.ok()) {
    state.SkipWithError("side setup failed");
    return;
  }
  kernel::Kernel& kernel = (*side)->kernel();
  auto proc = kernel.Fork(*kernel.init(), "micro");
  std::string dir = (through_cntr ? std::string("/cntrmnt") : std::string("")) +
                    "/data/bench/walk";
  if (!kernel.Mkdir(*proc, dir, 0755).ok()) {
    state.SkipWithError("mkdir failed");
    return;
  }
  for (int i = 0; i < kWalkFiles; ++i) {
    auto fd = kernel.Open(*proc, dir + "/f" + std::to_string(i),
                          kernel::kOWrOnly | kernel::kOCreat, 0644);
    if (!fd.ok()) {
      state.SkipWithError("file setup failed");
      return;
    }
    (void)kernel.Close(*proc, fd.value());
  }
  for (auto _ : state) {
    kernel.dcache().Clear();  // cold tree: every dentry is gone
    uint64_t before = kernel.clock().NowNs();
    auto dfd = kernel.Open(*proc, dir, kernel::kORdOnly | kernel::kODirectory);
    if (!dfd.ok()) {
      state.SkipWithError("opendir failed");
      return;
    }
    auto entries = kernel.Getdents(*proc, dfd.value());
    (void)kernel.Close(*proc, dfd.value());
    if (!entries.ok()) {
      state.SkipWithError("getdents failed");
      return;
    }
    for (const auto& entry : entries.value()) {
      if (entry.name == "." || entry.name == "..") {
        continue;
      }
      (void)kernel.Stat(*proc, dir + "/" + entry.name);
    }
    uint64_t elapsed = kernel.clock().NowNs() - before;
    state.SetIterationTime(static_cast<double>(elapsed) * 1e-9);
  }
  state.counters["files"] = kWalkFiles;
}

// Inode teardown next to a large resident cache: a dentry drop frees
// inodes whose few pages sit among many other files' pages, and each freed
// inode drops its pages (PageCachePool::DropAll). No virtual charge covers
// that work, so unlike the cases above this one is timed in real (host)
// time, not from the virtual clock: it measures the simulator's own cost.
constexpr uint64_t kResidentPages = 24 * 1024;

void BM_InodeTeardown_ResidentCache(benchmark::State& state) {
  SimClock clock;
  CostModel costs;
  obs::MetricsRegistry metrics;
  kernel::PageCachePool pool(&clock, &costs, metrics,
                             (kResidentPages + 1024) * kernel::kPageSize);
  char page[kernel::kPageSize] = {};
  char resident_file = 0;
  for (uint64_t idx = 0; idx < kResidentPages; ++idx) {
    pool.StorePage(&resident_file, idx, page, /*dirty=*/false);
  }
  // Cache owners are opaque keys, never dereferenced. Each iteration's
  // owner is dropped before the next one starts, so cycling through a
  // fixed set of addresses is the same as a fresh inode every time.
  std::vector<char> inodes(4096);
  size_t next = 0;
  for (auto _ : state) {
    kernel::CacheOwner inode = &inodes[next++ % inodes.size()];
    for (uint64_t idx = 0; idx < 4; ++idx) {
      pool.StorePage(inode, idx, page, /*dirty=*/false);
    }
    benchmark::DoNotOptimize(pool.DropAll(inode));
  }
  state.counters["resident_pages"] = static_cast<double>(kResidentPages);
}

void BM_CreateUnlink_Native(benchmark::State& state) {
  RunOpBench(state, false, CreateUnlinkOp);
}
void BM_CreateUnlink_CntrFs(benchmark::State& state) {
  RunOpBench(state, true, CreateUnlinkOp);
}
void BM_StatCold_Native(benchmark::State& state) { RunOpBench(state, false, StatColdOp); }
void BM_StatCold_CntrFs(benchmark::State& state) { RunOpBench(state, true, StatColdOp); }
void BM_Write4k_Native(benchmark::State& state) { RunWrite4kBench(state, false); }
void BM_Write4k_CntrFs(benchmark::State& state) { RunWrite4kBench(state, true); }
void BM_ColdTreeWalk_Native(benchmark::State& state) {
  RunColdWalkBench(state, false, /*readdirplus=*/false);
}
void BM_ColdTreeWalk_CntrFs(benchmark::State& state) {
  RunColdWalkBench(state, true, /*readdirplus=*/true);
}
void BM_ColdTreeWalk_CntrFsNoReaddirPlus(benchmark::State& state) {
  RunColdWalkBench(state, true, /*readdirplus=*/false);
}

}  // namespace

BENCHMARK(BM_CreateUnlink_Native)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_CreateUnlink_CntrFs)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_StatCold_Native)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_StatCold_CntrFs)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_Write4k_Native)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_Write4k_CntrFs)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_ColdTreeWalk_Native)->UseManualTime()->Iterations(50);
BENCHMARK(BM_ColdTreeWalk_CntrFs)->UseManualTime()->Iterations(50);
BENCHMARK(BM_ColdTreeWalk_CntrFsNoReaddirPlus)->UseManualTime()->Iterations(50);
BENCHMARK(BM_InodeTeardown_ResidentCache)->UseRealTime()->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
