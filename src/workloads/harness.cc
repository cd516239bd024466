#include "src/workloads/harness.h"

#include <cerrno>
#include <cstdio>

#include "src/fuse/fuse_mount.h"
#include "src/util/strings.h"

namespace cntr::workloads {

kernel::Kernel::Config HarnessOptions::BenchKernelConfig() {
  kernel::Kernel::Config config;
  // Scaled testbed: the paper's 16GB machine becomes a 96MB page cache so
  // the IOzone capacity crossover reproduces with MB-scale files.
  config.page_cache_capacity = 96ull << 20;
  config.ext_dirty_threshold = 8ull << 20;  // vm.dirty_bytes analogue
  // EBS GP2 with its volume cache: short barriers, ~90us ops.
  config.costs.disk_flush_ns = 150'000;
  return config;
}

StatusOr<std::unique_ptr<BenchSide>> BenchSide::MakeNative(const HarnessOptions& /*opts*/) {
  auto side = std::unique_ptr<BenchSide>(new BenchSide());
  side->kernel_ = kernel::Kernel::Create(HarnessOptions::BenchKernelConfig());
  side->bench_proc_ = side->kernel_->Fork(*side->kernel_->init(), "bench");
  side->workdir_ = "/data/bench";
  CNTR_RETURN_IF_ERROR(side->kernel_->Mkdir(*side->bench_proc_, side->workdir_, 0755));
  return side;
}

StatusOr<std::unique_ptr<BenchSide>> BenchSide::MakeCntrFs(const HarnessOptions& opts) {
  auto side = std::unique_ptr<BenchSide>(new BenchSide());
  side->kernel_ = kernel::Kernel::Create(HarnessOptions::BenchKernelConfig());
  kernel::Kernel* kernel = side->kernel_.get();
  fuse::RegisterFuseDevice(kernel);

  // The server gets its own (cloned) namespace so the FUSE mount below is
  // not visible to it — it serves the plain host view.
  side->server_proc_ = kernel->Fork(*kernel->init(), "cntrfs");
  CNTR_RETURN_IF_ERROR(kernel->Unshare(*side->server_proc_, kernel::kCloneNewNs));
  CNTR_ASSIGN_OR_RETURN(side->cntrfs_,
                        core::CntrFsServer::Create(kernel, side->server_proc_, "/"));

  CNTR_ASSIGN_OR_RETURN(auto fuse_dev, fuse::OpenFuseDevice(kernel, *kernel->init(), opts.fuse,
                                                            opts.server_threads));
  side->pool_ = std::make_unique<fuse::FuseServerPool>(
      fuse::FuseServerPoolOptions::Dedicated(opts.server_threads, &kernel->metrics()));
  side->pool_->AddMount(fuse_dev.second, side->cntrfs_.get());

  CNTR_RETURN_IF_ERROR(kernel->Mkdir(*kernel->init(), "/cntrmnt", 0755));
  CNTR_ASSIGN_OR_RETURN(side->fuse_fs_, fuse::MountFuse(kernel, *kernel->init(), "/cntrmnt",
                                                        fuse_dev.second, opts.fuse));

  side->bench_proc_ = kernel->Fork(*kernel->init(), "bench");
  side->workdir_ = "/cntrmnt/data/bench";
  CNTR_RETURN_IF_ERROR(kernel->Mkdir(*side->bench_proc_, side->workdir_, 0755));
  return side;
}

BenchSide::~BenchSide() {
  if (fuse_fs_ != nullptr) {
    fuse_fs_->Shutdown();
  }
  pool_.reset();
}

StatusOr<WorkloadResult> BenchSide::Run(Workload& workload) {
  WorkloadEnv env(kernel_.get(), bench_proc_, workdir_);
  CNTR_RETURN_IF_ERROR(workload.Setup(env));
  return workload.Run(env);
}

StatusOr<ComparisonRow> CompareWorkload(Workload& workload, double paper_overhead,
                                        const HarnessOptions& opts) {
  ComparisonRow row;
  row.name = workload.Name();
  row.paper_overhead = paper_overhead;
  {
    CNTR_ASSIGN_OR_RETURN(auto native, BenchSide::MakeNative(opts));
    CNTR_ASSIGN_OR_RETURN(row.native, native->Run(workload));
  }
  {
    CNTR_ASSIGN_OR_RETURN(auto cntr, BenchSide::MakeCntrFs(opts));
    CNTR_ASSIGN_OR_RETURN(row.cntr, cntr->Run(workload));
  }
  // Paper methodology: native/cntr where higher is better, cntr/native
  // otherwise — both reduce to time_cntr / time_native for identical work.
  if (row.native.higher_is_better) {
    row.overhead = row.cntr.value > 0 ? row.native.value / row.cntr.value : 0.0;
  } else {
    row.overhead = row.native.value > 0 ? row.cntr.value / row.native.value : 0.0;
  }
  return row;
}

std::string FormatComparisonTable(const std::vector<ComparisonRow>& rows,
                                  const std::string& title) {
  std::string out;
  char line[256];
  out += title + "\n";
  std::snprintf(line, sizeof(line), "%-26s %14s %14s %10s %10s\n", "Benchmark", "native",
                "cntrfs", "measured", "paper");
  out += line;
  out += std::string(78, '-') + "\n";
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-26s %10.1f %-3s %10.1f %-3s %9.1fx %9.1fx\n",
                  row.name.c_str(), row.native.value, row.native.unit.c_str(), row.cntr.value,
                  row.cntr.unit.c_str(), row.overhead, row.paper_overhead);
    out += line;
  }
  return out;
}

}  // namespace cntr::workloads
