// The native-vs-CntrFS measurement harness behind Figures 2, 3 and 4.
//
// Methodology mirrors §5.2: run each workload once against the native
// filesystem (the ExtFs "ext4 on EBS" stand-in) and once through CntrFS
// mounted over it, then report the relative overhead — native/cntr where
// higher metric values are better (throughput), cntr/native where lower is
// better (elapsed time).
#ifndef CNTR_SRC_WORKLOADS_HARNESS_H_
#define CNTR_SRC_WORKLOADS_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_fs.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/workloads/workload.h"

namespace cntr::workloads {

struct HarnessOptions {
  fuse::FuseMountOptions fuse = fuse::FuseMountOptions::Optimized();
  int server_threads = 4;

  // Kernel tuning for the benchmark machine (scaled m4.xlarge + EBS GP2).
  static kernel::Kernel::Config BenchKernelConfig();
};

// One measurement side: its own kernel, its own processes, and — for the
// CntrFS side — a passthrough server served by a pool of its own, with the
// FUSE mount.
class BenchSide {
 public:
  static StatusOr<std::unique_ptr<BenchSide>> MakeNative(const HarnessOptions& opts);
  static StatusOr<std::unique_ptr<BenchSide>> MakeCntrFs(const HarnessOptions& opts);
  ~BenchSide();

  BenchSide(const BenchSide&) = delete;
  BenchSide& operator=(const BenchSide&) = delete;

  // Setup (untimed) + Run (timed by the workload itself).
  StatusOr<WorkloadResult> Run(Workload& workload);

  kernel::Kernel& kernel() { return *kernel_; }
  core::CntrFsServer* cntrfs() { return cntrfs_.get(); }
  fuse::FuseFs* fuse_fs() { return fuse_fs_.get(); }  // null on the native side

 private:
  BenchSide() = default;

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr bench_proc_;
  std::string workdir_;
  // CntrFS-side stack.
  kernel::ProcessPtr server_proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<fuse::FuseServerPool> pool_;
  std::shared_ptr<fuse::FuseFs> fuse_fs_;
};

struct ComparisonRow {
  std::string name;
  WorkloadResult native;
  WorkloadResult cntr;
  double overhead = 0.0;        // measured relative overhead
  double paper_overhead = 0.0;  // Figure 2 value
};

// Runs `workload` on both sides and computes the overhead ratio.
StatusOr<ComparisonRow> CompareWorkload(Workload& workload, double paper_overhead,
                                        const HarnessOptions& opts);

// Formats rows as the Figure 2-style table (one line per benchmark).
std::string FormatComparisonTable(const std::vector<ComparisonRow>& rows,
                                  const std::string& title);

}  // namespace cntr::workloads

#endif  // CNTR_SRC_WORKLOADS_HARNESS_H_
