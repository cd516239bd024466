#include "src/fuse/fuse_mount.h"

#include <algorithm>
#include <cerrno>
#include <mutex>
#include <vector>
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

void RegisterFuseDevice(kernel::Kernel* kernel) {
  // Live connections, for the exit hook below: a process that dies with FUSE
  // requests in flight gets them interrupted (the kernel's
  // fuse_req_end/interrupt-on-signal behaviour), so no waiter outlives its
  // caller silently.
  auto conns = std::make_shared<analysis::CheckedMutex>("fuse.mount.conn_list");
  auto conn_list = std::make_shared<std::vector<std::weak_ptr<FuseConn>>>();
  kernel->RegisterCharDevice(
      kernel::kFuseDevRdev,
      [kernel, conns, conn_list](kernel::Process& /*proc*/, int flags) -> StatusOr<kernel::FilePtr> {
        auto conn = std::make_shared<FuseConn>(&kernel->clock(), &kernel->costs(),
                                               /*num_channels=*/1, &kernel->faults(),
                                               &kernel->metrics());
        {
          std::lock_guard<analysis::CheckedMutex> lock(*conns);
          // Compact dead entries so a long-lived kernel does not accrete one
          // weak_ptr per mount forever.
          auto& list = *conn_list;
          list.erase(std::remove_if(list.begin(), list.end(),
                                    [](const std::weak_ptr<FuseConn>& w) { return w.expired(); }),
                     list.end());
          list.push_back(conn);
        }
        return kernel::FilePtr(std::make_shared<FuseDevFile>(std::move(conn), flags));
      });
  kernel->AddExitHook([conns, conn_list](const kernel::Process& proc) {
    std::vector<std::shared_ptr<FuseConn>> live;
    {
      std::lock_guard<analysis::CheckedMutex> lock(*conns);
      for (const auto& weak : *conn_list) {
        if (auto conn = weak.lock()) {
          live.push_back(std::move(conn));
        }
      }
    }
    for (const auto& conn : live) {
      conn->InterruptPid(proc.global_pid());
    }
  });
}

StatusOr<std::pair<kernel::Fd, std::shared_ptr<FuseConn>>> OpenFuseDevice(
    kernel::Kernel* kernel, kernel::Process& proc) {
  CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, kernel->Open(proc, "/dev/fuse", kernel::kORdWr));
  CNTR_ASSIGN_OR_RETURN(kernel::FilePtr file, kernel->GetFile(proc, fd));
  auto* dev = dynamic_cast<FuseDevFile*>(file.get());
  if (dev == nullptr) {
    return Status::Error(EINVAL, "/dev/fuse did not yield a FUSE device (driver registered?)");
  }
  return std::make_pair(fd, dev->conn());
}

StatusOr<std::pair<kernel::Fd, std::shared_ptr<FuseConn>>> OpenFuseDevice(
    kernel::Kernel* kernel, kernel::Process& proc, const FuseMountOptions& opts,
    int server_threads) {
  CNTR_ASSIGN_OR_RETURN(auto dev, OpenFuseDevice(kernel, proc));
  dev.second->ConfigureChannels(opts.ChannelCount(server_threads), opts.ring_depth);
  return dev;
}

StatusOr<std::shared_ptr<FuseFs>> MountFuse(kernel::Kernel* kernel, kernel::Process& proc,
                                            const std::string& target,
                                            std::shared_ptr<FuseConn> conn,
                                            FuseMountOptions opts) {
  CNTR_ASSIGN_OR_RETURN(std::shared_ptr<FuseFs> fs, FuseFs::Create(kernel, std::move(conn), opts));
  CNTR_RETURN_IF_ERROR(kernel->MountFs(proc, fs, target));
  return fs;
}

}  // namespace cntr::fuse
