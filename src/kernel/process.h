// Processes of the simulated kernel.
//
// Processes here are passive contexts, not threads of execution: "running a
// program as process P" means calling Kernel syscalls with P as the current
// process, possibly from a real std::thread (the CntrFS server does exactly
// that). fork() copies the context; setns()/unshare() swap namespace
// pointers — which is all CNTR needs to reproduce its attach dance.
#ifndef CNTR_SRC_KERNEL_PROCESS_H_
#define CNTR_SRC_KERNEL_PROCESS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/kernel/cred.h"
#include "src/kernel/file.h"
#include "src/kernel/mount.h"
#include "src/kernel/namespaces.h"
#include "src/kernel/types.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

class Process;
using ProcessPtr = std::shared_ptr<Process>;

// Per-process file descriptor table. dup()ed descriptors share one
// FileDescription; close-on-exec is tracked per descriptor.
class FdTable {
 public:
  explicit FdTable(uint64_t max_fds = 1024) : max_fds_(max_fds) {}

  StatusOr<Fd> Install(FilePtr file, bool cloexec);
  StatusOr<FilePtr> Get(Fd fd) const;
  StatusOr<FilePtr> Take(Fd fd);  // removes and returns (close path)
  StatusOr<Fd> Dup(Fd fd, Fd min_fd, bool cloexec);
  std::vector<Fd> AllFds() const;
  void CloseAll();
  // Copies another table's descriptors into this one (fork()).
  void CopyFrom(const FdTable& other);

 private:
  struct Entry {
    FilePtr file;
    bool cloexec = false;
  };
  mutable analysis::CheckedMutex mu_{"kernel.fdtable"};
  std::map<Fd, Entry> fds_;
  uint64_t max_fds_;
};

class Process : public std::enable_shared_from_this<Process> {
 public:
  Process(Pid global_pid, std::string comm) : global_pid_(global_pid), comm_(std::move(comm)) {}

  // --- identity ---
  Pid global_pid() const { return global_pid_; }
  // Pids per pid-namespace level, outermost first; [level of ns] = pid there.
  std::vector<Pid> ns_pids;
  // Pid as seen from a given pid namespace; 0 if invisible there.
  Pid PidInNs(const PidNamespace& ns) const;

  std::string comm() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return comm_;
  }
  void set_comm(std::string c) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    comm_ = std::move(c);
  }

  // --- credentials, limits, LSM ---
  Credentials creds;
  ResourceLimits rlimits;
  LsmProfile lsm;

  // --- environment ---
  std::map<std::string, std::string> env;

  // --- namespaces ---
  std::shared_ptr<MountNamespace> mnt_ns;
  std::shared_ptr<PidNamespace> pid_ns;
  std::shared_ptr<UserNamespace> user_ns;
  std::shared_ptr<UtsNamespace> uts_ns;
  std::shared_ptr<IpcNamespace> ipc_ns;
  std::shared_ptr<NetNamespace> net_ns;
  std::shared_ptr<CgroupNamespace> cgroup_ns;
  std::shared_ptr<CgroupNode> cgroup;

  // --- filesystem position ---
  VfsPath root;
  VfsPath cwd;

  // --- files ---
  FdTable fds;

  // --- tree ---
  Pid parent_pid = 0;
  bool exited = false;

 private:
  Pid global_pid_;
  mutable analysis::CheckedMutex mu_{"kernel.process"};
  std::string comm_;
};

// Global process table (the outermost pid namespace view).
class ProcessTable {
 public:
  ProcessPtr Create(std::string comm);
  ProcessPtr Get(Pid global_pid) const;
  void Remove(Pid global_pid);
  std::vector<ProcessPtr> All() const;

 private:
  mutable analysis::CheckedMutex mu_{"kernel.process_table"};
  std::map<Pid, ProcessPtr> procs_;
  Pid next_pid_ = 1;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_PROCESS_H_
