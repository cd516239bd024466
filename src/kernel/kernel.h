// The syscall facade of the simulated kernel.
//
// Everything above this layer — the container runtime, CNTR itself, the
// workload generators — talks to the kernel exclusively through these
// methods, each taking the calling Process explicitly (what Linux gets
// implicitly from `current`). The facade performs path resolution across
// mount namespaces, permission and LSM checks, dentry caching, fd table
// bookkeeping, and cost accounting; filesystems only see clean VFS calls.
#ifndef CNTR_SRC_KERNEL_KERNEL_H_
#define CNTR_SRC_KERNEL_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/kernel/dcache.h"
#include "src/kernel/disk.h"
#include "src/kernel/epoll.h"
#include "src/kernel/filesystem.h"
#include "src/kernel/memfs.h"
#include "src/kernel/mount.h"
#include "src/kernel/namespaces.h"
#include "src/kernel/page_cache.h"
#include "src/kernel/pipe.h"
#include "src/kernel/poll_hub.h"
#include "src/kernel/process.h"
#include "src/fault/fault.h"
#include "src/kernel/types.h"
#include "src/kernel/unix_socket.h"
#include "src/obs/metrics.h"
#include "src/splice/splice.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

// Opens a device-specific file for a character device (e.g. /dev/fuse).
using CharDeviceOpenFn = std::function<StatusOr<FilePtr>(Process& proc, int flags)>;

// fanotify-style access listener; the docker-slim analogue subscribes to
// record which files a containerized application actually touches.
class AccessListener {
 public:
  virtual ~AccessListener() = default;
  virtual void OnAccess(const Process& proc, const std::string& path, const InodeAttr& attr) = 0;
};

class Kernel {
 public:
  struct Config {
    CostModel costs;
    // Paper testbed: 16 GB RAM; the page cache gets most of it.
    uint64_t page_cache_capacity = 12ull << 30;
    uint64_t disk_capacity = 100ull << 30;  // 100 GB EBS volume
    uint64_t ext_dirty_threshold = 16ull << 20;
    std::string hostname = "host";
  };

  static std::unique_ptr<Kernel> Create(Config config);
  static std::unique_ptr<Kernel> Create() { return Create(Config{}); }
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- subsystems ---
  SimClock& clock() { return clock_; }
  const CostModel& costs() const { return config_.costs; }
  // Deterministic fault injection: every layer of the stack probes this
  // registry at its named injection points (see docs/robustness.md).
  fault::FaultRegistry& faults() { return faults_; }
  PageCachePool& page_cache() { return *page_cache_; }
  DiskModel& disk() { return *disk_; }
  ProcessTable& procs() { return procs_; }
  PollHub& poll_hub() { return poll_hub_; }
  DentryCache& dcache() { return *dcache_; }
  splice::SpliceEngine& splice_engine() { return *splice_engine_; }
  // The kernel-wide metrics registry: every subsystem registers its
  // instruments here, procfs renders it at /proc/cntr/metrics, and benches
  // snapshot it into --json output (see docs/observability.md).
  obs::MetricsRegistry& metrics() { return metrics_; }
  std::shared_ptr<CgroupNode> cgroup_root() { return cgroup_root_; }

  // init (pid 1): root tmpfs with /proc, /dev (null, zero, fuse), /tmp,
  // /data (the ExtFs disk filesystem), standard namespaces, root creds.
  ProcessPtr init() { return init_; }
  std::shared_ptr<MemFs> root_fs() { return root_fs_; }
  std::shared_ptr<MemFs> data_fs() { return data_fs_; }

  // Allocates a device id for a new filesystem.
  Dev AllocDevId() { return next_dev_id_++; }
  uint64_t NowNs() const { return clock_.NowNs(); }

  // Linux's `current`, reduced to what the VFS needs: the pid of the
  // process whose syscall is executing on this thread (0 when none). Every
  // facade entry point installs it; FUSE reads it to stamp the caller pid
  // into fuse_in_header so the transport can route requests per process
  // (sticky multi-queue channels, see src/fuse/fuse_conn.h).
  static Pid CurrentPid();

  // RAII installed at syscall entry; nests (an inner syscall made on behalf
  // of another process, e.g. the CNTRFS server resolving as itself inside a
  // handler, shadows and restores the outer caller).
  class CurrentScope {
   public:
    explicit CurrentScope(const Process& proc);
    ~CurrentScope();
    CurrentScope(const CurrentScope&) = delete;
    CurrentScope& operator=(const CurrentScope&) = delete;

   private:
    Pid prev_;
  };

  // ------------------------------------------------------------------
  // Process lifecycle
  // ------------------------------------------------------------------
  ProcessPtr Fork(Process& parent, const std::string& comm);
  void Exit(Process& proc);
  Status Unshare(Process& proc, uint64_t clone_flags);
  // setns via an open /proc/<pid>/ns/<type> fd.
  Status SetNs(Process& proc, Fd ns_fd);
  // Direct variant used where the fd indirection adds nothing.
  Status SetNsDirect(Process& proc, const std::shared_ptr<NamespaceBase>& ns);
  Status JoinCgroup(Process& proc, const std::shared_ptr<CgroupNode>& cgroup);

  // ------------------------------------------------------------------
  // Path resolution
  // ------------------------------------------------------------------
  struct ResolveOpts {
    bool follow_final_symlink = true;
    bool check_lsm = true;
  };
  StatusOr<VfsPath> Resolve(Process& proc, std::string_view path, ResolveOpts opts);
  StatusOr<VfsPath> Resolve(Process& proc, std::string_view path) {
    return Resolve(proc, path, ResolveOpts{});
  }
  // Resolves one child component from `dir` in proc's mount namespace,
  // crossing mountpoints, with exec-permission checks and dcache use.
  // This is the openat()-shaped primitive CntrFS passthrough builds on.
  StatusOr<VfsPath> LookupChild(Process& proc, const VfsPath& dir, const std::string& name) {
    return StepInto(proc, dir, name);
  }
  // Resolves the parent directory of `path`; returns (parent, final name).
  StatusOr<std::pair<VfsPath, std::string>> ResolveParent(Process& proc, std::string_view path);

  // ------------------------------------------------------------------
  // Files
  // ------------------------------------------------------------------
  StatusOr<Fd> Open(Process& proc, const std::string& path, int flags, Mode mode = 0644);
  Status Close(Process& proc, Fd fd);
  StatusOr<Fd> Dup(Process& proc, Fd fd);
  StatusOr<size_t> Read(Process& proc, Fd fd, void* buf, size_t count);
  StatusOr<size_t> Write(Process& proc, Fd fd, const void* buf, size_t count);
  StatusOr<size_t> Pread(Process& proc, Fd fd, void* buf, size_t count, uint64_t offset);
  StatusOr<size_t> Pwrite(Process& proc, Fd fd, const void* buf, size_t count, uint64_t offset);
  StatusOr<uint64_t> Lseek(Process& proc, Fd fd, int64_t offset, int whence);
  Status Fsync(Process& proc, Fd fd, bool datasync = false);
  Status Ftruncate(Process& proc, Fd fd, uint64_t size);
  StatusOr<InodeAttr> Fstat(Process& proc, Fd fd);
  StatusOr<std::vector<DirEntry>> Getdents(Process& proc, Fd fd);
  StatusOr<FilePtr> GetFile(Process& proc, Fd fd);
  StatusOr<Fd> InstallFile(Process& proc, FilePtr file, bool cloexec = false);

  // ------------------------------------------------------------------
  // Metadata
  // ------------------------------------------------------------------
  StatusOr<InodeAttr> Stat(Process& proc, const std::string& path);
  StatusOr<InodeAttr> Lstat(Process& proc, const std::string& path);
  Status Access(Process& proc, const std::string& path, int mask);
  Status Mkdir(Process& proc, const std::string& path, Mode mode = 0755);
  Status Rmdir(Process& proc, const std::string& path);
  Status Unlink(Process& proc, const std::string& path);
  Status Rename(Process& proc, const std::string& from, const std::string& to,
                uint32_t flags = 0);
  Status Link(Process& proc, const std::string& target, const std::string& link_path);
  Status Symlink(Process& proc, const std::string& target, const std::string& link_path);
  StatusOr<std::string> Readlink(Process& proc, const std::string& path);
  Status Mknod(Process& proc, const std::string& path, Mode mode, Dev rdev);
  Status Chmod(Process& proc, const std::string& path, Mode mode);
  Status Chown(Process& proc, const std::string& path, Uid uid, Gid gid);
  Status Truncate(Process& proc, const std::string& path, uint64_t size);
  Status Utimens(Process& proc, const std::string& path, Timespec atime, Timespec mtime);
  StatusOr<StatFs> Statfs(Process& proc, const std::string& path);
  StatusOr<uint64_t> NameToHandle(Process& proc, const std::string& path);

  // --- xattrs ---
  Status SetXattr(Process& proc, const std::string& path, const std::string& name,
                  const std::string& value, int flags = 0);
  StatusOr<std::string> GetXattr(Process& proc, const std::string& path, const std::string& name);
  StatusOr<std::vector<std::string>> ListXattr(Process& proc, const std::string& path);
  Status RemoveXattr(Process& proc, const std::string& path, const std::string& name);

  // ------------------------------------------------------------------
  // Mounts
  // ------------------------------------------------------------------
  Status MountFs(Process& proc, std::shared_ptr<FileSystem> fs, const std::string& target,
                 uint64_t flags = 0);
  Status BindMount(Process& proc, const std::string& src, const std::string& target,
                   bool recursive = false);
  Status MoveMount(Process& proc, const std::string& src, const std::string& target);
  Status Umount(Process& proc, const std::string& target);
  Status MakeAllPrivate(Process& proc);
  Status Chdir(Process& proc, const std::string& path);
  Status Chroot(Process& proc, const std::string& path);
  Status PivotIntoTmp(Process& proc, const std::string& tmp_dir);
  // pivot_root-style: replaces the process's mount namespace with a fresh
  // one rooted at `fs` (the container runtime uses this so that joining the
  // namespace later lands in the container root, like Docker's pivot_root).
  Status PivotToFs(Process& proc, std::shared_ptr<FileSystem> fs);

  // ------------------------------------------------------------------
  // Pipes, sockets, epoll, splice
  // ------------------------------------------------------------------
  StatusOr<std::pair<Fd, Fd>> Pipe(Process& proc);  // (read_end, write_end)
  StatusOr<Fd> SocketListen(Process& proc, const std::string& path, int backlog = 64);
  StatusOr<Fd> SocketListenAbstract(Process& proc, const std::string& name, int backlog = 64);
  StatusOr<Fd> SocketConnect(Process& proc, const std::string& path);
  StatusOr<Fd> SocketConnectAbstract(Process& proc, const std::string& name);
  StatusOr<Fd> SocketAccept(Process& proc, Fd listen_fd, bool nonblock = false);
  StatusOr<std::pair<Fd, Fd>> SocketPair(Process& proc);
  // shutdown(2) on a connected stream socket: kShutRd / kShutWr / kShutRdWr.
  Status SocketShutdown(Process& proc, Fd fd, int how);
  StatusOr<Fd> EpollCreate(Process& proc);
  Status EpollCtl(Process& proc, Fd epfd, int op, Fd fd, uint32_t events, uint64_t data);
  StatusOr<std::vector<EpollEvent>> EpollWait(Process& proc, Fd epfd, int max_events,
                                              int timeout_ms);
  // splice(2): at least one side must be a pipe; moves up to `len` bytes
  // without a userspace copy. Pipe and connected-socket endpoints resolve
  // to segment rings, so pipe<->pipe, socket<->pipe and socket<->socket all
  // move PipeSegment references — no intermediate byte copy. File-backed
  // ends keep the byte path through the page cache.
  StatusOr<size_t> Splice(Process& proc, Fd fd_in, Fd fd_out, size_t len);
  // vmsplice(2): maps `len` bytes of user memory into the pipe. `gift`
  // models SPLICE_F_GIFT (pages move instead of copying).
  StatusOr<size_t> Vmsplice(Process& proc, Fd fd, const void* buf, size_t len, bool gift = false);
  // tee(2): duplicates up to `len` bytes between two pipes without
  // consuming the source.
  StatusOr<size_t> Tee(Process& proc, Fd fd_in, Fd fd_out, size_t len);
  // fcntl(F_SETPIPE_SZ / F_GETPIPE_SZ): resizes / reads a pipe's ring
  // capacity. Accepts either end of the pipe; returns the resulting size.
  StatusOr<size_t> SetPipeSize(Process& proc, Fd fd, size_t bytes);
  StatusOr<size_t> GetPipeSize(Process& proc, Fd fd);

  // ------------------------------------------------------------------
  // Devices & hooks
  // ------------------------------------------------------------------
  void RegisterCharDevice(Dev rdev, CharDeviceOpenFn open_fn);
  void SetAccessListener(AccessListener* listener) { access_listener_ = listener; }

  // Runs `hook` at the top of every Exit(), before the fd table closes —
  // the FUSE layer uses this to deliver INTERRUPT for a dying process's
  // in-flight requests (a killed client must unblock, not hang the mount).
  void AddExitHook(std::function<void(const Process&)> hook);

  // Resolves a namespace file (as opened from /proc/<pid>/ns/*).
  StatusOr<std::shared_ptr<NamespaceBase>> NamespaceOfFd(Process& proc, Fd fd);

 private:
  explicit Kernel(Config config);
  void Boot();

  // Resolution engine shared by Resolve/ResolveParent.
  StatusOr<VfsPath> WalkPath(Process& proc, std::string_view path, bool follow_final,
                             bool want_parent, std::string* final_name);
  // One component step including mount crossings; no symlink handling.
  StatusOr<VfsPath> StepInto(Process& proc, const VfsPath& at, const std::string& comp);
  Status CheckLsm(Process& proc, std::string_view path, bool write_access);
  StatusOr<InodeAttr> CachedGetattr(const InodePtr& inode);
  // Enforces the security.capability xattr probe that the kernel performs on
  // every write; its absence is cached only for native filesystems.
  void ChargeWriteXattrProbe(const InodePtr& inode);
  Status CheckSticky(Process& proc, const InodeAttr& dir_attr, const InodePtr& victim);

  Config config_;
  SimClock clock_;
  // Declared before the subsystems that count into it (the caches, disk,
  // splice engine and faults_ below), so it outlives every instrument
  // pointer they resolved (members destroy in reverse order).
  obs::MetricsRegistry metrics_;
  std::unique_ptr<PageCachePool> page_cache_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<DentryCache> dcache_;
  std::unique_ptr<splice::SpliceEngine> splice_engine_;
  PollHub poll_hub_;
  ProcessTable procs_;

  std::shared_ptr<MemFs> root_fs_;
  std::shared_ptr<MemFs> data_fs_;
  std::shared_ptr<CgroupNode> cgroup_root_;
  ProcessPtr init_;
  Dev next_dev_id_ = 100;

  analysis::CheckedMutex devices_mu_{"kernel.devices"};
  std::map<Dev, CharDeviceOpenFn> char_devices_;

  analysis::CheckedMutex exit_hooks_mu_{"kernel.exit_hooks"};
  std::vector<std::function<void(const Process&)>> exit_hooks_;

  fault::FaultRegistry faults_{fault::FaultRegistry::kDefaultSeed, &metrics_};

  analysis::CheckedMutex sockets_mu_{"kernel.sockets"};
  std::unordered_map<const Inode*, std::shared_ptr<ListeningSocket>> bound_sockets_;

  // Per-inode "security.capability known absent" cache (native fs only).
  analysis::CheckedMutex xattr_probe_mu_{"kernel.xattr_probe"};
  std::unordered_set<const Inode*> xattr_absent_;

  AccessListener* access_listener_ = nullptr;
};

// Device number of /dev/fuse (10:229, like Linux).
inline constexpr Dev kFuseDevRdev = (10ull << 8) | 229;

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_KERNEL_H_
