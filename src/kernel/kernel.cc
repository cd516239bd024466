#include "src/kernel/kernel.h"

#include <algorithm>
#include <cerrno>

#include "src/kernel/procfs.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

namespace {

// /dev/null and /dev/zero.
class NullFile : public FileDescription {
 public:
  explicit NullFile(int flags, bool zero) : FileDescription(nullptr, flags), zero_(zero) {}
  StatusOr<size_t> Read(void* buf, size_t count, uint64_t /*offset*/) override {
    if (!zero_) {
      return size_t{0};
    }
    std::memset(buf, 0, count);
    return count;
  }
  StatusOr<size_t> Write(const void* /*buf*/, size_t count, uint64_t /*offset*/) override {
    return count;
  }

 private:
  bool zero_;
};

}  // namespace

namespace {
thread_local Pid tls_current_pid = 0;
}  // namespace

Pid Kernel::CurrentPid() { return tls_current_pid; }

Kernel::CurrentScope::CurrentScope(const Process& proc) : CurrentScope(proc.global_pid()) {}

Kernel::CurrentScope::CurrentScope(Pid pid) : prev_(tls_current_pid) { tls_current_pid = pid; }

Kernel::CurrentScope::~CurrentScope() { tls_current_pid = prev_; }

std::unique_ptr<Kernel> Kernel::Create(Config config) {
  auto kernel = std::unique_ptr<Kernel>(new Kernel(std::move(config)));
  kernel->Boot();
  return kernel;
}

Kernel::Kernel(Config config) : config_(std::move(config)) {
  page_cache_ = std::make_unique<PageCachePool>(&clock_, &config_.costs, metrics_,
                                                config_.page_cache_capacity);
  disk_ = std::make_unique<DiskModel>(&clock_, &config_.costs, metrics_, config_.disk_capacity);
  dcache_ = std::make_unique<DentryCache>(&clock_, &config_.costs, metrics_);
  splice_engine_ = std::make_unique<splice::SpliceEngine>(&clock_, &config_.costs, metrics_);
}

Kernel::~Kernel() {
  // Drop cached dentries while the mounts (and thus the filesystems their
  // inodes point back into) are still alive: the member order destroys
  // processes — and with them the last filesystem references — before the
  // dcache, and a cached inode released after its filesystem would tear
  // down against a dangling fs pointer.
  dcache_->Clear();
}

void Kernel::Boot() {
  root_fs_ = MakeTmpFs(AllocDevId(), &clock_, &config_.costs);
  auto root_mount = std::make_shared<Mount>(root_fs_, root_fs_->root(), 0);

  init_ = procs_.Create("init");
  init_->ns_pids = {init_->global_pid()};
  init_->mnt_ns = std::make_shared<MountNamespace>(root_mount);
  init_->pid_ns = std::make_shared<PidNamespace>();
  init_->user_ns = std::make_shared<UserNamespace>();
  init_->uts_ns = std::make_shared<UtsNamespace>(config_.hostname);
  init_->ipc_ns = std::make_shared<IpcNamespace>();
  init_->net_ns = std::make_shared<NetNamespace>();
  cgroup_root_ = CgroupNode::MakeRoot();
  init_->cgroup_ns = std::make_shared<CgroupNamespace>(cgroup_root_);
  init_->cgroup = cgroup_root_;
  cgroup_root_->AddProc(init_->global_pid());
  init_->root = VfsPath{root_mount, root_fs_->root()};
  init_->cwd = init_->root;

  // Standard hierarchy.
  for (const char* dir : {"/proc", "/dev", "/tmp", "/data", "/etc", "/usr", "/var", "/run"}) {
    Mkdir(*init_, dir, 0755);
  }

  // Character devices.
  RegisterCharDevice((1ull << 8) | 3, [](Process&, int flags) -> StatusOr<FilePtr> {
    return FilePtr(std::make_shared<NullFile>(flags, /*zero=*/false));
  });
  RegisterCharDevice((1ull << 8) | 5, [](Process&, int flags) -> StatusOr<FilePtr> {
    return FilePtr(std::make_shared<NullFile>(flags, /*zero=*/true));
  });
  Mknod(*init_, "/dev/null", kIfChr | 0666, (1ull << 8) | 3);
  Mknod(*init_, "/dev/zero", kIfChr | 0666, (1ull << 8) | 5);
  // /dev/fuse exists from boot; its driver is registered by the FUSE layer.
  Mknod(*init_, "/dev/fuse", kIfChr | 0666, kFuseDevRdev);

  // procfs at /proc.
  MountFs(*init_, MakeProcFs(AllocDevId(), this), "/proc");

  // The disk-backed filesystem at /data.
  data_fs_ = MakeExtFs(AllocDevId(), &clock_, &config_.costs, disk_.get(), page_cache_.get(),
                       config_.ext_dirty_threshold);
  MountFs(*init_, data_fs_, "/data");
}

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

ProcessPtr Kernel::Fork(Process& parent, const std::string& comm) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  ProcessPtr child = procs_.Create(comm);
  child->creds = parent.creds;
  child->rlimits = parent.rlimits;
  child->lsm = parent.lsm;
  child->env = parent.env;
  child->mnt_ns = parent.mnt_ns;
  child->pid_ns = parent.pid_ns;
  child->user_ns = parent.user_ns;
  child->uts_ns = parent.uts_ns;
  child->ipc_ns = parent.ipc_ns;
  child->net_ns = parent.net_ns;
  child->cgroup_ns = parent.cgroup_ns;
  child->cgroup = parent.cgroup;
  child->root = parent.root;
  child->cwd = parent.cwd;
  child->fds.CopyFrom(parent.fds);
  child->parent_pid = parent.global_pid();

  // One pid per pid-namespace level. The root level reuses the global pid;
  // nested levels allocate from their namespace.
  std::vector<PidNamespace*> chain;
  for (PidNamespace* ns = child->pid_ns.get(); ns != nullptr; ns = ns->parent().get()) {
    chain.push_back(ns);
  }
  std::reverse(chain.begin(), chain.end());
  child->ns_pids.assign(chain.size(), 0);
  child->ns_pids[0] = child->global_pid();
  for (size_t level = 1; level < chain.size(); ++level) {
    child->ns_pids[level] = chain[level]->AllocPid();
  }
  if (child->cgroup != nullptr) {
    child->cgroup->AddProc(child->global_pid());
  }
  return child;
}

void Kernel::Exit(Process& proc) {
  // Exit hooks run first, while the process is still visible: the FUSE
  // layer interrupts the pid's in-flight requests before the fd table
  // teardown can cascade into connection aborts.
  std::vector<std::function<void(const Process&)>> hooks;
  {
    std::lock_guard<analysis::CheckedMutex> lock(exit_hooks_mu_);
    hooks = exit_hooks_;
  }
  for (const auto& hook : hooks) {
    hook(proc);
  }
  proc.fds.CloseAll();
  if (proc.cgroup != nullptr) {
    proc.cgroup->RemoveProc(proc.global_pid());
  }
  proc.exited = true;
  procs_.Remove(proc.global_pid());
}

Status Kernel::Unshare(Process& proc, uint64_t clone_flags) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  bool needs_admin = (clone_flags & ~kCloneNewUser) != 0;
  if (needs_admin && !proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "unshare requires CAP_SYS_ADMIN");
  }
  if (clone_flags & kCloneNewUser) {
    proc.user_ns = std::make_shared<UserNamespace>(proc.user_ns);
  }
  if (clone_flags & kCloneNewNs) {
    proc.mnt_ns = proc.mnt_ns->Clone();
    // Re-anchor root and cwd inside the cloned tree: find the clone of the
    // mounts they pointed into. The clone preserves tree shape, so matching
    // by (fs, root inode) identifies the corresponding mount.
    auto rebind = [&](VfsPath& p) {
      for (const auto& m : proc.mnt_ns->AllMounts()) {
        if (p.mount != nullptr && m->fs() == p.mount->fs() && m->root() == p.mount->root() &&
            ((m->parent() == nullptr) == (p.mount->parent() == nullptr))) {
          p.mount = m;
          return;
        }
      }
      p.mount = proc.mnt_ns->root();
      p.inode = p.mount->root();
    };
    rebind(proc.root);
    rebind(proc.cwd);
  }
  if (clone_flags & kCloneNewUts) {
    proc.uts_ns = std::make_shared<UtsNamespace>(proc.uts_ns->hostname());
  }
  if (clone_flags & kCloneNewIpc) {
    proc.ipc_ns = std::make_shared<IpcNamespace>();
  }
  if (clone_flags & kCloneNewNet) {
    proc.net_ns = std::make_shared<NetNamespace>();
  }
  if (clone_flags & kCloneNewPid) {
    // Linux defers the new pid namespace to children; the simulation applies
    // it immediately and assigns a fresh pid in the new level.
    proc.pid_ns = std::make_shared<PidNamespace>(proc.pid_ns);
    proc.ns_pids.push_back(proc.pid_ns->AllocPid());
  }
  if (clone_flags & kCloneNewCgroup) {
    proc.cgroup_ns = std::make_shared<CgroupNamespace>(proc.cgroup);
  }
  return Status::Ok();
}

Status Kernel::SetNs(Process& proc, Fd ns_fd) {
  CNTR_ASSIGN_OR_RETURN(auto ns, NamespaceOfFd(proc, ns_fd));
  return SetNsDirect(proc, ns);
}

Status Kernel::SetNsDirect(Process& proc, const std::shared_ptr<NamespaceBase>& ns) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  if (ns == nullptr) {
    return Status::Error(EINVAL);
  }
  if (!proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "setns requires CAP_SYS_ADMIN");
  }
  switch (ns->type()) {
    case NsType::kMnt: {
      // The joined namespace must share filesystem objects with ours only
      // through its own mounts; root/cwd move to its root.
      auto target = std::dynamic_pointer_cast<MountNamespace>(ns);
      if (target == nullptr) {
        return Status::Error(EINVAL);
      }
      proc.mnt_ns = target;
      proc.root = VfsPath{target->root(), target->root()->root()};
      proc.cwd = proc.root;
      return Status::Ok();
    }
    case NsType::kPid: {
      auto target = std::dynamic_pointer_cast<PidNamespace>(ns);
      if (target == nullptr) {
        return Status::Error(EINVAL);
      }
      proc.pid_ns = target;
      // Allocate pids for any levels the process does not have yet.
      std::vector<PidNamespace*> chain;
      for (PidNamespace* p = target.get(); p != nullptr; p = p->parent().get()) {
        chain.push_back(p);
      }
      std::reverse(chain.begin(), chain.end());
      while (proc.ns_pids.size() < chain.size()) {
        proc.ns_pids.push_back(chain[proc.ns_pids.size()]->AllocPid());
      }
      proc.ns_pids.resize(chain.size());
      return Status::Ok();
    }
    case NsType::kUser:
      proc.user_ns = std::dynamic_pointer_cast<UserNamespace>(ns);
      return Status::Ok();
    case NsType::kUts:
      proc.uts_ns = std::dynamic_pointer_cast<UtsNamespace>(ns);
      return Status::Ok();
    case NsType::kIpc:
      proc.ipc_ns = std::dynamic_pointer_cast<IpcNamespace>(ns);
      return Status::Ok();
    case NsType::kNet:
      proc.net_ns = std::dynamic_pointer_cast<NetNamespace>(ns);
      return Status::Ok();
    case NsType::kCgroup:
      proc.cgroup_ns = std::dynamic_pointer_cast<CgroupNamespace>(ns);
      return Status::Ok();
  }
  return Status::Error(EINVAL);
}

Status Kernel::JoinCgroup(Process& proc, const std::shared_ptr<CgroupNode>& cgroup) {
  if (cgroup == nullptr) {
    return Status::Error(EINVAL);
  }
  if (proc.cgroup != nullptr) {
    proc.cgroup->RemoveProc(proc.global_pid());
  }
  proc.cgroup = cgroup;
  cgroup->AddProc(proc.global_pid());
  return Status::Ok();
}

StatusOr<std::shared_ptr<NamespaceBase>> Kernel::NamespaceOfFd(Process& proc, Fd fd) {
  CNTR_ASSIGN_OR_RETURN(auto file, proc.fds.Get(fd));
  auto* ns_file = dynamic_cast<NsFile*>(file.get());
  if (ns_file == nullptr) {
    return Status::Error(EINVAL, "fd is not a namespace file");
  }
  return ns_file->ns();
}

// ---------------------------------------------------------------------------
// Path resolution
// ---------------------------------------------------------------------------

StatusOr<VfsPath> Kernel::Resolve(Process& proc, std::string_view path, ResolveOpts opts) {
  CurrentScope current(proc);
  if (opts.check_lsm) {
    CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/false));
  }
  return WalkPath(proc, path, opts.follow_final_symlink, /*want_parent=*/false, nullptr);
}

StatusOr<std::pair<VfsPath, std::string>> Kernel::ResolveParent(Process& proc,
                                                                std::string_view path) {
  CurrentScope current(proc);
  std::string final_name;
  CNTR_ASSIGN_OR_RETURN(VfsPath parent,
                        WalkPath(proc, path, /*follow_final=*/true, /*want_parent=*/true,
                                 &final_name));
  return std::make_pair(parent, final_name);
}

StatusOr<VfsPath> Kernel::StepInto(Process& proc, const VfsPath& at, const std::string& comp) {
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, at.inode->Getattr());
  if (!IsDir(dir_attr.mode)) {
    return Status::Error(ENOTDIR);
  }
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessExec));

  InodePtr child;
  if (auto cached = dcache_->LookupEntry(at.inode.get(), comp)) {
    if (*cached == nullptr) {
      // Cached negative dentry: the name is known absent for the entry TTL.
      return Status::Error(ENOENT);
    }
    child = std::move(*cached);
  } else {
    uint64_t ttl_ns = at.inode->fs()->DentryTtlNs();
    auto looked_up = at.inode->Lookup(comp);
    if (!looked_up.ok()) {
      // Negative dentry caching, finite-TTL (FUSE) filesystems only: native
      // entries live until invalidated, and an until-invalidated negative
      // would outlive creations that bypass this kernel's dcache hooks. For
      // CntrFS this is the win the paper's rust-fuse server could not get:
      // repeated ENOENT lookups stop round-tripping (they cost one open()
      // + stat() server-side each). Local create/rename/unlink overwrite or
      // invalidate the entry through the existing dcache maintenance.
      if (looked_up.error() == ENOENT && ttl_ns != UINT64_MAX) {
        dcache_->InsertNegative(at.inode.get(), comp, ttl_ns);
      }
      return looked_up.status();
    }
    child = std::move(looked_up).value();
    dcache_->Insert(at.inode.get(), comp, child, ttl_ns);
  }

  VfsPath next{at.mount, child};
  // Cross into mounts stacked on this inode.
  while (true) {
    MountPtr covering = proc.mnt_ns->MountAt(next.mount, next.inode);
    if (covering == nullptr) {
      break;
    }
    next = VfsPath{covering, covering->root()};
  }
  return next;
}

StatusOr<VfsPath> Kernel::WalkPath(Process& proc, std::string_view path, bool follow_final,
                                   bool want_parent, std::string* final_name) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  if (path.empty()) {
    return Status::Error(ENOENT, "empty path");
  }
  if (!proc.root.valid() || !proc.cwd.valid()) {
    return Status::Error(EINVAL, "process has no root");
  }

  bool absolute = path[0] == '/';
  VfsPath cur = absolute ? proc.root : proc.cwd;

  // Work stack of pending components (top = next). Symlink expansion pushes.
  std::vector<std::string> stack;
  {
    auto comps = SplitPath(path);
    if (want_parent) {
      if (comps.empty()) {
        return Status::Error(EINVAL, "cannot take parent of /");
      }
      if (final_name != nullptr) {
        *final_name = comps.back();
      }
      comps.pop_back();
    }
    stack.assign(comps.rbegin(), comps.rend());
  }

  int link_count = 0;
  while (!stack.empty()) {
    std::string comp = std::move(stack.back());
    stack.pop_back();
    if (comp == ".") {
      continue;
    }
    if (comp == "..") {
      // chroot guard: never walk above the process root.
      if (cur.mount == proc.root.mount && cur.inode == proc.root.inode) {
        continue;
      }
      VfsPath pos = cur;
      while (pos.inode == pos.mount->root() && pos.mount->parent() != nullptr) {
        pos = VfsPath{pos.mount->parent(), pos.mount->mountpoint()};
      }
      if (pos.inode == pos.mount->root()) {
        cur = pos;  // at the namespace root
        continue;
      }
      auto parent = pos.inode->Parent();
      if (!parent.ok()) {
        return parent.status();
      }
      cur = VfsPath{pos.mount, std::move(parent).value()};
      continue;
    }

    bool is_final = stack.empty();
    CNTR_ASSIGN_OR_RETURN(VfsPath next, StepInto(proc, cur, comp));

    // Symlink expansion.
    CNTR_ASSIGN_OR_RETURN(InodeAttr child_attr, next.inode->Getattr());
    if (IsLnk(child_attr.mode) && (!is_final || follow_final)) {
      if (++link_count > 40) {
        return Status::Error(ELOOP);
      }
      CNTR_ASSIGN_OR_RETURN(std::string target, next.inode->Readlink());
      if (target.empty()) {
        return Status::Error(ENOENT, "empty symlink target");
      }
      auto target_comps = SplitPath(target);
      for (auto it = target_comps.rbegin(); it != target_comps.rend(); ++it) {
        stack.push_back(*it);
      }
      if (target[0] == '/') {
        cur = proc.root;
      }
      continue;
    }
    cur = next;
  }

  if (want_parent) {
    CNTR_ASSIGN_OR_RETURN(InodeAttr attr, cur.inode->Getattr());
    if (!IsDir(attr.mode)) {
      return Status::Error(ENOTDIR);
    }
  }
  return cur;
}

Status Kernel::CheckLsm(Process& proc, std::string_view path, bool write_access) {
  if (proc.lsm.unconfined()) {
    return Status::Ok();
  }
  std::string norm = NormalizePath(path);
  for (const auto& prefix : proc.lsm.deny_all_prefixes) {
    if (PathHasPrefix(norm, prefix)) {
      return Status::Error(EACCES, "denied by LSM profile " + proc.lsm.name);
    }
  }
  if (write_access) {
    for (const auto& prefix : proc.lsm.deny_write_prefixes) {
      if (PathHasPrefix(norm, prefix)) {
        return Status::Error(EACCES, "write denied by LSM profile " + proc.lsm.name);
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mounts
// ---------------------------------------------------------------------------

Status Kernel::MountFs(Process& proc, std::shared_ptr<FileSystem> fs, const std::string& target,
                       uint64_t flags) {
  if (!proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "mount requires CAP_SYS_ADMIN");
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, target));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (!IsDir(attr.mode)) {
    return Status::Error(ENOTDIR);
  }
  auto root = fs->root();
  auto m = std::make_shared<Mount>(std::move(fs), std::move(root), flags);
  return proc.mnt_ns->AddMount(m, at.mount, at.inode);
}

Status Kernel::BindMount(Process& proc, const std::string& src, const std::string& target,
                         bool recursive) {
  if (!proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "mount requires CAP_SYS_ADMIN");
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath from, Resolve(proc, src));
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, target));
  CNTR_ASSIGN_OR_RETURN(InodeAttr src_attr, from.inode->Getattr());
  CNTR_ASSIGN_OR_RETURN(InodeAttr dst_attr, at.inode->Getattr());
  // Directory binds need a directory target; file binds need a file target.
  if (IsDir(src_attr.mode) != IsDir(dst_attr.mode)) {
    return Status::Error(IsDir(src_attr.mode) ? ENOTDIR : EISDIR);
  }

  auto m = std::make_shared<Mount>(from.mount->fs(), from.inode, from.mount->flags());
  CNTR_RETURN_IF_ERROR(proc.mnt_ns->AddMount(m, at.mount, at.inode));

  if (recursive) {
    // Replicate mounts living under the source subtree.
    std::function<Status(const MountPtr&, const MountPtr&)> replicate =
        [&](const MountPtr& src_mount, const MountPtr& dst_mount) -> Status {
      for (const auto& child : proc.mnt_ns->ChildrenOf(src_mount)) {
        if (child == m) {
          continue;
        }
        // Only children whose mountpoint is inside the bound subtree.
        bool inside = false;
        InodePtr probe = child->mountpoint();
        for (int depth = 0; probe != nullptr && depth < 256; ++depth) {
          if (probe == from.inode || src_mount != from.mount) {
            inside = true;
            break;
          }
          auto parent = probe->Parent();
          if (!parent.ok() || parent.value() == probe) {
            break;
          }
          probe = std::move(parent).value();
        }
        if (!inside) {
          continue;
        }
        auto copy = std::make_shared<Mount>(child->fs(), child->root(), child->flags());
        CNTR_RETURN_IF_ERROR(proc.mnt_ns->AddMount(copy, dst_mount, child->mountpoint()));
        CNTR_RETURN_IF_ERROR(replicate(child, copy));
      }
      return Status::Ok();
    };
    CNTR_RETURN_IF_ERROR(replicate(from.mount, m));
  }
  return Status::Ok();
}

Status Kernel::MoveMount(Process& proc, const std::string& src, const std::string& target) {
  if (!proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "mount requires CAP_SYS_ADMIN");
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath from, Resolve(proc, src));
  if (from.inode != from.mount->root() || from.mount->parent() == nullptr) {
    return Status::Error(EINVAL, "source is not a movable mount");
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, target));
  CNTR_ASSIGN_OR_RETURN(InodeAttr dst_attr, at.inode->Getattr());
  CNTR_ASSIGN_OR_RETURN(InodeAttr src_attr, from.mount->root()->Getattr());
  if (IsDir(src_attr.mode) && !IsDir(dst_attr.mode)) {
    return Status::Error(ENOTDIR);
  }
  if (at.mount == from.mount) {
    return Status::Error(EINVAL, "cannot move a mount into itself");
  }
  MountPtr existing = proc.mnt_ns->MountAt(at.mount, at.inode);
  if (existing != nullptr) {
    return Status::Error(EBUSY);
  }
  from.mount->Attach(at.mount, at.inode);
  return Status::Ok();
}

Status Kernel::Umount(Process& proc, const std::string& target) {
  if (!proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "umount requires CAP_SYS_ADMIN");
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, target));
  if (at.inode != at.mount->root()) {
    return Status::Error(EINVAL, "not a mountpoint");
  }
  return proc.mnt_ns->RemoveMount(at.mount);
}

Status Kernel::MakeAllPrivate(Process& proc) {
  proc.mnt_ns->MakeAllPrivate();
  return Status::Ok();
}

Status Kernel::Chdir(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (!IsDir(attr.mode)) {
    return Status::Error(ENOTDIR);
  }
  CNTR_RETURN_IF_ERROR(CheckAccess(attr, proc.creds, kAccessExec));
  proc.cwd = at;
  return Status::Ok();
}

Status Kernel::Chroot(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  if (!proc.creds.HasCap(Capability::kSysChroot)) {
    return Status::Error(EPERM, "chroot requires CAP_SYS_CHROOT");
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (!IsDir(attr.mode)) {
    return Status::Error(ENOTDIR);
  }
  proc.root = at;
  proc.cwd = at;
  return Status::Ok();
}

Status Kernel::PivotIntoTmp(Process& proc, const std::string& tmp_dir) {
  // CNTR's "atomically execute a chroot turning TMP/ into /" (paper §3.2.3).
  return Chroot(proc, tmp_dir);
}

Status Kernel::PivotToFs(Process& proc, std::shared_ptr<FileSystem> fs) {
  if (!proc.creds.HasCap(Capability::kSysAdmin)) {
    return Status::Error(EPERM, "pivot_root requires CAP_SYS_ADMIN");
  }
  auto root = fs->root();
  auto root_mount = std::make_shared<Mount>(std::move(fs), root, 0);
  proc.mnt_ns = std::make_shared<MountNamespace>(root_mount);
  proc.root = VfsPath{root_mount, root};
  proc.cwd = proc.root;
  return Status::Ok();
}

void Kernel::RegisterCharDevice(Dev rdev, CharDeviceOpenFn open_fn) {
  std::lock_guard<analysis::CheckedMutex> lock(devices_mu_);
  char_devices_[rdev] = std::move(open_fn);
}

void Kernel::AddExitHook(std::function<void(const Process&)> hook) {
  std::lock_guard<analysis::CheckedMutex> lock(exit_hooks_mu_);
  exit_hooks_.push_back(std::move(hook));
}

}  // namespace cntr::kernel
