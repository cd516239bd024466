// File, metadata, socket, pipe, epoll and splice syscalls of the simulated
// kernel (the data-plane half of the Kernel facade).
#include <cerrno>

#include "src/kernel/kernel.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

namespace {

bool IsValidName(const std::string& name) {
  return !name.empty() && name != "." && name != ".." && name.find('/') == std::string::npos;
}

CNTR_FAULT_POINT(kFaultSplice, "kernel.splice");
CNTR_FAULT_POINT(kFaultVmsplice, "kernel.vmsplice");
CNTR_FAULT_POINT(kFaultSocketAccept, "kernel.socket.accept");
CNTR_FAULT_POINT(kFaultSocketConnect, "kernel.socket.connect");

}  // namespace

// ---------------------------------------------------------------------------
// Open / close / fd plumbing
// ---------------------------------------------------------------------------

StatusOr<Fd> Kernel::Open(Process& proc, const std::string& path, int flags, Mode mode) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, WantsWrite(flags)));

  InodePtr target;
  bool created = false;

  auto resolved = WalkPath(proc, path, !(flags & kONofollow), /*want_parent=*/false, nullptr);
  if (resolved.ok()) {
    if ((flags & kOCreat) && (flags & kOExcl)) {
      return Status::Error(EEXIST);
    }
    target = resolved.value().inode;
  } else if (resolved.error() == ENOENT && (flags & kOCreat)) {
    CNTR_ASSIGN_OR_RETURN(auto parent, ResolveParent(proc, path));
    auto& [dir, name] = parent;
    if (!IsValidName(name)) {
      return Status::Error(EINVAL, "invalid file name");
    }
    CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
    CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
    if (dir.mount->read_only()) {
      return Status::Error(EROFS);
    }
    auto made = dir.inode->Create(name, kIfReg | (mode & kPermMask), 0, proc.creds);
    if (made.ok()) {
      target = std::move(made).value();
      dcache_->Insert(dir.inode.get(), name, target, dir.inode->fs()->DentryTtlNs());
      created = true;
    } else if (made.error() == EEXIST && !(flags & kOExcl)) {
      // The name exists after all — typically a stale negative dentry for a
      // file that appeared underneath a FUSE mount within its entry TTL.
      // POSIX requires O_CREAT without O_EXCL to open the existing file, so
      // drop the stale entry and re-walk.
      dcache_->Invalidate(dir.inode.get(), name);
      CNTR_ASSIGN_OR_RETURN(auto rewalked,
                            WalkPath(proc, path, !(flags & kONofollow), false, nullptr));
      target = rewalked.inode;
    } else {
      return made.status();
    }
  } else {
    return resolved.status();
  }

  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, target->Getattr());
  if (IsLnk(attr.mode)) {
    return Status::Error(ELOOP, "O_NOFOLLOW on a symlink");
  }
  if ((flags & kODirectory) && !IsDir(attr.mode)) {
    return Status::Error(ENOTDIR);
  }
  if (IsDir(attr.mode) && WantsWrite(flags)) {
    return Status::Error(EISDIR);
  }
  if (IsSock(attr.mode)) {
    return Status::Error(ENXIO, "sockets cannot be opened");
  }

  if (!created) {
    int mask = 0;
    if (WantsRead(flags)) {
      mask |= kAccessRead;
    }
    if (WantsWrite(flags) || (flags & kOTrunc)) {
      mask |= kAccessWrite;
    }
    CNTR_RETURN_IF_ERROR(CheckAccess(attr, proc.creds, mask));
  }

  // Find the mount the inode lives under for the read-only check. The
  // resolved VfsPath is lost in the create branch; re-resolve cheaply.
  if (WantsWrite(flags) && !created) {
    auto vp = WalkPath(proc, path, !(flags & kONofollow), false, nullptr);
    if (vp.ok() && vp.value().mount->read_only()) {
      return Status::Error(EROFS);
    }
  }

  FilePtr file;
  if (IsChr(attr.mode)) {
    CharDeviceOpenFn open_fn;
    {
      std::lock_guard<analysis::CheckedMutex> lock(devices_mu_);
      auto it = char_devices_.find(attr.rdev);
      if (it == char_devices_.end()) {
        return Status::Error(ENXIO, "no driver for device");
      }
      open_fn = it->second;
    }
    CNTR_ASSIGN_OR_RETURN(file, open_fn(proc, flags));
  } else {
    CNTR_ASSIGN_OR_RETURN(file, target->Open(flags, proc.creds));
  }

  if ((flags & kOTrunc) && IsReg(attr.mode) && WantsWrite(flags)) {
    SetattrRequest req;
    req.size = 0;
    CNTR_RETURN_IF_ERROR(target->Setattr(req, proc.creds));
  }
  if (flags & kOAppend) {
    CNTR_ASSIGN_OR_RETURN(InodeAttr fresh, target->Getattr());
    file->set_offset(fresh.size);
  }

  if (access_listener_ != nullptr) {
    access_listener_->OnAccess(proc, NormalizePath(path), attr);
  }
  return proc.fds.Install(std::move(file), (flags & kOCloexec) != 0);
}

Status Kernel::Close(Process& proc, Fd fd) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Take(fd));
  if (file.use_count() == 1) {
    return file->Release();
  }
  return Status::Ok();
}

StatusOr<Fd> Kernel::Dup(Process& proc, Fd fd) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  return proc.fds.Dup(fd, 0, false);
}

StatusOr<FilePtr> Kernel::GetFile(Process& proc, Fd fd) { return proc.fds.Get(fd); }

StatusOr<Fd> Kernel::InstallFile(Process& proc, FilePtr file, bool cloexec) {
  return proc.fds.Install(std::move(file), cloexec);
}

// ---------------------------------------------------------------------------
// I/O
// ---------------------------------------------------------------------------

StatusOr<size_t> Kernel::Read(Process& proc, Fd fd, void* buf, size_t count) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  CNTR_ASSIGN_OR_RETURN(size_t n, file->Read(buf, count, file->offset()));
  file->AdvanceOffset(n);
  return n;
}

StatusOr<size_t> Kernel::Write(Process& proc, Fd fd, const void* buf, size_t count) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  uint64_t off = file->offset();
  if (file->append() && file->inode() != nullptr) {
    CNTR_ASSIGN_OR_RETURN(InodeAttr attr, file->inode()->Getattr());
    off = attr.size;
  }
  if (file->inode() != nullptr) {
    // RLIMIT_FSIZE: enforced only by filesystems that replay the caller's
    // context. CntrFS replays operations as the server process, where the
    // limit is not set (paper §5.1, xfstests #228).
    if (proc.rlimits.fsize != UINT64_MAX && file->inode()->fs()->EnforcesFsizeLimit() &&
        off + count > proc.rlimits.fsize) {
      return Status::Error(EFBIG);
    }
    ChargeWriteXattrProbe(file->inode());
  }
  CNTR_ASSIGN_OR_RETURN(size_t n, file->Write(buf, count, off));
  file->set_offset(off + n);
  return n;
}

StatusOr<size_t> Kernel::Pread(Process& proc, Fd fd, void* buf, size_t count, uint64_t offset) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  return file->Read(buf, count, offset);
}

StatusOr<size_t> Kernel::Pwrite(Process& proc, Fd fd, const void* buf, size_t count,
                                uint64_t offset) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  if (file->inode() != nullptr) {
    if (proc.rlimits.fsize != UINT64_MAX && file->inode()->fs()->EnforcesFsizeLimit() &&
        offset + count > proc.rlimits.fsize) {
      return Status::Error(EFBIG);
    }
    ChargeWriteXattrProbe(file->inode());
  }
  return file->Write(buf, count, offset);
}

StatusOr<uint64_t> Kernel::Lseek(Process& proc, Fd fd, int64_t offset, int whence) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  int64_t base;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = static_cast<int64_t>(file->offset());
      break;
    case kSeekEnd: {
      if (file->inode() == nullptr) {
        return Status::Error(ESPIPE);
      }
      CNTR_ASSIGN_OR_RETURN(InodeAttr attr, file->inode()->Getattr());
      base = static_cast<int64_t>(attr.size);
      break;
    }
    default:
      return Status::Error(EINVAL);
  }
  int64_t pos = base + offset;
  if (pos < 0) {
    return Status::Error(EINVAL);
  }
  file->set_offset(static_cast<uint64_t>(pos));
  return static_cast<uint64_t>(pos);
}

Status Kernel::Fsync(Process& proc, Fd fd, bool datasync) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  return file->Fsync(datasync);
}

Status Kernel::Ftruncate(Process& proc, Fd fd, uint64_t size) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  if (!file->writable() || file->inode() == nullptr) {
    return Status::Error(EINVAL);
  }
  SetattrRequest req;
  req.size = size;
  return file->inode()->Setattr(req, proc.creds);
}

StatusOr<InodeAttr> Kernel::Fstat(Process& proc, Fd fd) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  if (file->inode() == nullptr) {
    // Anonymous files (pipes, sockets, epoll) report a minimal fifo attr.
    InodeAttr attr;
    attr.mode = kIfFifo | 0600;
    return attr;
  }
  return file->inode()->Getattr();
}

StatusOr<std::vector<DirEntry>> Kernel::Getdents(Process& proc, Fd fd) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  return file->Readdir();
}

// ---------------------------------------------------------------------------
// Metadata ops
// ---------------------------------------------------------------------------

StatusOr<InodeAttr> Kernel::Stat(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  if (access_listener_ != nullptr) {
    auto attr = at.inode->Getattr();
    if (attr.ok()) {
      access_listener_->OnAccess(proc, NormalizePath(path), attr.value());
    }
    return attr;
  }
  return at.inode->Getattr();
}

StatusOr<InodeAttr> Kernel::Lstat(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at,
                        Resolve(proc, path, ResolveOpts{.follow_final_symlink = false}));
  return at.inode->Getattr();
}

Status Kernel::Access(Process& proc, const std::string& path, int mask) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  return CheckAccess(attr, proc.creds, mask);
}

Status Kernel::Mkdir(Process& proc, const std::string& path, Mode mode) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(auto parent, ResolveParent(proc, path));
  auto& [dir, name] = parent;
  if (!IsValidName(name)) {
    return Status::Error(EEXIST);
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
  if (dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  CNTR_ASSIGN_OR_RETURN(InodePtr child, dir.inode->Mkdir(name, mode, proc.creds));
  dcache_->Insert(dir.inode.get(), name, child, dir.inode->fs()->DentryTtlNs());
  return Status::Ok();
}

Status Kernel::CheckSticky(Process& proc, const InodeAttr& dir_attr, const InodePtr& victim) {
  if ((dir_attr.mode & kModeSticky) == 0) {
    return Status::Ok();
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr vic_attr, victim->Getattr());
  if (proc.creds.fsuid == vic_attr.uid || proc.creds.fsuid == dir_attr.uid ||
      proc.creds.HasCap(Capability::kFowner)) {
    return Status::Ok();
  }
  return Status::Error(EPERM, "sticky directory");
}

Status Kernel::Rmdir(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  // Bound in place rather than moved out of the StatusOr: GCC 12 at -O2
  // flags the moved-to pair's string as maybe-uninitialized in the
  // comparisons below.
  auto parent = ResolveParent(proc, path);
  if (!parent.ok()) {
    return parent.status();
  }
  auto& [dir, name] = parent.value();
  if (name == "." || name == "..") {
    return Status::Error(EINVAL);
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
  if (dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  auto victim = dir.inode->Lookup(name);
  if (victim.ok()) {
    CNTR_RETURN_IF_ERROR(CheckSticky(proc, dir_attr, victim.value()));
    // A directory that is a mountpoint in this namespace is busy.
    if (proc.mnt_ns->MountAt(dir.mount, victim.value()) != nullptr) {
      return Status::Error(EBUSY);
    }
  }
  CNTR_RETURN_IF_ERROR(dir.inode->Rmdir(name));
  dcache_->Invalidate(dir.inode.get(), name);
  if (victim.ok()) {
    dcache_->InvalidateDir(victim.value().get());
  }
  return Status::Ok();
}

Status Kernel::Unlink(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(auto parent, ResolveParent(proc, path));
  auto& [dir, name] = parent;
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
  if (dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  auto victim = dir.inode->Lookup(name);
  if (victim.ok()) {
    CNTR_RETURN_IF_ERROR(CheckSticky(proc, dir_attr, victim.value()));
  }
  CNTR_RETURN_IF_ERROR(dir.inode->Unlink(name));
  dcache_->Invalidate(dir.inode.get(), name);
  return Status::Ok();
}

Status Kernel::Rename(Process& proc, const std::string& from, const std::string& to,
                      uint32_t flags) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, from, /*write_access=*/true));
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, to, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(auto src, ResolveParent(proc, from));
  CNTR_ASSIGN_OR_RETURN(auto dst, ResolveParent(proc, to));
  auto& [src_dir, src_name] = src;
  auto& [dst_dir, dst_name] = dst;
  if (!IsValidName(src_name) || !IsValidName(dst_name)) {
    return Status::Error(EINVAL);
  }
  if (src_dir.mount->fs() != dst_dir.mount->fs()) {
    return Status::Error(EXDEV);
  }
  if (src_dir.mount->read_only() || dst_dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr src_attr, src_dir.inode->Getattr());
  CNTR_ASSIGN_OR_RETURN(InodeAttr dst_attr, dst_dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(src_attr, proc.creds, kAccessWrite | kAccessExec));
  CNTR_RETURN_IF_ERROR(CheckAccess(dst_attr, proc.creds, kAccessWrite | kAccessExec));
  auto victim = src_dir.inode->Lookup(src_name);
  if (victim.ok()) {
    CNTR_RETURN_IF_ERROR(CheckSticky(proc, src_attr, victim.value()));
  }
  CNTR_RETURN_IF_ERROR(src_dir.mount->fs()->Rename(src_dir.inode, src_name, dst_dir.inode,
                                                   dst_name, flags));
  dcache_->Invalidate(src_dir.inode.get(), src_name);
  dcache_->Invalidate(dst_dir.inode.get(), dst_name);
  return Status::Ok();
}

Status Kernel::Link(Process& proc, const std::string& target, const std::string& link_path) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, link_path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(VfsPath src, Resolve(proc, target));
  CNTR_ASSIGN_OR_RETURN(auto dst, ResolveParent(proc, link_path));
  auto& [dir, name] = dst;
  if (!IsValidName(name)) {
    return Status::Error(EEXIST);
  }
  if (dir.mount->fs() != src.mount->fs()) {
    return Status::Error(EXDEV);
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
  if (dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  CNTR_RETURN_IF_ERROR(dir.inode->Link(name, src.inode));
  dcache_->Insert(dir.inode.get(), name, src.inode, dir.inode->fs()->DentryTtlNs());
  return Status::Ok();
}

Status Kernel::Symlink(Process& proc, const std::string& target, const std::string& link_path) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, link_path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(auto dst, ResolveParent(proc, link_path));
  auto& [dir, name] = dst;
  if (!IsValidName(name)) {
    return Status::Error(EEXIST);
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
  if (dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  CNTR_ASSIGN_OR_RETURN(InodePtr child, dir.inode->Symlink(name, target, proc.creds));
  dcache_->Insert(dir.inode.get(), name, child, dir.inode->fs()->DentryTtlNs());
  return Status::Ok();
}

StatusOr<std::string> Kernel::Readlink(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at,
                        Resolve(proc, path, ResolveOpts{.follow_final_symlink = false}));
  return at.inode->Readlink();
}

Status Kernel::Mknod(Process& proc, const std::string& path, Mode mode, Dev rdev) {
  CurrentScope current(proc);
  Mode type = mode & kIfMt;
  if ((type == kIfChr || type == kIfBlk) && !proc.creds.HasCap(Capability::kMknod)) {
    return Status::Error(EPERM, "mknod of device nodes requires CAP_MKNOD");
  }
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(auto parent, ResolveParent(proc, path));
  auto& [dir, name] = parent;
  if (!IsValidName(name)) {
    return Status::Error(EEXIST);
  }
  CNTR_ASSIGN_OR_RETURN(InodeAttr dir_attr, dir.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(dir_attr, proc.creds, kAccessWrite | kAccessExec));
  if (dir.mount->read_only()) {
    return Status::Error(EROFS);
  }
  CNTR_ASSIGN_OR_RETURN(InodePtr child, dir.inode->Create(name, mode, rdev, proc.creds));
  dcache_->Insert(dir.inode.get(), name, child, dir.inode->fs()->DentryTtlNs());
  return Status::Ok();
}

Status Kernel::Chmod(Process& proc, const std::string& path, Mode mode) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (!MayChmod(attr, proc.creds)) {
    return Status::Error(EPERM);
  }
  // Without CAP_FSETID, setting setgid on a file whose group the caller is
  // not in silently clears the bit (the semantics xfstests #375 checks).
  // FUSE filesystems delegate this decision to their server, which sees
  // only fsuid/fsgid and keeps the bit — paper §5.1's documented failure.
  Mode new_mode = mode & kPermMask;
  if (at.mount->fs()->VfsAppliesSetgidPolicy() && (new_mode & kModeSetGid) &&
      !proc.creds.InGroup(attr.gid) && !proc.creds.HasCap(Capability::kFsetid)) {
    new_mode &= ~kModeSetGid;
  }
  SetattrRequest req;
  req.mode = new_mode;
  return at.inode->Setattr(req, proc.creds);
}

Status Kernel::Chown(Process& proc, const std::string& path, Uid uid, Gid gid) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (!MayChown(attr, proc.creds, uid, gid)) {
    return Status::Error(EPERM);
  }
  SetattrRequest req;
  req.uid = uid;
  req.gid = gid;
  // chown clears setuid/setgid unless root (Linux semantics).
  if ((attr.mode & (kModeSetUid | kModeSetGid)) != 0 &&
      !proc.creds.HasCap(Capability::kFsetid)) {
    req.mode = attr.mode & kPermMask & ~(kModeSetUid | kModeSetGid);
  }
  return at.inode->Setattr(req, proc.creds);
}

Status Kernel::Truncate(Process& proc, const std::string& path, uint64_t size) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  CNTR_RETURN_IF_ERROR(CheckAccess(attr, proc.creds, kAccessWrite));
  if (at.mount->read_only()) {
    return Status::Error(EROFS);
  }
  SetattrRequest req;
  req.size = size;
  return at.inode->Setattr(req, proc.creds);
}

Status Kernel::Utimens(Process& proc, const std::string& path, Timespec atime, Timespec mtime) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (proc.creds.fsuid != attr.uid && !proc.creds.HasCap(Capability::kFowner)) {
    return Status::Error(EPERM);
  }
  SetattrRequest req;
  req.atime = atime;
  req.mtime = mtime;
  return at.inode->Setattr(req, proc.creds);
}

StatusOr<StatFs> Kernel::Statfs(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  return at.mount->fs()->Statfs();
}

StatusOr<uint64_t> Kernel::NameToHandle(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  return at.inode->ExportHandle();
}

Status Kernel::SetXattr(Process& proc, const std::string& path, const std::string& name,
                        const std::string& value, int flags) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (StartsWith(name, "user.")) {
    CNTR_RETURN_IF_ERROR(CheckAccess(attr, proc.creds, kAccessWrite));
  } else if (StartsWith(name, "security.") || StartsWith(name, "trusted.")) {
    if (!proc.creds.HasCap(Capability::kSysAdmin) && !proc.creds.HasCap(Capability::kSetfcap)) {
      return Status::Error(EPERM);
    }
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(xattr_probe_mu_);
    xattr_absent_.erase(at.inode->id());
  }
  return at.inode->SetXattr(name, value, flags);
}

StatusOr<std::string> Kernel::GetXattr(Process& proc, const std::string& path,
                                       const std::string& name) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  return at.inode->GetXattr(name);
}

StatusOr<std::vector<std::string>> Kernel::ListXattr(Process& proc, const std::string& path) {
  CurrentScope current(proc);
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  return at.inode->ListXattr();
}

Status Kernel::RemoveXattr(Process& proc, const std::string& path, const std::string& name) {
  CurrentScope current(proc);
  CNTR_RETURN_IF_ERROR(CheckLsm(proc, path, /*write_access=*/true));
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  return at.inode->RemoveXattr(name);
}

void Kernel::ChargeWriteXattrProbe(const InodePtr& inode) {
  // The VFS checks security.capability before every write so it can strip
  // file capabilities. Native filesystems cache the (usual) absence; FUSE
  // provides no such cache, so every write pays a GETXATTR round trip —
  // the effect the paper measures in Apache (1.5x) and IOzone write (1.2x).
  bool native = inode->fs()->DentryTtlNs() == UINT64_MAX;
  if (native) {
    std::lock_guard<analysis::CheckedMutex> lock(xattr_probe_mu_);
    if (xattr_absent_.count(inode->id()) != 0) {
      return;
    }
  }
  (void)inode->GetXattr("security.capability");
  if (native) {
    std::lock_guard<analysis::CheckedMutex> lock(xattr_probe_mu_);
    xattr_absent_.insert(inode->id());
  }
}

// ---------------------------------------------------------------------------
// Pipes, sockets, epoll, splice
// ---------------------------------------------------------------------------

StatusOr<std::pair<Fd, Fd>> Kernel::Pipe(Process& proc) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  auto buffer = std::make_shared<PipeBuffer>(&poll_hub_);
  auto read_end = std::make_shared<PipeReadEnd>(buffer, kORdOnly);
  auto write_end = std::make_shared<PipeWriteEnd>(buffer, kOWrOnly);
  CNTR_ASSIGN_OR_RETURN(Fd rfd, proc.fds.Install(read_end, false));
  auto wfd = proc.fds.Install(write_end, false);
  if (!wfd.ok()) {
    (void)proc.fds.Take(rfd);
    return wfd.status();
  }
  return std::make_pair(rfd, wfd.value());
}

StatusOr<Fd> Kernel::SocketListen(Process& proc, const std::string& path, int backlog) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(auto parent, ResolveParent(proc, path));
  auto& [dir, name] = parent;
  if (!IsValidName(name)) {
    return Status::Error(EINVAL);
  }
  CNTR_ASSIGN_OR_RETURN(InodePtr inode, dir.inode->Create(name, kIfSock | 0777, 0, proc.creds));
  auto sock = std::make_shared<ListeningSocket>(&poll_hub_, backlog);
  {
    std::lock_guard<analysis::CheckedMutex> lock(sockets_mu_);
    bound_sockets_[inode->id()] = sock;
  }
  dcache_->Insert(dir.inode.get(), name, inode, dir.inode->fs()->DentryTtlNs());
  return proc.fds.Install(std::make_shared<ListeningSocketFile>(sock, inode, kORdWr), false);
}

StatusOr<Fd> Kernel::SocketListenAbstract(Process& proc, const std::string& name, int backlog) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  auto sock = std::make_shared<ListeningSocket>(&poll_hub_, backlog);
  CNTR_RETURN_IF_ERROR(proc.net_ns->BindAbstract(name, sock));
  return proc.fds.Install(std::make_shared<ListeningSocketFile>(sock, nullptr, kORdWr), false);
}

StatusOr<Fd> Kernel::SocketConnect(Process& proc, const std::string& path) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  if (auto hit = faults_.Check(kFaultSocketConnect)) {
    clock_.Advance(hit.latency_ns);
    if (hit.action == fault::FaultAction::kFail) {
      return Status::Error(hit.error, "injected connect fault");
    }
  }
  CNTR_ASSIGN_OR_RETURN(VfsPath at, Resolve(proc, path));
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, at.inode->Getattr());
  if (!IsSock(attr.mode)) {
    return Status::Error(ECONNREFUSED, "not a socket");
  }
  CNTR_RETURN_IF_ERROR(CheckAccess(attr, proc.creds, kAccessRead | kAccessWrite));
  std::shared_ptr<ListeningSocket> sock;
  {
    std::lock_guard<analysis::CheckedMutex> lock(sockets_mu_);
    auto it = bound_sockets_.find(at.inode->id());
    if (it != bound_sockets_.end()) {
      sock = it->second;
    }
  }
  if (sock == nullptr || sock->closed()) {
    return Status::Error(ECONNREFUSED, "no listener");
  }
  CNTR_ASSIGN_OR_RETURN(FilePtr file, sock->Connect(kORdWr));
  return proc.fds.Install(std::move(file), false);
}

StatusOr<Fd> Kernel::SocketConnectAbstract(Process& proc, const std::string& name) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  auto raw = proc.net_ns->LookupAbstract(name);
  if (raw == nullptr) {
    return Status::Error(ECONNREFUSED, "no abstract listener " + name);
  }
  auto sock = std::static_pointer_cast<ListeningSocket>(raw);
  if (sock->closed()) {
    return Status::Error(ECONNREFUSED);
  }
  CNTR_ASSIGN_OR_RETURN(FilePtr file, sock->Connect(kORdWr));
  return proc.fds.Install(std::move(file), false);
}

StatusOr<Fd> Kernel::SocketAccept(Process& proc, Fd listen_fd, bool nonblock) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  if (auto hit = faults_.Check(kFaultSocketAccept)) {
    clock_.Advance(hit.latency_ns);
    if (hit.action == fault::FaultAction::kFail) {
      return Status::Error(hit.error, "injected accept fault");
    }
  }
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(listen_fd));
  auto* lf = dynamic_cast<ListeningSocketFile*>(file.get());
  if (lf == nullptr) {
    return Status::Error(EINVAL, "not a listening socket");
  }
  CNTR_ASSIGN_OR_RETURN(FilePtr conn, lf->socket()->Accept(kORdWr, nonblock));
  return proc.fds.Install(std::move(conn), false);
}

Status Kernel::SocketShutdown(Process& proc, Fd fd, int how) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  auto* sock = dynamic_cast<ConnectedSocketFile*>(file.get());
  if (sock == nullptr) {
    return Status::Error(ENOTSOCK, "shutdown on a non-socket");
  }
  return sock->Shutdown(how);
}

StatusOr<std::pair<Fd, Fd>> Kernel::SocketPair(Process& proc) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  auto conn = std::make_shared<SocketConnection>(&poll_hub_);
  auto a = std::make_shared<ConnectedSocketFile>(conn, ConnectedSocketFile::Side::kClient, kORdWr);
  auto b = std::make_shared<ConnectedSocketFile>(conn, ConnectedSocketFile::Side::kServer, kORdWr);
  CNTR_ASSIGN_OR_RETURN(Fd fa, proc.fds.Install(a, false));
  auto fb = proc.fds.Install(b, false);
  if (!fb.ok()) {
    (void)proc.fds.Take(fa);
    return fb.status();
  }
  return std::make_pair(fa, fb.value());
}

StatusOr<Fd> Kernel::EpollCreate(Process& proc) {
  clock_.Advance(config_.costs.syscall_entry_ns);
  return proc.fds.Install(std::make_shared<EpollFile>(&poll_hub_), false);
}

Status Kernel::EpollCtl(Process& proc, Fd epfd, int op, Fd fd, uint32_t events, uint64_t data) {
  CNTR_ASSIGN_OR_RETURN(FilePtr efile, proc.fds.Get(epfd));
  auto* ep = dynamic_cast<EpollFile*>(efile.get());
  if (ep == nullptr) {
    return Status::Error(EINVAL, "not an epoll fd");
  }
  FilePtr watched;
  if (op != kEpollCtlDel) {
    CNTR_ASSIGN_OR_RETURN(watched, proc.fds.Get(fd));
  }
  return ep->Ctl(op, fd, watched, events, data);
}

StatusOr<std::vector<EpollEvent>> Kernel::EpollWait(Process& proc, Fd epfd, int max_events,
                                                    int timeout_ms) {
  CNTR_ASSIGN_OR_RETURN(FilePtr efile, proc.fds.Get(epfd));
  auto* ep = dynamic_cast<EpollFile*>(efile.get());
  if (ep == nullptr) {
    return Status::Error(EINVAL, "not an epoll fd");
  }
  return ep->Wait(max_events, timeout_ms);
}

StatusOr<size_t> Kernel::Splice(Process& proc, Fd fd_in, Fd fd_out, size_t len) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  if (auto hit = faults_.Check(kFaultSplice)) {
    clock_.Advance(hit.latency_ns);
    if (hit.action == fault::FaultAction::kFail) {
      return Status::Error(hit.error, "injected splice fault");
    }
  }
  CNTR_ASSIGN_OR_RETURN(FilePtr in, proc.fds.Get(fd_in));
  CNTR_ASSIGN_OR_RETURN(FilePtr out, proc.fds.Get(fd_out));
  auto* in_pipe_end = dynamic_cast<PipeReadEnd*>(in.get());
  auto* out_pipe_end = dynamic_cast<PipeWriteEnd*>(out.get());
  auto* in_sock = dynamic_cast<ConnectedSocketFile*>(in.get());
  auto* out_sock = dynamic_cast<ConnectedSocketFile*>(out.get());
  bool in_pipe = in_pipe_end != nullptr || in_sock != nullptr;
  bool out_pipe = out_pipe_end != nullptr || out_sock != nullptr;
  if (!in_pipe && !out_pipe) {
    return Status::Error(EINVAL, "splice needs a pipe");
  }
  len = std::min<size_t>(len, 1 << 20);
  if (in_pipe && out_pipe) {
    // Both ends resolve to segment rings (pipe<->pipe, socket<->pipe,
    // socket<->socket): move the segment references themselves — no bytes
    // are touched, and a tee'd/shared page stays shared across the move.
    if (in_sock != nullptr && in_sock->read_shutdown()) {
      return size_t{0};  // EOF
    }
    if (out_sock != nullptr && out_sock->write_shutdown()) {
      return Status::Error(EPIPE);
    }
    PipeBuffer& src =
        in_pipe_end != nullptr ? *in_pipe_end->pipe_buffer() : in_sock->recv_ring();
    PipeBuffer& dst =
        out_pipe_end != nullptr ? *out_pipe_end->pipe_buffer() : out_sock->send_ring();
    return splice_engine_->MovePipeToPipe(src, dst, len,
                                          in->nonblocking() || out->nonblocking());
  }
  std::vector<char> chunk(len);
  CNTR_ASSIGN_OR_RETURN(size_t n, in->Read(chunk.data(), len, in->offset()));
  if (n == 0) {
    return size_t{0};
  }
  if (in->inode() != nullptr) {
    in->AdvanceOffset(n);
  }
  CNTR_ASSIGN_OR_RETURN(size_t written, out->Write(chunk.data(), n, out->offset()));
  if (out->inode() != nullptr) {
    out->AdvanceOffset(written);
  }
  // Pages are remapped, not copied: charge the splice rate.
  clock_.Advance(((written + kPageSize - 1) / kPageSize) * config_.costs.splice_page_ns);
  return written;
}

namespace {

// Either end of a pipe names the same ring (fcntl works on both).
std::shared_ptr<PipeBuffer> PipeOfFile(const FilePtr& file) {
  if (auto* r = dynamic_cast<PipeReadEnd*>(file.get())) {
    return r->pipe_buffer();
  }
  if (auto* w = dynamic_cast<PipeWriteEnd*>(file.get())) {
    return w->pipe_buffer();
  }
  return nullptr;
}

}  // namespace

StatusOr<size_t> Kernel::Vmsplice(Process& proc, Fd fd, const void* buf, size_t len, bool gift) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  if (auto hit = faults_.Check(kFaultVmsplice)) {
    clock_.Advance(hit.latency_ns);
    if (hit.action == fault::FaultAction::kFail) {
      return Status::Error(hit.error, "injected vmsplice fault");
    }
  }
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  auto* w = dynamic_cast<PipeWriteEnd*>(file.get());
  if (w == nullptr) {
    return Status::Error(EBADF, "vmsplice needs a pipe write end");
  }
  return splice_engine_->VmspliceIn(*w->pipe_buffer(), static_cast<const char*>(buf), len, gift,
                                    file->nonblocking());
}

StatusOr<size_t> Kernel::Tee(Process& proc, Fd fd_in, Fd fd_out, size_t len) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr in, proc.fds.Get(fd_in));
  CNTR_ASSIGN_OR_RETURN(FilePtr out, proc.fds.Get(fd_out));
  auto* r = dynamic_cast<PipeReadEnd*>(in.get());
  auto* w = dynamic_cast<PipeWriteEnd*>(out.get());
  if (r == nullptr || w == nullptr) {
    return Status::Error(EINVAL, "tee needs two pipes");
  }
  if (r->pipe_buffer() == w->pipe_buffer()) {
    return Status::Error(EINVAL, "tee on the same pipe");
  }
  return splice_engine_->Tee(*r->pipe_buffer(), *w->pipe_buffer(), len,
                             in->nonblocking() || out->nonblocking());
}

StatusOr<size_t> Kernel::SetPipeSize(Process& proc, Fd fd, size_t bytes) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  auto pipe = PipeOfFile(file);
  if (pipe == nullptr) {
    return Status::Error(EBADF, "F_SETPIPE_SZ on a non-pipe");
  }
  return pipe->SetCapacity(bytes);
}

StatusOr<size_t> Kernel::GetPipeSize(Process& proc, Fd fd) {
  CurrentScope current(proc);
  clock_.Advance(config_.costs.syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(FilePtr file, proc.fds.Get(fd));
  auto pipe = PipeOfFile(file);
  if (pipe == nullptr) {
    return Status::Error(EBADF, "F_GETPIPE_SZ on a non-pipe");
  }
  return pipe->capacity();
}

}  // namespace cntr::kernel
