#include "src/kernel/memfs.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "src/util/logging.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

namespace {

// Lockdep subclasses for "kernel.memfs.inode": directory operations hold a
// parent inode at the base class, the second parent of an address-ordered
// rename pair at kSecondParentLockClass, and any child/victim/target inode
// at kChildLockClass. The legal edges are base -> second-parent -> child;
// anything else (child before parent, unordered parent pair) reports.
constexpr uint32_t kSecondParentLockClass = 1;
constexpr uint32_t kChildLockClass = 2;

// Open file description for MemFs regular files and directories.
class MemFile : public FileDescription {
 public:
  MemFile(std::shared_ptr<MemInode> inode, int flags)
      : FileDescription(inode, flags), mem_inode_(std::move(inode)) {}

  StatusOr<size_t> Read(void* buf, size_t count, uint64_t offset) override {
    if (!readable()) {
      return Status::Error(EBADF);
    }
    return mem_inode_->ReadData(static_cast<char*>(buf), count, offset,
                                (flags() & kODirect) != 0, &readahead_);
  }

  StatusOr<size_t> Write(const void* buf, size_t count, uint64_t offset) override {
    if (!writable()) {
      return Status::Error(EBADF);
    }
    return mem_inode_->WriteData(static_cast<const char*>(buf), count, offset,
                                 (flags() & kODirect) != 0);
  }

  StatusOr<std::vector<splice::PageRef>> ReadPageRefs(size_t count, uint64_t offset) override {
    if (!readable()) {
      return Status::Error(EBADF);
    }
    if ((flags() & kODirect) != 0) {
      return Status::Error(EOPNOTSUPP);  // O_DIRECT bypasses the page cache
    }
    return mem_inode_->ReadPageRefs(count, offset, &readahead_);
  }

  StatusOr<size_t> WritePageRefs(const std::vector<splice::PageRef>& pages,
                                 uint64_t offset) override {
    if (!writable()) {
      return Status::Error(EBADF);
    }
    if ((flags() & kODirect) != 0) {
      return Status::Error(EOPNOTSUPP);
    }
    return mem_inode_->WritePageRefs(pages, offset);
  }

  Status Fsync(bool datasync) override { return mem_inode_->FsyncData(datasync); }

  StatusOr<std::vector<DirEntry>> Readdir() override { return mem_inode_->Readdir(); }

 private:
  std::shared_ptr<MemInode> mem_inode_;
  // Per-open-file readahead ramp for the disk-backed miss fill.
  FileReadahead readahead_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MemFs
// ---------------------------------------------------------------------------

std::shared_ptr<MemFs> MemFs::Create(Dev dev_id, Options opts) {
  assert(opts.clock != nullptr && opts.costs != nullptr);
  assert(opts.disk == nullptr || opts.page_cache != nullptr);
  auto fs = std::shared_ptr<MemFs>(new MemFs(dev_id, std::move(opts)));
  fs->root_ = std::make_shared<MemInode>(fs.get(), /*ino=*/1, kIfDir | 0755, kRootUid, kRootGid,
                                         /*rdev=*/0);
  fs->root_->attr_.nlink = 2;
  fs->root_->parent_ = fs->root_;
  fs->AccountInode(1);
  return fs;
}

MemFs::MemFs(Dev dev_id, Options opts) : FileSystem(dev_id), opts_(std::move(opts)) {}

MemFs::~MemFs() {
  // Mark the superblock dead before any inode teardown: the root cascade
  // below — and any externally-held inode released later — must not call
  // back into the accounting members this destructor is about to free.
  alive_->store(false, std::memory_order_release);
  root_.reset();
}

InodePtr MemFs::root() { return root_; }

StatusOr<StatFs> MemFs::Statfs() {
  StatFs out;
  out.fs_type = opts_.type_name;
  out.block_size = kPageSize;
  uint64_t cap = opts_.capacity_bytes == UINT64_MAX ? (1ull << 40) : opts_.capacity_bytes;
  out.total_blocks = cap / kPageSize;
  uint64_t used = static_cast<uint64_t>(std::max<int64_t>(0, used_bytes_.load()));
  out.free_blocks = out.total_blocks > used / kPageSize ? out.total_blocks - used / kPageSize : 0;
  out.total_inodes = opts_.max_inodes;
  uint64_t used_inodes = static_cast<uint64_t>(std::max<int64_t>(0, used_inodes_.load()));
  out.free_inodes = out.total_inodes > used_inodes ? out.total_inodes - used_inodes : 0;
  return out;
}

Status MemFs::Sync() {
  WritebackAll();
  if (opts_.disk != nullptr) {
    opts_.disk->ChargeFlush();
  }
  return Status::Ok();
}

void MemFs::NoteDirty(MemInode* inode) {
  std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
  dirty_inodes_.push_back(inode);
}

void MemFs::ForgetDirty(MemInode* inode) {
  std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
  std::erase(dirty_inodes_, inode);
}

void MemFs::WritebackAll() {
  std::vector<MemInode*> victims;
  {
    std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
    victims.swap(dirty_inodes_);
  }
  for (MemInode* inode : victims) {
    inode->FlushDirtyPages();
  }
}

uint32_t MemFs::WritebackInode(MemInode* inode) {
  ForgetDirty(inode);
  return inode->FlushDirtyPages();
}

void MemFs::MaybeBackgroundWriteback() {
  if (opts_.disk == nullptr) {
    return;
  }
  // vm.dirty_bytes-style throttling: when the pool holds more dirty data
  // than the threshold, the writer synchronously cleans it.
  if (opts_.page_cache->TotalDirtyBytes() > opts_.dirty_threshold_bytes) {
    WritebackAll();
    last_commit_ns_.store(opts_.clock->NowNs());
    return;
  }
  // Periodic journal commit (ext4 commit interval): whatever is dirty gets
  // flushed, however scattered. The FUSE writeback cache holds data far
  // longer, which is why CntrFS issues "fewer and larger writes to the
  // disk" on rewrite-heavy loads (paper §5.2.2: FIO, PGBench, TIO write).
  uint64_t now = opts_.clock->NowNs();
  uint64_t last = last_commit_ns_.load();
  if (now - last > opts_.commit_interval_ns) {
    bool have_dirty;
    {
      std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
      have_dirty = !dirty_inodes_.empty();
    }
    if (have_dirty && last_commit_ns_.compare_exchange_strong(last, now)) {
      WritebackAll();
      opts_.disk->ChargeFlush();
    }
  }
}

Status MemFs::Rename(const InodePtr& old_dir, const std::string& old_name,
                     const InodePtr& new_dir, const std::string& new_name, uint32_t flags) {
  auto* od = dynamic_cast<MemInode*>(old_dir.get());
  auto* nd = dynamic_cast<MemInode*>(new_dir.get());
  if (od == nullptr || nd == nullptr || od->memfs() != this || nd->memfs() != this) {
    return Status::Error(EXDEV);
  }
  if ((flags & kRenameNoreplace) && (flags & kRenameExchange)) {
    return Status::Error(EINVAL);
  }

  // Lock both parents in address order. The second parent is the same lock
  // class as the first, so it is acquired under the kSecondParent lockdep
  // subclass — address order makes the nesting deadlock-free, and the
  // annotation tells the validator so.
  std::unique_lock<analysis::CheckedMutex> l1;
  std::unique_lock<analysis::CheckedMutex> l2;
  if (od == nd) {
    l1 = std::unique_lock<analysis::CheckedMutex>(od->mu_);
  } else if (od < nd) {
    l1 = std::unique_lock<analysis::CheckedMutex>(od->mu_);
    nd->mu_.lock_nested(kSecondParentLockClass);
    l2 = std::unique_lock<analysis::CheckedMutex>(nd->mu_, std::adopt_lock);
  } else {
    l1 = std::unique_lock<analysis::CheckedMutex>(nd->mu_);
    od->mu_.lock_nested(kSecondParentLockClass);
    l2 = std::unique_lock<analysis::CheckedMutex>(od->mu_, std::adopt_lock);
  }

  auto src_it = od->entries_.find(old_name);
  if (src_it == od->entries_.end()) {
    return Status::Error(ENOENT);
  }
  std::shared_ptr<MemInode> victim;
  std::shared_ptr<MemInode> src = src_it->second;

  // Moving a directory into one of its own descendants is EINVAL.
  if (IsDir(src->attr_.mode)) {
    for (MemInode* probe = nd; probe != nullptr;) {
      if (probe == src.get()) {
        return Status::Error(EINVAL);
      }
      auto parent = probe->parent_.lock();
      if (parent == nullptr || parent.get() == probe) {
        break;
      }
      probe = parent.get();
    }
  }

  auto dst_it = nd->entries_.find(new_name);
  if (flags & kRenameExchange) {
    if (dst_it == nd->entries_.end()) {
      return Status::Error(ENOENT);
    }
    std::swap(src_it->second, dst_it->second);
    if (IsDir(src_it->second->attr_.mode) || IsDir(dst_it->second->attr_.mode)) {
      // Re-point parents for exchanged directories.
      if (IsDir(src_it->second->attr_.mode)) {
        src_it->second->parent_ = od->SelfPtr();
      }
      if (IsDir(dst_it->second->attr_.mode)) {
        dst_it->second->parent_ = nd->SelfPtr();
      }
    }
    od->TouchCTimeLocked();
    if (nd != od) {
      nd->TouchCTimeLocked();
    }
    opts_.clock->Advance(2 * opts_.costs->fs_inode_update_ns);
    return Status::Ok();
  }

  if (dst_it != nd->entries_.end()) {
    if (flags & kRenameNoreplace) {
      return Status::Error(EEXIST);
    }
    victim = dst_it->second;
    if (IsDir(src->attr_.mode)) {
      if (!IsDir(victim->attr_.mode)) {
        return Status::Error(ENOTDIR);
      }
      victim->mu_.lock_nested(kChildLockClass);
      std::lock_guard<analysis::CheckedMutex> vl(victim->mu_, std::adopt_lock);
      if (!victim->entries_.empty()) {
        return Status::Error(ENOTEMPTY);
      }
    } else if (IsDir(victim->attr_.mode)) {
      return Status::Error(EISDIR);
    }
  }

  // Perform the move.
  od->entries_.erase(src_it);
  if (victim != nullptr) {
    victim->mu_.lock_nested(kChildLockClass);
    std::lock_guard<analysis::CheckedMutex> vl(victim->mu_, std::adopt_lock);
    if (victim->attr_.nlink > 0) {
      --victim->attr_.nlink;
    }
    if (IsDir(victim->attr_.mode)) {
      victim->attr_.nlink = 0;
      --nd->attr_.nlink;
    }
  }
  nd->entries_[new_name] = src;
  if (IsDir(src->attr_.mode) && od != nd) {
    --od->attr_.nlink;
    ++nd->attr_.nlink;
    src->parent_ = nd->SelfPtr();
  }
  od->TouchCTimeLocked();
  if (nd != od) {
    nd->TouchCTimeLocked();
  }
  {
    src->mu_.lock_nested(kChildLockClass);
    std::lock_guard<analysis::CheckedMutex> sl(src->mu_, std::adopt_lock);
    src->attr_.ctime = Now();
  }
  opts_.clock->Advance(2 * opts_.costs->fs_inode_update_ns);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// MemInode
// ---------------------------------------------------------------------------

MemInode::MemInode(MemFs* fs, Ino ino, Mode mode, Uid uid, Gid gid, Dev rdev)
    : Inode(fs, ino), fs_(fs), fs_alive_(fs->alive_), page_cache_(fs->options().page_cache),
      disk_(fs->options().disk) {
  attr_.ino = ino;
  attr_.mode = mode;
  attr_.uid = uid;
  attr_.gid = gid;
  attr_.rdev = rdev;
  attr_.dev = fs->dev_id();
  attr_.nlink = 1;
  attr_.atime = attr_.mtime = attr_.ctime = fs->Now();
}

MemInode::~MemInode() {
  // The page cache and disk are kernel-owned and outlive every filesystem:
  // release this inode's pages and extents unconditionally, or a later
  // inode allocated at the same address would alias them.
  if (IsReg(attr_.mode) && disk_ != nullptr) {
    page_cache_->DropAll(this);
    disk_->FreeData(ino());
  }
  if (!fs_alive_->load(std::memory_order_acquire)) {
    return;  // the filesystem is gone; nothing left to balance
  }
  if (IsReg(attr_.mode)) {
    if (disk_ != nullptr) {
      fs_->ForgetDirty(this);
    }
    fs_->AccountData(-static_cast<int64_t>(attr_.size));
  }
  fs_->AccountInode(-1);
}

std::shared_ptr<MemInode> MemInode::SelfPtr() {
  return std::static_pointer_cast<MemInode>(shared_from_this());
}

StatusOr<InodeAttr> MemInode::Getattr() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  fs_->clock()->Advance(fs_->costs()->dcache_hit_ns);
  InodeAttr out = attr_;
  out.blocks = (out.size + 511) / 512;
  return out;
}

Status MemInode::Setattr(const SetattrRequest& req, const Credentials& /*cred*/) {
  if (req.size.has_value()) {
    CNTR_RETURN_IF_ERROR(TruncateData(*req.size));
  }
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (req.mode.has_value()) {
    attr_.mode = (attr_.mode & kIfMt) | (*req.mode & kPermMask);
  }
  if (req.uid.has_value()) {
    attr_.uid = *req.uid;
  }
  if (req.gid.has_value()) {
    attr_.gid = *req.gid;
  }
  if (req.atime.has_value()) {
    attr_.atime = *req.atime;
  }
  if (req.mtime.has_value()) {
    attr_.mtime = *req.mtime;
  }
  attr_.ctime = req.ctime.value_or(fs_->Now());
  metadata_dirty_ = true;
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

StatusOr<InodePtr> MemInode::Lookup(const std::string& name) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  CNTR_ASSIGN_OR_RETURN(auto child, LookupLocked(name));
  return InodePtr(child);
}

StatusOr<std::shared_ptr<MemInode>> MemInode::LookupLocked(const std::string& name) {
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  fs_->clock()->Advance(fs_->costs()->fs_lookup_ns);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::Error(ENOENT);
  }
  return it->second;
}

StatusOr<InodePtr> MemInode::Create(const std::string& name, Mode mode, Dev rdev,
                                    const Credentials& cred) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  if (entries_.count(name) != 0) {
    return Status::Error(EEXIST);
  }
  if (name.size() > 255) {
    return Status::Error(ENAMETOOLONG);
  }
  Mode type = mode & kIfMt;
  if (type == 0) {
    type = kIfReg;
  }
  if (type == kIfDir) {
    return Status::Error(EINVAL, "use Mkdir for directories");
  }
  // setgid directories propagate their group, like ext4.
  Gid gid = (attr_.mode & kModeSetGid) ? attr_.gid : cred.fsgid;
  auto child = std::make_shared<MemInode>(fs_, fs_->AllocIno(), type | (mode & kPermMask),
                                          cred.fsuid, gid, rdev);
  entries_[name] = child;
  fs_->AccountInode(1);
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return InodePtr(child);
}

StatusOr<InodePtr> MemInode::Mkdir(const std::string& name, Mode mode, const Credentials& cred) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  if (entries_.count(name) != 0) {
    return Status::Error(EEXIST);
  }
  if (name.size() > 255) {
    return Status::Error(ENAMETOOLONG);
  }
  Gid gid = (attr_.mode & kModeSetGid) ? attr_.gid : cred.fsgid;
  Mode dir_mode = kIfDir | (mode & kPermMask);
  if (attr_.mode & kModeSetGid) {
    dir_mode |= kModeSetGid;  // setgid inherits to subdirectories
  }
  auto child = std::make_shared<MemInode>(fs_, fs_->AllocIno(), dir_mode, cred.fsuid, gid, 0);
  child->attr_.nlink = 2;
  child->parent_ = SelfPtr();
  entries_[name] = child;
  ++attr_.nlink;
  fs_->AccountInode(1);
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return InodePtr(child);
}

Status MemInode::Unlink(const std::string& name) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::Error(ENOENT);
  }
  if (IsDir(it->second->attr_.mode)) {
    return Status::Error(EISDIR);
  }
  {
    it->second->mu_.lock_nested(kChildLockClass);
    std::lock_guard<analysis::CheckedMutex> cl(it->second->mu_, std::adopt_lock);
    if (it->second->attr_.nlink > 0) {
      --it->second->attr_.nlink;
    }
    it->second->attr_.ctime = fs_->Now();
  }
  entries_.erase(it);
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

Status MemInode::Rmdir(const std::string& name) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::Error(ENOENT);
  }
  auto child = it->second;
  {
    child->mu_.lock_nested(kChildLockClass);
    std::lock_guard<analysis::CheckedMutex> cl(child->mu_, std::adopt_lock);
    if (!IsDir(child->attr_.mode)) {
      return Status::Error(ENOTDIR);
    }
    if (!child->entries_.empty()) {
      return Status::Error(ENOTEMPTY);
    }
    child->attr_.nlink = 0;
  }
  entries_.erase(it);
  --attr_.nlink;
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

Status MemInode::Link(const std::string& name, const InodePtr& target) {
  auto mem_target = std::dynamic_pointer_cast<MemInode>(target);
  if (mem_target == nullptr || mem_target->fs_ != fs_) {
    return Status::Error(EXDEV);
  }
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  if (entries_.count(name) != 0) {
    return Status::Error(EEXIST);
  }
  {
    mem_target->mu_.lock_nested(kChildLockClass);
    std::lock_guard<analysis::CheckedMutex> tl(mem_target->mu_, std::adopt_lock);
    if (IsDir(mem_target->attr_.mode)) {
      return Status::Error(EPERM);
    }
    ++mem_target->attr_.nlink;
    mem_target->attr_.ctime = fs_->Now();
  }
  entries_[name] = mem_target;
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

StatusOr<InodePtr> MemInode::Symlink(const std::string& name, const std::string& target,
                                     const Credentials& cred) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  if (entries_.count(name) != 0) {
    return Status::Error(EEXIST);
  }
  auto child =
      std::make_shared<MemInode>(fs_, fs_->AllocIno(), kIfLnk | 0777, cred.fsuid, cred.fsgid, 0);
  child->symlink_target_ = target;
  child->attr_.size = target.size();
  entries_[name] = child;
  fs_->AccountInode(1);
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return InodePtr(child);
}

StatusOr<std::vector<DirEntry>> MemInode::Readdir() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  fs_->clock()->Advance(fs_->costs()->fs_lookup_ns);
  std::vector<DirEntry> out;
  out.reserve(entries_.size() + 2);
  out.push_back(DirEntry{".", attr_.ino, DType::kDir});
  auto parent = parent_.lock();
  out.push_back(DirEntry{"..", parent != nullptr ? parent->attr_.ino : attr_.ino, DType::kDir});
  for (const auto& [name, child] : entries_) {
    out.push_back(DirEntry{name, child->attr_.ino, ModeToDType(child->attr_.mode)});
  }
  return out;
}

StatusOr<std::string> MemInode::Readlink() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsLnk(attr_.mode)) {
    return Status::Error(EINVAL);
  }
  fs_->clock()->Advance(fs_->costs()->dcache_hit_ns);
  return symlink_target_;
}

StatusOr<FilePtr> MemInode::Open(int flags, const Credentials& /*cred*/) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if ((flags & kODirect) && !fs_->options().support_odirect) {
    return Status::Error(EINVAL, "O_DIRECT not supported");
  }
  if (IsLnk(attr_.mode)) {
    return Status::Error(ELOOP);
  }
  if (IsDir(attr_.mode) && WantsWrite(flags)) {
    return Status::Error(EISDIR);
  }
  attr_.atime = fs_->Now();
  return FilePtr(std::make_shared<MemFile>(SelfPtr(), flags));
}

Status MemInode::SetXattr(const std::string& name, const std::string& value, int flags) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = xattrs_.find(name);
  if ((flags & kXattrCreate) && it != xattrs_.end()) {
    return Status::Error(EEXIST);
  }
  if ((flags & kXattrReplace) && it == xattrs_.end()) {
    return Status::Error(ENODATA);
  }
  xattrs_[name] = value;
  attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

StatusOr<std::string> MemInode::GetXattr(const std::string& name) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  fs_->clock()->Advance(fs_->costs()->fs_xattr_lookup_ns);
  auto it = xattrs_.find(name);
  if (it == xattrs_.end()) {
    return Status::Error(ENODATA);
  }
  return it->second;
}

StatusOr<std::vector<std::string>> MemInode::ListXattr() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  fs_->clock()->Advance(fs_->costs()->fs_xattr_lookup_ns);
  std::vector<std::string> out;
  out.reserve(xattrs_.size());
  for (const auto& [name, _] : xattrs_) {
    out.push_back(name);
  }
  return out;
}

Status MemInode::RemoveXattr(const std::string& name) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (xattrs_.erase(name) == 0) {
    return Status::Error(ENODATA);
  }
  attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

StatusOr<uint64_t> MemInode::ExportHandle() { return ino(); }

StatusOr<InodePtr> MemInode::Parent() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsDir(attr_.mode)) {
    return Status::Error(ENOTDIR);
  }
  auto parent = parent_.lock();
  if (parent == nullptr) {
    return InodePtr(SelfPtr());
  }
  return InodePtr(parent);
}

bool MemInode::IsEmptyDir() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  return IsDir(attr_.mode) && entries_.empty();
}

void MemInode::TouchCTimeLocked() { attr_.mtime = attr_.ctime = fs_->Now(); }

uint64_t MemInode::size() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  return attr_.size;
}

// --- data plane ---

void MemInode::CopyInlineLocked(uint64_t off, size_t len, char* dst) const {
  size_t stored =
      off < inline_data_.size() ? std::min<uint64_t>(len, inline_data_.size() - off) : 0;
  if (stored > 0) {
    std::memcpy(dst, inline_data_.data() + off, stored);
  }
  std::memset(dst + stored, 0, len - stored);
}

StatusOr<size_t> MemInode::ReadData(char* buf, size_t count, uint64_t off, bool direct,
                                    FileReadahead* ra) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsReg(attr_.mode)) {
    return Status::Error(EINVAL);
  }
  if (off >= attr_.size || count == 0) {
    return size_t{0};
  }
  count = std::min<uint64_t>(count, attr_.size - off);
  attr_.atime = fs_->Now();

  const MemFs::Options& opts = fs_->options();
  if (opts.disk == nullptr) {
    // tmpfs: straight memory copy.
    CopyInlineLocked(off, count, buf);
    fs_->clock()->Advance(((count + kPageSize - 1) / kPageSize) * fs_->costs()->copy_page_ns);
    return count;
  }

  if (direct) {
    opts.disk->ChargeRead(count, 1);
    opts.disk->ReadData(ino(), off, count, buf);
    return count;
  }

  uint64_t first = off / kPageSize;
  uint64_t last = (off + count - 1) / kPageSize;
  char page[kPageSize];
  for (uint64_t idx = first; idx <= last; ++idx) {
    if (!opts.page_cache->ReadPage(this, idx, page)) {
      // Miss: fill a readahead window in one device op. The window ramps
      // with this open file's access pattern (sequential doubles toward the
      // readahead_pages ceiling, random collapses).
      uint64_t eof_page = attr_.size == 0 ? 0 : (attr_.size - 1) / kPageSize;
      // Window-grid-aligned fill; the ramp state sizes it per access
      // pattern (see kernel/readahead.h), fixed window otherwise.
      uint32_t window = std::max<uint32_t>(1, opts.readahead_pages);
      uint32_t run = ra != nullptr ? ra->OnMiss(idx, window)
                                   : window - static_cast<uint32_t>(idx % window);
      run = static_cast<uint32_t>(std::min<uint64_t>(run, eof_page - idx + 1));
      FillFromDiskLocked(idx, run);
      if (!opts.page_cache->ReadPage(this, idx, page)) {
        return Status::Error(EIO, "page fill failed");
      }
    }
    uint64_t page_start = idx * kPageSize;
    uint64_t copy_from = std::max(off, page_start);
    uint64_t copy_to = std::min(off + count, page_start + kPageSize);
    std::memcpy(buf + (copy_from - off), page + (copy_from - page_start), copy_to - copy_from);
    fs_->clock()->Advance(fs_->costs()->copy_page_ns);
  }
  return count;
}

StatusOr<size_t> MemInode::WriteData(const char* buf, size_t count, uint64_t off, bool direct) {
  bool maybe_writeback = false;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    if (!IsReg(attr_.mode)) {
      return Status::Error(EINVAL);
    }
    if (count == 0) {
      return size_t{0};
    }
    const MemFs::Options& opts = fs_->options();
    uint64_t new_size = std::max<uint64_t>(attr_.size, off + count);
    if (fs_->options().capacity_bytes != UINT64_MAX && new_size > attr_.size) {
      // Whole-fs capacity check (approximate but monotone).
      int64_t projected = fs_->used_bytes() + static_cast<int64_t>(new_size - attr_.size);
      if (static_cast<uint64_t>(projected) > fs_->options().capacity_bytes) {
        return Status::Error(ENOSPC);
      }
    }

    if (opts.disk == nullptr) {
      if (inline_data_.size() < off + count) {
        inline_data_.resize(off + count, 0);
      }
      std::memcpy(inline_data_.data() + off, buf, count);
      fs_->clock()->Advance(((count + kPageSize - 1) / kPageSize) * fs_->costs()->copy_page_ns);
    } else if (direct) {
      opts.disk->WriteData(ino(), off, count, buf);
      opts.disk->ChargeDirectWrite(count, 1);
    } else {
      uint64_t first = off / kPageSize;
      uint64_t last = (off + count - 1) / kPageSize;
      uint64_t newly_dirty_pages = 0;
      char page[kPageSize];
      for (uint64_t idx = first; idx <= last; ++idx) {
        uint64_t page_start = idx * kPageSize;
        uint32_t in_off = static_cast<uint32_t>(std::max(off, page_start) - page_start);
        uint32_t in_end =
            static_cast<uint32_t>(std::min(off + count, page_start + kPageSize) - page_start);
        const char* src = buf + (std::max(off, page_start) - off);
        if (in_off == 0 && in_end == kPageSize) {
          if (opts.page_cache->StorePage(this, idx, src, /*dirty=*/true)) {
            ++newly_dirty_pages;
          }
        } else {
          auto res = opts.page_cache->UpdatePage(this, idx, in_off, in_end - in_off, src,
                                                 /*mark_dirty=*/true);
          if (res == PageCachePool::UpdateResult::kNotResident) {
            // Read-modify-write of a non-resident page.
            if (page_start < attr_.size) {
              FillFromDiskLocked(idx, 1);
              res = opts.page_cache->UpdatePage(this, idx, in_off, in_end - in_off, src, true);
              if (res == PageCachePool::UpdateResult::kNewlyDirty) {
                ++newly_dirty_pages;
              }
            } else {
              std::memset(page, 0, kPageSize);
              std::memcpy(page + in_off, src, in_end - in_off);
              if (opts.page_cache->StorePage(this, idx, page, /*dirty=*/true)) {
                ++newly_dirty_pages;
              }
            }
          } else if (res == PageCachePool::UpdateResult::kNewlyDirty) {
            ++newly_dirty_pages;
          }
        }
        fs_->clock()->Advance(fs_->costs()->copy_page_ns);
      }
      if (newly_dirty_pages > 0 && !dirty_registered_) {
        dirty_registered_ = true;
        fs_->NoteDirty(this);
      }
      maybe_writeback = true;
    }

    if (new_size != attr_.size) {
      fs_->AccountData(static_cast<int64_t>(new_size) - static_cast<int64_t>(attr_.size));
      attr_.size = new_size;
    }
    attr_.mtime = attr_.ctime = fs_->Now();
  }
  if (maybe_writeback) {
    fs_->MaybeBackgroundWriteback();
  }
  return count;
}

StatusOr<std::vector<splice::PageRef>> MemInode::ReadPageRefs(size_t count, uint64_t off,
                                                              FileReadahead* ra) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (!IsReg(attr_.mode)) {
    return Status::Error(EINVAL);
  }
  if (off % kPageSize != 0) {
    return Status::Error(EINVAL, "splice read offset must be page-aligned");
  }
  std::vector<splice::PageRef> out;
  if (off >= attr_.size || count == 0) {
    return out;
  }
  count = std::min<uint64_t>(count, attr_.size - off);
  attr_.atime = fs_->Now();

  const MemFs::Options& opts = fs_->options();
  uint64_t first = off / kPageSize;
  uint64_t last = (off + count - 1) / kPageSize;
  out.reserve(last - first + 1);

  if (opts.disk == nullptr) {
    // tmpfs: the payload is anonymous inline memory, not cached pages — the
    // refs are private copies, which leave here unique (stealable).
    for (uint64_t idx = first; idx <= last; ++idx) {
      uint64_t page_start = idx * kPageSize;
      uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>(kPageSize, off + count - page_start));
      splice::PageRef ref = splice::PageRef::Alloc(len);
      CopyInlineLocked(page_start, len, ref.mutable_data());
      out.push_back(std::move(ref));
      fs_->clock()->Advance(fs_->costs()->copy_page_ns);
    }
    return out;
  }

  for (uint64_t idx = first; idx <= last; ++idx) {
    auto ref = opts.page_cache->GetPageRef(this, idx);  // splice rate on hit
    if (!ref.has_value()) {
      uint64_t eof_page = attr_.size == 0 ? 0 : (attr_.size - 1) / kPageSize;
      uint32_t window = std::max<uint32_t>(1, opts.readahead_pages);
      uint32_t run = ra != nullptr ? ra->OnMiss(idx, window)
                                   : window - static_cast<uint32_t>(idx % window);
      run = static_cast<uint32_t>(std::min<uint64_t>(run, eof_page - idx + 1));
      FillFromDiskLocked(idx, run);
      ref = opts.page_cache->GetPageRef(this, idx);
      if (!ref.has_value()) {
        return Status::Error(EIO, "page fill failed");
      }
    }
    uint64_t page_start = idx * kPageSize;
    uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(kPageSize, off + count - page_start));
    out.push_back(len == kPageSize ? *ref : ref->WithLen(len));
  }
  return out;
}

StatusOr<size_t> MemInode::WritePageRefs(const std::vector<splice::PageRef>& pages,
                                         uint64_t off) {
  size_t count = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    // Only the tail may be short: refs land on consecutive page slots.
    if (pages[i].len < kPageSize && i + 1 != pages.size()) {
      return Status::Error(EINVAL, "short page ref before the tail");
    }
    count += pages[i].len;
  }
  if (count == 0) {
    return size_t{0};
  }
  bool maybe_writeback = false;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    if (!IsReg(attr_.mode)) {
      return Status::Error(EINVAL);
    }
    if (off % kPageSize != 0) {
      return Status::Error(EINVAL, "splice write offset must be page-aligned");
    }
    const MemFs::Options& opts = fs_->options();
    uint64_t new_size = std::max<uint64_t>(attr_.size, off + count);
    if (opts.capacity_bytes != UINT64_MAX && new_size > attr_.size) {
      int64_t projected = fs_->used_bytes() + static_cast<int64_t>(new_size - attr_.size);
      if (static_cast<uint64_t>(projected) > opts.capacity_bytes) {
        return Status::Error(ENOSPC);
      }
    }

    if (opts.disk == nullptr) {
      // tmpfs: no page cache to adopt into — copy fallback per page.
      if (inline_data_.size() < off + count) {
        inline_data_.resize(off + count, 0);
      }
      uint64_t pos = off;
      for (const splice::PageRef& ref : pages) {
        std::memcpy(inline_data_.data() + pos, ref.data(), ref.len);
        pos += ref.len;
        fs_->clock()->Advance(fs_->costs()->copy_page_ns);
      }
    } else {
      uint64_t idx = off / kPageSize;
      uint64_t newly_dirty_pages = 0;
      for (const splice::PageRef& ref : pages) {
        if (ref.len == kPageSize) {
          auto res = opts.page_cache->StorePageRef(this, idx, ref, /*dirty=*/true,
                                                   /*allow_alias=*/true);
          if (res.newly_dirty) {
            ++newly_dirty_pages;
          }
          fs_->clock()->Advance(res.mode == PageCachePool::StoreRefMode::kCopied
                                    ? fs_->costs()->copy_page_ns
                                    : fs_->costs()->splice_page_ns);
        } else {
          // Short tail: read-modify-write through the byte path (a partial
          // page can never be adopted whole).
          uint64_t page_start = idx * kPageSize;
          auto res = opts.page_cache->UpdatePage(this, idx, 0, ref.len, ref.data(),
                                                 /*mark_dirty=*/true);
          if (res == PageCachePool::UpdateResult::kNotResident) {
            if (page_start < attr_.size) {
              FillFromDiskLocked(idx, 1);
              res = opts.page_cache->UpdatePage(this, idx, 0, ref.len, ref.data(), true);
              if (res == PageCachePool::UpdateResult::kNewlyDirty) {
                ++newly_dirty_pages;
              }
            } else {
              char page[kPageSize];
              std::memset(page, 0, kPageSize);
              std::memcpy(page, ref.data(), ref.len);
              if (opts.page_cache->StorePage(this, idx, page, /*dirty=*/true)) {
                ++newly_dirty_pages;
              }
            }
          } else if (res == PageCachePool::UpdateResult::kNewlyDirty) {
            ++newly_dirty_pages;
          }
          fs_->clock()->Advance(fs_->costs()->copy_page_ns);
        }
        ++idx;
      }
      if (newly_dirty_pages > 0 && !dirty_registered_) {
        dirty_registered_ = true;
        fs_->NoteDirty(this);
      }
      maybe_writeback = true;
    }

    if (new_size != attr_.size) {
      fs_->AccountData(static_cast<int64_t>(new_size) - static_cast<int64_t>(attr_.size));
      attr_.size = new_size;
    }
    attr_.mtime = attr_.ctime = fs_->Now();
  }
  if (maybe_writeback) {
    fs_->MaybeBackgroundWriteback();
  }
  return count;
}

Status MemInode::TruncateData(uint64_t new_size) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (IsDir(attr_.mode)) {
    return Status::Error(EISDIR);
  }
  if (!IsReg(attr_.mode)) {
    return Status::Error(EINVAL);
  }
  const MemFs::Options& opts = fs_->options();
  if (opts.disk == nullptr) {
    // Growing leaves a hole (sparse, like tmpfs); shrinking cuts the stored
    // prefix, so the cut bytes read as zeros if the file grows again.
    if (new_size < inline_data_.size()) {
      inline_data_.resize(new_size);
    }
  } else {
    opts.page_cache->TruncatePages(this, new_size);
    opts.disk->TruncateData(ino(), new_size);
  }
  fs_->AccountData(static_cast<int64_t>(new_size) - static_cast<int64_t>(attr_.size));
  attr_.size = new_size;
  attr_.mtime = attr_.ctime = fs_->Now();
  fs_->clock()->Advance(fs_->costs()->fs_inode_update_ns);
  return Status::Ok();
}

Status MemInode::FsyncData(bool datasync) {
  const MemFs::Options& opts = fs_->options();
  if (opts.disk == nullptr) {
    return Status::Ok();
  }
  fs_->WritebackInode(this);
  // Journal commit: data is durable only after the barrier.
  opts.disk->ChargeFlush();
  // Explicit metadata updates (setattr) commit in their own transaction.
  bool metadata_commit = false;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    if (metadata_dirty_ && !datasync) {
      metadata_dirty_ = false;
      metadata_commit = true;
    }
  }
  if (metadata_commit) {
    opts.disk->ChargeFlush();
  }
  return Status::Ok();
}

uint32_t MemInode::FlushDirtyPages() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  const MemFs::Options& opts = fs_->options();
  if (opts.disk == nullptr) {
    return 0;
  }
  std::vector<uint64_t> dirty = opts.page_cache->DirtyPages(this);
  if (dirty.empty()) {
    dirty_registered_ = false;
    return 0;
  }
  char page[kPageSize];
  uint64_t bytes = 0;
  for (uint64_t idx : dirty) {
    if (!opts.page_cache->PeekPage(this, idx, page)) {
      continue;
    }
    uint64_t page_start = idx * kPageSize;
    uint64_t len = std::min<uint64_t>(kPageSize, attr_.size > page_start ? attr_.size - page_start : 0);
    if (len > 0) {
      opts.disk->WriteData(ino(), page_start, len, page);
      bytes += len;
    }
    opts.page_cache->MarkClean(this, idx);
  }
  uint32_t extents = CountExtents(dirty);
  opts.disk->ChargeWrite(bytes, extents);
  dirty_registered_ = false;
  return extents;
}

void MemInode::FillFromDiskLocked(uint64_t page_idx, uint32_t pages) {
  const MemFs::Options& opts = fs_->options();
  if (pages == 0) {
    pages = 1;
  }
  char page[kPageSize];
  uint32_t fetched = 0;
  for (uint32_t i = 0; i < pages; ++i) {
    uint64_t idx = page_idx + i;
    if (opts.page_cache->HasPage(this, idx)) {
      continue;  // never clobber a resident (possibly dirty) page
    }
    opts.disk->ReadData(ino(), idx * kPageSize, kPageSize, page);
    opts.page_cache->StorePage(this, idx, page, /*dirty=*/false);
    ++fetched;
  }
  if (fetched > 0) {
    opts.disk->ChargeRead(static_cast<uint64_t>(fetched) * kPageSize, 1);
  }
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::shared_ptr<MemFs> MakeTmpFs(Dev dev_id, SimClock* clock, const CostModel* costs,
                                 uint64_t capacity_bytes) {
  MemFs::Options opts;
  opts.type_name = "tmpfs";
  opts.clock = clock;
  opts.costs = costs;
  opts.capacity_bytes = capacity_bytes;
  return MemFs::Create(dev_id, std::move(opts));
}

std::shared_ptr<MemFs> MakeExtFs(Dev dev_id, SimClock* clock, const CostModel* costs,
                                 DiskModel* disk, PageCachePool* page_cache,
                                 uint64_t dirty_threshold_bytes) {
  MemFs::Options opts;
  opts.type_name = "ext4";
  opts.clock = clock;
  opts.costs = costs;
  opts.disk = disk;
  opts.page_cache = page_cache;
  opts.dirty_threshold_bytes = dirty_threshold_bytes;
  return MemFs::Create(dev_id, std::move(opts));
}

}  // namespace cntr::kernel
