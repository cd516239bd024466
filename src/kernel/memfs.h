// MemFs: the disk-class filesystem of the simulated kernel.
//
// One implementation serves two roles:
//  * TmpFs   — no disk model; data lives in anonymous memory (used for
//              xfstests, /proc-style scratch, and container scratch space).
//  * ExtFs   — backed by a DiskModel and the shared PageCachePool, with an
//              ext4-like dirty threshold and journal-commit fsync. This is
//              the "ext4 on EBS" stand-in the paper benchmarks against.
//
// CntrFS (src/core/cntrfs) serves *through* this filesystem on the server
// side, so its costs stack on top of these, exactly as FUSE stacks on ext4.
#ifndef CNTR_SRC_KERNEL_MEMFS_H_
#define CNTR_SRC_KERNEL_MEMFS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/kernel/disk.h"
#include "src/kernel/filesystem.h"
#include "src/kernel/inode.h"
#include "src/kernel/page_cache.h"
#include "src/kernel/readahead.h"
#include "src/kernel/types.h"
#include "src/util/sim_clock.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

class MemInode;

class MemFs : public FileSystem, public std::enable_shared_from_this<MemFs> {
 public:
  struct Options {
    std::string type_name = "tmpfs";
    SimClock* clock = nullptr;
    const CostModel* costs = nullptr;
    // Disk backing; null = tmpfs semantics. When set, page_cache must be set.
    DiskModel* disk = nullptr;
    PageCachePool* page_cache = nullptr;
    // Background-writeback trigger, like vm.dirty_bytes.
    uint64_t dirty_threshold_bytes = 16ull << 20;
    // Journal commit interval (ext4's commit=5 mount option, scaled to the
    // simulation's time scale). Dirty data is flushed at least this often —
    // the mechanism that makes native ext4 issue "more and smaller" disk
    // writes than the FUSE writeback cache, which holds data much longer
    // (paper §5.2.2: FIO, PGBench, Threaded I/O write).
    uint64_t commit_interval_ns = 80'000'000;
    uint64_t capacity_bytes = UINT64_MAX;
    uint64_t max_inodes = 1ull << 20;
    bool support_odirect = true;
    // Readahead ceiling in pages. The per-open-file ramp (FileReadahead)
    // sizes the actual miss-fill window below this: sequential streams
    // double toward it, random access collapses to a page or two. Internal
    // fills without ramp state use it as a fixed window, as before.
    uint32_t readahead_pages = 32;
  };

  static std::shared_ptr<MemFs> Create(Dev dev_id, Options opts);
  ~MemFs() override;

  InodePtr root() override;
  std::string Type() const override { return opts_.type_name; }
  StatusOr<StatFs> Statfs() override;
  Status Rename(const InodePtr& old_dir, const std::string& old_name, const InodePtr& new_dir,
                const std::string& new_name, uint32_t flags) override;
  Status Sync() override;

  const Options& options() const { return opts_; }
  bool disk_backed() const { return opts_.disk != nullptr; }

  // Flushes every dirty page of the filesystem (one write op per extent).
  void WritebackAll();
  // Flushes dirty pages of one inode; returns extents written.
  uint32_t WritebackInode(MemInode* inode);

  // --- internal services for MemInode ---
  Ino AllocIno() { return next_ino_.fetch_add(1); }
  Timespec Now() const { return Timespec::FromNs(opts_.clock->NowNs()); }
  SimClock* clock() const { return opts_.clock; }
  const CostModel* costs() const { return opts_.costs; }
  void AccountData(int64_t delta) { used_bytes_.fetch_add(delta); }
  void AccountInode(int64_t delta) { used_inodes_.fetch_add(delta); }
  int64_t used_bytes() const { return used_bytes_.load(); }
  void NoteDirty(MemInode* inode);
  void ForgetDirty(MemInode* inode);
  void MaybeBackgroundWriteback();

 private:
  friend class MemInode;

  explicit MemFs(Dev dev_id, Options opts);

  Options opts_;
  // "Superblock alive" flag shared with every inode: a dcache entry, fd
  // table, or bound socket can keep an inode alive past the filesystem (the
  // kernel model has no s_active pinning), and its destructor must then
  // skip the accounting callbacks into freed fs memory.
  std::shared_ptr<std::atomic<bool>> alive_ = std::make_shared<std::atomic<bool>>(true);
  std::shared_ptr<MemInode> root_;
  std::atomic<Ino> next_ino_{2};  // root is ino 1
  std::atomic<int64_t> used_bytes_{0};
  std::atomic<int64_t> used_inodes_{0};

  analysis::CheckedMutex dirty_mu_{"kernel.memfs.dirty"};
  std::vector<MemInode*> dirty_inodes_;  // insertion order = flush order
  std::atomic<uint64_t> last_commit_ns_{0};
};

// A single inode of MemFs. Directories hold entries and a parent pointer;
// regular files hold data either inline (tmpfs) or via disk + page cache.
class MemInode : public Inode {
 public:
  MemInode(MemFs* fs, Ino ino, Mode mode, Uid uid, Gid gid, Dev rdev);
  ~MemInode() override;

  // --- Inode interface ---
  StatusOr<InodeAttr> Getattr() override;
  Status Setattr(const SetattrRequest& req, const Credentials& cred) override;
  StatusOr<InodePtr> Lookup(const std::string& name) override;
  StatusOr<InodePtr> Create(const std::string& name, Mode mode, Dev rdev,
                            const Credentials& cred) override;
  StatusOr<InodePtr> Mkdir(const std::string& name, Mode mode, const Credentials& cred) override;
  Status Unlink(const std::string& name) override;
  Status Rmdir(const std::string& name) override;
  Status Link(const std::string& name, const InodePtr& target) override;
  StatusOr<InodePtr> Symlink(const std::string& name, const std::string& target,
                             const Credentials& cred) override;
  StatusOr<std::vector<DirEntry>> Readdir() override;
  StatusOr<std::string> Readlink() override;
  StatusOr<FilePtr> Open(int flags, const Credentials& cred) override;
  Status SetXattr(const std::string& name, const std::string& value, int flags) override;
  StatusOr<std::string> GetXattr(const std::string& name) override;
  StatusOr<std::vector<std::string>> ListXattr() override;
  Status RemoveXattr(const std::string& name) override;
  StatusOr<uint64_t> ExportHandle() override;

  // Parent directory (fs-root returns itself). Used by ".." resolution.
  StatusOr<InodePtr> Parent() override;

  // --- data plane (called from MemFile) ---
  // `ra` is the calling open file's readahead ramp state; null keeps the
  // fixed readahead_pages window (internal fills).
  StatusOr<size_t> ReadData(char* buf, size_t count, uint64_t off, bool direct,
                            FileReadahead* ra = nullptr);
  StatusOr<size_t> WriteData(const char* buf, size_t count, uint64_t off, bool direct);
  // Splice data plane: serves/accepts payload as page references. On the
  // disk-backed role these alias (or adopt) pages of the shared cache, so a
  // CNTRFS READ reply can travel without a single byte copy; on the tmpfs
  // role they degrade to copies of the inline payload. `off` must be
  // page-aligned.
  StatusOr<std::vector<splice::PageRef>> ReadPageRefs(size_t count, uint64_t off,
                                                      FileReadahead* ra = nullptr);
  StatusOr<size_t> WritePageRefs(const std::vector<splice::PageRef>& pages, uint64_t off);
  Status TruncateData(uint64_t new_size);
  Status FsyncData(bool datasync);
  uint64_t size() const;

  MemFs* memfs() const { return fs_; }

  // shared_from_this downcast to MemInode.
  std::shared_ptr<MemInode> SelfPtr();

  // Writeback support (called by MemFs under no inode lock).
  uint32_t FlushDirtyPages();

 private:
  friend class MemFs;

  void TouchCTimeLocked();
  StatusOr<std::shared_ptr<MemInode>> LookupLocked(const std::string& name);
  // Reads pages [idx, idx+n) from the disk store into the page cache.
  void FillFromDiskLocked(uint64_t page_idx, uint32_t pages);
  // Copies [off, off+len) of the tmpfs payload to `dst`; the hole past
  // inline_data_ reads as zeros.
  void CopyInlineLocked(uint64_t off, size_t len, char* dst) const;

  MemFs* fs_;
  std::shared_ptr<std::atomic<bool>> fs_alive_;  // MemFs::alive_
  PageCachePool* page_cache_;  // kernel-owned; outlives any filesystem
  DiskModel* disk_;            // kernel-owned; null for pure tmpfs
  mutable analysis::CheckedMutex mu_{"kernel.memfs.inode"};
  InodeAttr attr_;
  std::map<std::string, std::shared_ptr<MemInode>> entries_;  // directories
  std::weak_ptr<MemInode> parent_;                            // directories
  std::string symlink_target_;
  std::map<std::string, std::string> xattrs_;
  // tmpfs payload: the stored prefix of the file. The rest of attr_.size
  // is a hole that reads as zeros, so a truncate that grows a file stores
  // nothing (sized-but-empty image payloads cost no memory).
  std::vector<char> inline_data_;
  bool dirty_registered_ = false;
  // Set by Setattr: ext4 commits explicit metadata updates in their own
  // journal transaction, so the next fsync pays a second barrier. The FUSE
  // writeback cache's mtime flush (SETATTR before FSYNC) hits this path —
  // one mechanism behind the paper's SQLite overhead (§5.2.2).
  bool metadata_dirty_ = false;
};

// Factory helpers with paper-relevant defaults.
std::shared_ptr<MemFs> MakeTmpFs(Dev dev_id, SimClock* clock, const CostModel* costs,
                                 uint64_t capacity_bytes = UINT64_MAX);
std::shared_ptr<MemFs> MakeExtFs(Dev dev_id, SimClock* clock, const CostModel* costs,
                                 DiskModel* disk, PageCachePool* page_cache,
                                 uint64_t dirty_threshold_bytes = 16ull << 20);

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_MEMFS_H_
