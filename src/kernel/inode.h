// The VFS inode interface of the simulated kernel.
//
// Filesystems (tmpfs/extfs, procfs, devfs, and the kernel side of FUSE)
// implement this interface; the Kernel syscall facade performs path
// resolution and permission checks, then dispatches to these virtual ops —
// the same split Linux uses between namei/VFS and the filesystem drivers.
#ifndef CNTR_SRC_KERNEL_INODE_H_
#define CNTR_SRC_KERNEL_INODE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/cred.h"
#include "src/kernel/types.h"
#include "src/util/status.h"

namespace cntr::kernel {

class FileSystem;
class FileDescription;
class Inode;

using InodePtr = std::shared_ptr<Inode>;
using FilePtr = std::shared_ptr<FileDescription>;

// Full stat(2)-shaped attributes.
struct InodeAttr {
  Ino ino = 0;
  Mode mode = 0;
  uint32_t nlink = 1;
  Uid uid = 0;
  Gid gid = 0;
  uint64_t size = 0;
  uint64_t blocks = 0;  // 512-byte units, like st_blocks
  uint32_t blksize = kPageSize;
  Dev dev = 0;
  Dev rdev = 0;
  Timespec atime;
  Timespec mtime;
  Timespec ctime;
};

// setattr(2)-shaped request: only the set fields are applied.
struct SetattrRequest {
  std::optional<Mode> mode;
  std::optional<Uid> uid;
  std::optional<Gid> gid;
  std::optional<uint64_t> size;
  std::optional<Timespec> atime;
  std::optional<Timespec> mtime;
  std::optional<Timespec> ctime;

  bool empty() const {
    return !mode && !uid && !gid && !size && !atime && !mtime && !ctime;
  }
};

class Inode : public std::enable_shared_from_this<Inode> {
 public:
  Inode(FileSystem* fs, Ino ino)
      : fs_(fs), ino_(ino), id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {}
  virtual ~Inode() = default;

  Inode(const Inode&) = delete;
  Inode& operator=(const Inode&) = delete;

  FileSystem* fs() const { return fs_; }
  Ino ino() const { return ino_; }
  // Kernel-wide identity of this inode object, never reused. Caches keyed
  // per inode (dentries, xattr probes, bound sockets) key on it rather than
  // on the object's address: the allocator hands a freed inode's address to
  // the next one, which would inherit the dead inode's entries.
  uint64_t id() const { return id_; }

  // --- metadata ---
  virtual StatusOr<InodeAttr> Getattr() = 0;
  virtual Status Setattr(const SetattrRequest& req, const Credentials& cred);

  // --- directory ops (default: ENOTDIR) ---
  virtual StatusOr<InodePtr> Lookup(const std::string& name);
  // Creates a regular file, fifo, socket or device node depending on the
  // type bits in `mode`; `rdev` is for device nodes.
  virtual StatusOr<InodePtr> Create(const std::string& name, Mode mode, Dev rdev,
                                    const Credentials& cred);
  virtual StatusOr<InodePtr> Mkdir(const std::string& name, Mode mode, const Credentials& cred);
  virtual Status Unlink(const std::string& name);
  virtual Status Rmdir(const std::string& name);
  virtual Status Link(const std::string& name, const InodePtr& target);
  virtual StatusOr<InodePtr> Symlink(const std::string& name, const std::string& target,
                                     const Credentials& cred);
  virtual StatusOr<std::vector<DirEntry>> Readdir();

  // --- symlink ---
  virtual StatusOr<std::string> Readlink();

  // --- file ops ---
  virtual StatusOr<FilePtr> Open(int flags, const Credentials& cred);

  // --- extended attributes (default: ENOTSUP) ---
  virtual Status SetXattr(const std::string& name, const std::string& value, int flags);
  virtual StatusOr<std::string> GetXattr(const std::string& name);
  virtual StatusOr<std::vector<std::string>> ListXattr();
  virtual Status RemoveXattr(const std::string& name);

  // Stable identity for export (name_to_handle_at). Filesystems whose inodes
  // are not persistent (FUSE) return EOPNOTSUPP — paper §5.1, failed test
  // #426 models exactly this.
  virtual StatusOr<uint64_t> ExportHandle();

  // Parent directory, used by the path walker for ".." (directories only;
  // a filesystem root returns itself). Default: ENOTDIR.
  virtual StatusOr<InodePtr> Parent();

 private:
  inline static std::atomic<uint64_t> next_id_{1};

  FileSystem* fs_;
  Ino ino_;
  uint64_t id_;
};

// Mode-aware permission check used by the VFS layer (mask is a combination
// of kAccessRead/Write/Exec). Mirrors generic_permission():
// owner/group/other bits plus CAP_DAC_OVERRIDE / CAP_DAC_READ_SEARCH.
Status CheckAccess(const InodeAttr& attr, const Credentials& cred, int mask);

// Returns true if `cred` may change attributes per chown/chmod rules.
bool MayChown(const InodeAttr& attr, const Credentials& cred, Uid new_uid, Gid new_gid);
bool MayChmod(const InodeAttr& attr, const Credentials& cred);

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_INODE_H_
