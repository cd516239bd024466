// Mount table and mount namespaces.
//
// CNTR's core trick (paper §3.2.3) is mount-namespace surgery: enter the
// container's mount namespace, unshare a nested one, mark everything private,
// mount CntrFS at a staging root, move the old mounts under
// /var/lib/cntr, bind /proc and /dev back in, and chroot. All of those
// operations exist here with Linux semantics.
#ifndef CNTR_SRC_KERNEL_MOUNT_H_
#define CNTR_SRC_KERNEL_MOUNT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/kernel/filesystem.h"
#include "src/kernel/inode.h"
#include "src/kernel/namespaces.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

class Mount;
using MountPtr = std::shared_ptr<Mount>;

// One mounted instance of a filesystem (or of a subtree, for bind mounts).
class Mount : public std::enable_shared_from_this<Mount> {
 public:
  Mount(std::shared_ptr<FileSystem> fs, InodePtr root, uint64_t flags)
      : fs_(std::move(fs)), root_(std::move(root)), flags_(flags), id_(next_id_.fetch_add(1)) {}

  const std::shared_ptr<FileSystem>& fs() const { return fs_; }
  const InodePtr& root() const { return root_; }
  uint64_t flags() const { return flags_; }
  void set_flags(uint64_t flags) { flags_ = flags; }
  bool read_only() const { return (flags_ & kMsRdonly) != 0; }
  int id() const { return id_; }

  // Tree position (guarded by the owning namespace).
  const MountPtr& parent() const { return parent_; }
  const InodePtr& mountpoint() const { return mountpoint_; }
  void Attach(MountPtr parent, InodePtr mountpoint) {
    parent_ = std::move(parent);
    mountpoint_ = std::move(mountpoint);
  }
  void Detach() {
    parent_ = nullptr;
    mountpoint_ = nullptr;
  }

  // Propagation type; the container runtime mounts everything private, and
  // CNTR re-marks the nested namespace private before mutating it.
  bool propagation_private() const { return private_; }
  void set_propagation_private(bool v) { private_ = v; }

 private:
  std::shared_ptr<FileSystem> fs_;
  InodePtr root_;
  uint64_t flags_;
  int id_;
  MountPtr parent_;
  InodePtr mountpoint_;
  bool private_ = true;

  static std::atomic<int> next_id_;
};

// A position in the VFS: mount + inode within it. What Linux calls a `path`.
struct VfsPath {
  MountPtr mount;
  InodePtr inode;

  bool valid() const { return mount != nullptr && inode != nullptr; }
  bool operator==(const VfsPath& o) const { return mount == o.mount && inode == o.inode; }
};

// The set of mounts visible to a group of processes.
class MountNamespace : public NamespaceBase {
 public:
  explicit MountNamespace(MountPtr root);

  MountPtr root() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return root_;
  }

  // unshare(CLONE_NEWNS): deep copy of the mount tree; filesystems and
  // inodes are shared, mount objects are not.
  std::shared_ptr<MountNamespace> Clone() const;

  // Returns the mount whose mountpoint is (`under`, `at`), or null.
  MountPtr MountAt(const MountPtr& under, const InodePtr& at) const;

  // Attaches `m` at (parent, mountpoint). Fails if something is already
  // mounted exactly there (Linux would stack; CNTR never needs stacking).
  Status AddMount(const MountPtr& m, const MountPtr& parent, const InodePtr& mountpoint);

  // Detaches a mount (and fails if child mounts exist unless `force`).
  Status RemoveMount(const MountPtr& m, bool force = false);

  // All mounts, root first (snapshot).
  std::vector<MountPtr> AllMounts() const;

  // Direct children of `m`.
  std::vector<MountPtr> ChildrenOf(const MountPtr& m) const;

  // Marks every mount private (mount --make-rprivate /).
  void MakeAllPrivate();

 private:
  mutable analysis::CheckedMutex mu_{"kernel.mount_table"};
  MountPtr root_;
  std::vector<MountPtr> mounts_;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_MOUNT_H_
