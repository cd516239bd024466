// The non-mount namespaces: pid, user, uts, ipc, net, cgroup.
//
// CNTR gathers all of a container's namespaces from /proc/<pid>/ns (paper
// §3.2.1) and joins them with setns (§3.2.2/3.2.3). The simulated kernel
// gives each namespace a stable id that procfs renders as "mnt:[4026531840]"
// style strings, so the context-gathering code can parse the same format the
// real tool does.
#ifndef CNTR_SRC_KERNEL_NAMESPACES_H_
#define CNTR_SRC_KERNEL_NAMESPACES_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/kernel/cred.h"
#include "src/kernel/types.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

enum class NsType { kMnt, kPid, kUser, kUts, kIpc, kNet, kCgroup };

inline const char* NsTypeName(NsType t) {
  switch (t) {
    case NsType::kMnt:
      return "mnt";
    case NsType::kPid:
      return "pid";
    case NsType::kUser:
      return "user";
    case NsType::kUts:
      return "uts";
    case NsType::kIpc:
      return "ipc";
    case NsType::kNet:
      return "net";
    case NsType::kCgroup:
      return "cgroup";
  }
  return "?";
}

// unshare/setns flag bits (Linux CLONE_* values).
inline constexpr uint64_t kCloneNewNs = 0x00020000;
inline constexpr uint64_t kCloneNewCgroup = 0x02000000;
inline constexpr uint64_t kCloneNewUts = 0x04000000;
inline constexpr uint64_t kCloneNewIpc = 0x08000000;
inline constexpr uint64_t kCloneNewUser = 0x10000000;
inline constexpr uint64_t kCloneNewPid = 0x20000000;
inline constexpr uint64_t kCloneNewNet = 0x40000000;

class NamespaceBase {
 public:
  explicit NamespaceBase(NsType type) : type_(type), id_(next_id_.fetch_add(1)) {}
  virtual ~NamespaceBase() = default;

  NsType type() const { return type_; }
  uint64_t id() const { return id_; }

  // "mnt:[4026531840]" — the /proc/<pid>/ns/<name> link target format.
  std::string ProcLink() const {
    return std::string(NsTypeName(type_)) + ":[" + std::to_string(id_) + "]";
  }

 private:
  NsType type_;
  uint64_t id_;
  static std::atomic<uint64_t> next_id_;
};

class UtsNamespace : public NamespaceBase {
 public:
  UtsNamespace() : NamespaceBase(NsType::kUts) {}
  explicit UtsNamespace(std::string hostname)
      : NamespaceBase(NsType::kUts), hostname_(std::move(hostname)) {}

  std::string hostname() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return hostname_;
  }
  void set_hostname(std::string h) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    hostname_ = std::move(h);
  }

 private:
  mutable analysis::CheckedMutex mu_{"kernel.ns.uts"};
  std::string hostname_ = "host";
};

class IpcNamespace : public NamespaceBase {
 public:
  IpcNamespace() : NamespaceBase(NsType::kIpc) {}
};

class NetNamespace : public NamespaceBase {
 public:
  NetNamespace() : NamespaceBase(NsType::kNet) {}

  // Abstract-namespace Unix sockets live per network namespace.
  Status BindAbstract(const std::string& name, std::shared_ptr<void> socket);
  std::shared_ptr<void> LookupAbstract(const std::string& name) const;

 private:
  mutable analysis::CheckedMutex mu_{"kernel.ns.net"};
  std::map<std::string, std::shared_ptr<void>> abstract_sockets_;
};

// uid/gid mapping ranges, as written to /proc/<pid>/uid_map.
struct IdMapRange {
  uint32_t inside = 0;
  uint32_t outside = 0;
  uint32_t count = 0;
};

class UserNamespace : public NamespaceBase {
 public:
  UserNamespace() : NamespaceBase(NsType::kUser) {}
  explicit UserNamespace(std::shared_ptr<UserNamespace> parent)
      : NamespaceBase(NsType::kUser), parent_(std::move(parent)) {}

  const std::shared_ptr<UserNamespace>& parent() const { return parent_; }

  void SetUidMap(std::vector<IdMapRange> map) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    uid_map_ = std::move(map);
  }
  void SetGidMap(std::vector<IdMapRange> map) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    gid_map_ = std::move(map);
  }
  std::vector<IdMapRange> uid_map() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return uid_map_;
  }
  std::vector<IdMapRange> gid_map() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return gid_map_;
  }

  // Maps an id inside this namespace to the outermost (kernel) id;
  // unmapped ids become the overflow id (65534).
  Uid MapUidToHost(Uid inside) const { return MapToHost(uid_map_, inside); }
  Gid MapGidToHost(Gid inside) const { return MapToHost(gid_map_, inside); }
  // Reverse direction, for stat results shown inside the namespace.
  Uid MapUidFromHost(Uid outside) const { return MapFromHost(uid_map_, outside); }
  Gid MapGidFromHost(Gid outside) const { return MapFromHost(gid_map_, outside); }

  bool IsInitial() const { return parent_ == nullptr; }

 private:
  static uint32_t MapToHost(const std::vector<IdMapRange>& map, uint32_t inside) {
    if (map.empty()) {
      return inside;  // initial namespace: identity
    }
    for (const auto& r : map) {
      if (inside >= r.inside && inside < r.inside + r.count) {
        return r.outside + (inside - r.inside);
      }
    }
    return kOverflowUid;
  }
  static uint32_t MapFromHost(const std::vector<IdMapRange>& map, uint32_t outside) {
    if (map.empty()) {
      return outside;
    }
    for (const auto& r : map) {
      if (outside >= r.outside && outside < r.outside + r.count) {
        return r.inside + (outside - r.outside);
      }
    }
    return kOverflowUid;
  }

  std::shared_ptr<UserNamespace> parent_;
  mutable analysis::CheckedMutex mu_{"kernel.ns.user"};
  std::vector<IdMapRange> uid_map_;
  std::vector<IdMapRange> gid_map_;
};

class PidNamespace : public NamespaceBase {
 public:
  PidNamespace() : NamespaceBase(NsType::kPid) {}
  explicit PidNamespace(std::shared_ptr<PidNamespace> parent)
      : NamespaceBase(NsType::kPid), parent_(std::move(parent)),
        level_(parent_ != nullptr ? parent_->level_ + 1 : 0) {}

  const std::shared_ptr<PidNamespace>& parent() const { return parent_; }
  uint32_t level() const { return level_; }

  Pid AllocPid() {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return next_pid_++;
  }

 private:
  std::shared_ptr<PidNamespace> parent_;
  uint32_t level_ = 0;
  analysis::CheckedMutex mu_{"kernel.ns.pid"};
  Pid next_pid_ = 1;
};

// Cgroup v2-style hierarchy node. Controllers are recorded, not enforced:
// CNTR only needs to read a process's cgroup path and join it (paper §3.2.3
// "assigns a forked process ... by appropriately setting the /sys/ option").
class CgroupNode : public std::enable_shared_from_this<CgroupNode> {
 public:
  static std::shared_ptr<CgroupNode> MakeRoot() {
    return std::shared_ptr<CgroupNode>(new CgroupNode("", nullptr));
  }

  std::shared_ptr<CgroupNode> FindOrCreateChild(const std::string& name);
  std::shared_ptr<CgroupNode> FindChild(const std::string& name) const;

  // "/docker/abc123" style absolute path.
  std::string Path() const;

  void AddProc(Pid pid) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    procs_.push_back(pid);
  }
  void RemoveProc(Pid pid) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    std::erase(procs_, pid);
  }
  std::vector<Pid> procs() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return procs_;
  }

 private:
  CgroupNode(std::string name, std::shared_ptr<CgroupNode> parent)
      : name_(std::move(name)), parent_(std::move(parent)) {}

  std::string name_;
  // Weak: the parent owns its children through children_, so a shared
  // back-edge would cycle and leak the whole tree on teardown.
  std::weak_ptr<CgroupNode> parent_;
  mutable analysis::CheckedMutex mu_{"kernel.cgroup.node"};
  std::map<std::string, std::shared_ptr<CgroupNode>> children_;
  std::vector<Pid> procs_;
};

class CgroupNamespace : public NamespaceBase {
 public:
  explicit CgroupNamespace(std::shared_ptr<CgroupNode> root)
      : NamespaceBase(NsType::kCgroup), root_(std::move(root)) {}

  const std::shared_ptr<CgroupNode>& root() const { return root_; }

 private:
  std::shared_ptr<CgroupNode> root_;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_NAMESPACES_H_
