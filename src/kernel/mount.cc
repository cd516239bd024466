#include "src/kernel/mount.h"

#include <algorithm>
#include <cerrno>
#include <map>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

std::atomic<int> Mount::next_id_{1};

MountNamespace::MountNamespace(MountPtr root)
    : NamespaceBase(NsType::kMnt), root_(root) {
  mounts_.push_back(std::move(root));
}

std::shared_ptr<MountNamespace> MountNamespace::Clone() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  // Copy every mount, then fix up parent pointers through an old->new map.
  std::map<const Mount*, MountPtr> copies;
  for (const auto& m : mounts_) {
    auto copy = std::make_shared<Mount>(m->fs(), m->root(), m->flags());
    copy->set_propagation_private(m->propagation_private());
    copies[m.get()] = copy;
  }
  for (const auto& m : mounts_) {
    auto& copy = copies[m.get()];
    if (m->parent() != nullptr) {
      auto it = copies.find(m->parent().get());
      MountPtr new_parent = it != copies.end() ? it->second : nullptr;
      copy->Attach(new_parent, m->mountpoint());
    }
  }
  auto ns = std::make_shared<MountNamespace>(copies[root_.get()]);
  ns->mounts_.clear();
  for (const auto& m : mounts_) {
    ns->mounts_.push_back(copies[m.get()]);
  }
  return ns;
}

MountPtr MountNamespace::MountAt(const MountPtr& under, const InodePtr& at) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  for (const auto& m : mounts_) {
    if (m->parent() == under && m->mountpoint() == at) {
      return m;
    }
  }
  return nullptr;
}

Status MountNamespace::AddMount(const MountPtr& m, const MountPtr& parent,
                                const InodePtr& mountpoint) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (std::find(mounts_.begin(), mounts_.end(), parent) == mounts_.end()) {
    return Status::Error(EINVAL, "parent mount not in this namespace");
  }
  for (const auto& existing : mounts_) {
    if (existing->parent() == parent && existing->mountpoint() == mountpoint) {
      return Status::Error(EBUSY, "mountpoint already in use");
    }
  }
  m->Attach(parent, mountpoint);
  mounts_.push_back(m);
  return Status::Ok();
}

Status MountNamespace::RemoveMount(const MountPtr& m, bool force) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = std::find(mounts_.begin(), mounts_.end(), m);
  if (it == mounts_.end()) {
    return Status::Error(EINVAL, "mount not in this namespace");
  }
  if (m == root_) {
    return Status::Error(EBUSY, "cannot unmount the namespace root");
  }
  if (!force) {
    for (const auto& other : mounts_) {
      if (other->parent() == m) {
        return Status::Error(EBUSY, "child mounts present");
      }
    }
  }
  m->Detach();
  mounts_.erase(it);
  return Status::Ok();
}

std::vector<MountPtr> MountNamespace::AllMounts() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  return mounts_;
}

std::vector<MountPtr> MountNamespace::ChildrenOf(const MountPtr& m) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  std::vector<MountPtr> out;
  for (const auto& other : mounts_) {
    if (other->parent() == m) {
      out.push_back(other);
    }
  }
  return out;
}

void MountNamespace::MakeAllPrivate() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  for (const auto& m : mounts_) {
    m->set_propagation_private(true);
  }
}

}  // namespace cntr::kernel
