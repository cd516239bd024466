#include "src/kernel/namespaces.h"

#include <cerrno>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

std::atomic<uint64_t> NamespaceBase::next_id_{4026531840ULL};

Status NetNamespace::BindAbstract(const std::string& name, std::shared_ptr<void> socket) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto [it, inserted] = abstract_sockets_.emplace(name, std::move(socket));
  if (!inserted) {
    return Status::Error(EADDRINUSE, "abstract socket name in use");
  }
  return Status::Ok();
}

std::shared_ptr<void> NetNamespace::LookupAbstract(const std::string& name) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = abstract_sockets_.find(name);
  return it == abstract_sockets_.end() ? nullptr : it->second;
}

std::shared_ptr<CgroupNode> CgroupNode::FindOrCreateChild(const std::string& name) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = children_.find(name);
  if (it != children_.end()) {
    return it->second;
  }
  auto child = std::shared_ptr<CgroupNode>(new CgroupNode(name, shared_from_this()));
  children_[name] = child;
  return child;
}

std::shared_ptr<CgroupNode> CgroupNode::FindChild(const std::string& name) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = children_.find(name);
  return it == children_.end() ? nullptr : it->second;
}

std::string CgroupNode::Path() const {
  auto parent = parent_.lock();
  if (parent == nullptr) {
    return "/";
  }
  std::string parent_path = parent->Path();
  if (parent_path == "/") {
    return "/" + name_;
  }
  return parent_path + "/" + name_;
}

}  // namespace cntr::kernel
