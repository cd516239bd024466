#include "src/kernel/process.h"

#include <cerrno>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

StatusOr<Fd> FdTable::Install(FilePtr file, bool cloexec) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  if (fds_.size() >= max_fds_) {
    return Status::Error(EMFILE);
  }
  Fd fd = 0;
  for (const auto& [existing, _] : fds_) {
    if (existing != fd) {
      break;
    }
    ++fd;
  }
  fds_[fd] = Entry{std::move(file), cloexec};
  return fd;
}

StatusOr<FilePtr> FdTable::Get(Fd fd) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Status::Error(EBADF);
  }
  return it->second.file;
}

StatusOr<FilePtr> FdTable::Take(Fd fd) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Status::Error(EBADF);
  }
  FilePtr file = std::move(it->second.file);
  fds_.erase(it);
  return file;
}

StatusOr<Fd> FdTable::Dup(Fd fd, Fd min_fd, bool cloexec) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Status::Error(EBADF);
  }
  if (fds_.size() >= max_fds_) {
    return Status::Error(EMFILE);
  }
  Fd nfd = min_fd;
  while (fds_.count(nfd) != 0) {
    ++nfd;
  }
  fds_[nfd] = Entry{it->second.file, cloexec};
  return nfd;
}

std::vector<Fd> FdTable::AllFds() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  std::vector<Fd> out;
  out.reserve(fds_.size());
  for (const auto& [fd, _] : fds_) {
    out.push_back(fd);
  }
  return out;
}

void FdTable::CloseAll() {
  std::map<Fd, Entry> doomed;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    doomed.swap(fds_);
  }
  for (auto& [fd, entry] : doomed) {
    // Releases happen as descriptions drop; explicit Release for the last ref.
    if (entry.file.use_count() == 1) {
      entry.file->Release();
    }
  }
}

void FdTable::CopyFrom(const FdTable& other) {
  std::scoped_lock lock(mu_, other.mu_);
  fds_ = other.fds_;
  max_fds_ = other.max_fds_;
}

Pid Process::PidInNs(const PidNamespace& ns) const {
  uint32_t level = ns.level();
  // The process is visible only if it is inside `ns` or a descendant of it:
  // its own pid namespace chain must contain `ns` at `level`.
  const PidNamespace* p = pid_ns.get();
  while (p != nullptr && p->level() > level) {
    p = p->parent().get();
  }
  if (p != &ns) {
    return 0;
  }
  if (level >= ns_pids.size()) {
    return 0;
  }
  return ns_pids[level];
}

ProcessPtr ProcessTable::Create(std::string comm) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  Pid pid = next_pid_++;
  auto proc = std::make_shared<Process>(pid, std::move(comm));
  procs_[pid] = proc;
  return proc;
}

ProcessPtr ProcessTable::Get(Pid global_pid) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = procs_.find(global_pid);
  return it == procs_.end() ? nullptr : it->second;
}

void ProcessTable::Remove(Pid global_pid) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  procs_.erase(global_pid);
}

std::vector<ProcessPtr> ProcessTable::All() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  std::vector<ProcessPtr> out;
  out.reserve(procs_.size());
  for (const auto& [pid, proc] : procs_) {
    out.push_back(proc);
  }
  return out;
}

}  // namespace cntr::kernel
