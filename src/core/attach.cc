#include "src/core/attach.h"

#include <cerrno>

#include "src/util/logging.h"

namespace cntr::core {

Cntr::Cntr(kernel::Kernel* kernel) : kernel_(kernel) {
  fuse::RegisterFuseDevice(kernel_);
}

void Cntr::RegisterEngine(std::shared_ptr<container::ContainerEngine> engine) {
  engines_[engine->EngineName()] = std::move(engine);
}

container::ContainerEngine* Cntr::engine(const std::string& name) const {
  auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : it->second.get();
}

StatusOr<std::unique_ptr<AttachedSession>> Cntr::Attach(const std::string& engine_name,
                                                        const std::string& container_name,
                                                        AttachOptions opts) {
  auto it = engines_.find(engine_name);
  if (it == engines_.end()) {
    return Status::Error(EINVAL, "unknown container engine: " + engine_name);
  }
  // Step 1a: engine-specific name resolution (paper §3.2.1).
  CNTR_ASSIGN_OR_RETURN(kernel::Pid pid, it->second->ResolveNameToPid(container_name));
  if (opts.fat_engine.empty()) {
    opts.fat_engine = engine_name;
  }
  return AttachPid(pid, std::move(opts));
}

StatusOr<std::unique_ptr<AttachedSession>> Cntr::AttachPid(kernel::Pid pid, AttachOptions opts) {
  auto session = std::unique_ptr<AttachedSession>(new AttachedSession());
  session->kernel_ = kernel_;

  // The "cntr" process itself, running on the host.
  session->cntr_proc_ = kernel_->Fork(*kernel_->init(), "cntr");

  // --- Step 1: container context from /proc (§3.2.1). ---
  CNTR_ASSIGN_OR_RETURN(session->context_, GatherContext(kernel_, *session->cntr_proc_, pid));

  // The FUSE control socket is opened *before* attaching (§3.2.1).
  session->server_threads_ = opts.server_threads;
  CNTR_ASSIGN_OR_RETURN(auto fuse_dev, fuse::OpenFuseDevice(kernel_, *session->cntr_proc_,
                                                            opts.fuse, opts.server_threads));
  session->conn_ = fuse_dev.second;

  // --- Step 2: launch the CntrFS server (§3.2.2). ---
  session->server_proc_ = kernel_->Fork(*session->cntr_proc_, "cntrfs");
  if (!opts.fat_container.empty()) {
    // Serve from inside the fat container: fork + setns into its mount
    // namespace, so the served tree is the fat container's view. With no
    // engine named, every registered engine is asked in turn.
    StatusOr<kernel::Pid> fat_pid_or = Status::Error(ENOENT, "no engines registered");
    if (!opts.fat_engine.empty()) {
      auto eit = engines_.find(opts.fat_engine);
      if (eit == engines_.end()) {
        return Status::Error(EINVAL, "unknown fat-container engine: " + opts.fat_engine);
      }
      fat_pid_or = eit->second->ResolveNameToPid(opts.fat_container);
    } else {
      for (const auto& [name, engine] : engines_) {
        fat_pid_or = engine->ResolveNameToPid(opts.fat_container);
        if (fat_pid_or.ok()) {
          break;
        }
      }
    }
    CNTR_ASSIGN_OR_RETURN(kernel::Pid fat_pid, std::move(fat_pid_or));
    CNTR_ASSIGN_OR_RETURN(ContainerContext fat_ctx,
                          GatherContext(kernel_, *session->cntr_proc_, fat_pid));
    CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->server_proc_, fat_ctx.mnt_ns));
  }
  CNTR_ASSIGN_OR_RETURN(session->cntrfs_,
                        CntrFsServer::Create(kernel_, session->server_proc_, "/"));
  // A plain attach is a fleet of one: a private pool serves the mount, so
  // every attach shares one serve, detach and reconnect path.
  session->server_pool_ = opts.server_pool;
  if (session->server_pool_ == nullptr) {
    session->own_pool_ = std::make_unique<fuse::FuseServerPool>(
        fuse::FuseServerPoolOptions::Dedicated(opts.server_threads, &kernel_->metrics()));
    session->server_pool_ = session->own_pool_.get();
  }
  session->pool_mount_id_ = session->server_pool_->AddMount(
      session->conn_, session->cntrfs_.get(), opts.pool_weight, opts.pool_admission_budget);
  // Quarantine auto-revival runs the same transport rebuild the manual path
  // uses; the hook dies with the mount (RemoveMount waits it out).
  AttachedSession* raw = session.get();
  session->server_pool_->SetReconnectHook(session->pool_mount_id_,
                                          [raw] { return raw->Reconnect(); });

  // --- Step 3: attach + nested namespace (§3.2.3). ---
  session->attach_proc_ = kernel_->Fork(*session->cntr_proc_, "cntr-attach");
  const ContainerContext& ctx = session->context_;
  if (ctx.cgroup != nullptr) {
    CNTR_RETURN_IF_ERROR(kernel_->JoinCgroup(*session->attach_proc_, ctx.cgroup));
  }
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.user_ns));
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.mnt_ns));
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.uts_ns));
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.ipc_ns));
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.net_ns));
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.cgroup_ns));
  CNTR_RETURN_IF_ERROR(kernel_->SetNsDirect(*session->attach_proc_, ctx.pid_ns));

  CNTR_ASSIGN_OR_RETURN(NestedNamespaceResult nested,
                        SetupNestedNamespace(kernel_, *session->attach_proc_, session->conn_,
                                             opts.fuse));
  session->fuse_fs_ = nested.fuse_fs;

  // Drop to the container's capability set and LSM profile (§3.2.3).
  session->attach_proc_->creds.effective = ctx.cap_effective;
  session->attach_proc_->creds.permitted = ctx.cap_permitted;
  session->attach_proc_->creds.bounding = ctx.cap_bounding;
  if (auto target = kernel_->procs().Get(pid)) {
    session->attach_proc_->lsm = target->lsm;  // profile content is kernel state
  }
  // Environment: the container's, except PATH which stays the tools' so the
  // debug binaries resolve (§3.2.3).
  std::string tools_path = "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin";
  auto path_it = session->attach_proc_->env.find("PATH");
  if (path_it != session->attach_proc_->env.end()) {
    tools_path = path_it->second;
  }
  session->attach_proc_->env = ctx.env;
  session->attach_proc_->env["PATH"] = tools_path;

  // --- Step 4: interactive shell + socket forwarding (§3.2.4). ---
  session->pty_ = std::make_unique<Pty>(kernel_);
  session->shell_ = std::make_unique<ToolboxShell>(kernel_, session->attach_proc_);
  if (!opts.socket_forwards.empty()) {
    session->socket_proxy_ = std::make_unique<SocketProxy>(kernel_, session->attach_proc_,
                                                           session->cntr_proc_);
    for (const auto& [container_path, host_path] : opts.socket_forwards) {
      CNTR_RETURN_IF_ERROR(session->socket_proxy_->Forward(
          nested.app_mount_point + container_path, host_path));
    }
    session->socket_proxy_->Start();
  }
  CNTR_ILOG << "attached to pid " << pid << " (tools at /, app at "
            << nested.app_mount_point << ")";
  return session;
}

AttachedSession::~AttachedSession() { (void)Detach(); }

void AttachedSession::StartInteractiveShell() {
  if (shell_thread_.joinable()) {
    return;
  }
  shell_thread_ = std::thread([this] {
    shell_->RunInteractive(pty_->slave(), pty_->slave());
  });
}

Status AttachedSession::Detach() {
  if (detached_) {
    return Status::Ok();
  }
  detached_ = true;
  if (socket_proxy_ != nullptr) {
    socket_proxy_->Stop();
  }
  if (shell_thread_.joinable()) {
    // Closing the master wakes the shell loop with EOF.
    pty_->WriteLineToShell("exit");
    shell_thread_.join();
  }
  // Shutdown's status is the detach result: a failed final flush means
  // dirty data never reached the server, and silently returning Ok would
  // be exactly the lost-write silence the errseq machinery exists to
  // prevent. Teardown still completes either way.
  Status shutdown_status = Status::Ok();
  if (fuse_fs_ != nullptr) {
    shutdown_status = fuse_fs_->Shutdown();
  }
  if (server_pool_ != nullptr) {
    server_pool_->RemoveMount(pool_mount_id_);
    server_pool_ = nullptr;
  }
  own_pool_.reset();
  if (attach_proc_ != nullptr) {
    kernel_->Exit(*attach_proc_);
  }
  if (server_proc_ != nullptr) {
    kernel_->Exit(*server_proc_);
  }
  if (cntr_proc_ != nullptr) {
    kernel_->Exit(*cntr_proc_);
  }
  return shutdown_status;
}

Status AttachedSession::Reconnect() {
  if (detached_) {
    return Status::Error(EINVAL, "session already detached");
  }
  if (fuse_fs_ == nullptr || cntrfs_ == nullptr) {
    return Status::Error(ENOTCONN, "no filesystem to reconnect");
  }
  // The old transport dies without DESTROY: the CntrFsServer instance (and
  // its node table) survives, which is what keeps the client's nodeids
  // valid across the reconnect. After a crash (and always on the pool's
  // hook path, which quarantine aborted) there is nothing left to abort.
  if (!conn_->aborted()) {
    conn_->Abort();
  }
  // Hand the fresh connection to the pool first: AdoptConn serves it from
  // that instant, which the INIT replay below requires. This same body runs
  // as the pool's quarantine reconnect hook.
  CNTR_ASSIGN_OR_RETURN(auto fuse_dev, fuse::OpenFuseDevice(kernel_, *cntr_proc_,
                                                            fuse_fs_->options(), server_threads_));
  CNTR_RETURN_IF_ERROR(server_pool_->AdoptConn(pool_mount_id_, fuse_dev.second));
  conn_ = fuse_dev.second;
  return fuse_fs_->Reconnect(conn_);
}

}  // namespace cntr::core
