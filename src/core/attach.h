// The CNTR attach workflow — the paper's primary contribution, end to end:
//
//   1. resolve the container name to a pid via the engine and gather the
//      container context from /proc                      (src/core/context)
//   2. launch the CntrFS server on the host or inside the fat container
//                                                (src/core/cntrfs, src/fuse)
//   3. join the container's namespaces/cgroup and build the nested mount
//      namespace around CntrFS                        (src/core/nested_ns)
//   4. hand the user an interactive shell over a pseudo-TTY, with Unix
//      socket forwarding                      (src/core/shell, pty, proxy)
#ifndef CNTR_SRC_CORE_ATTACH_H_
#define CNTR_SRC_CORE_ATTACH_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/container/engine.h"
#include "src/core/cntrfs.h"
#include "src/core/context.h"
#include "src/core/nested_ns.h"
#include "src/core/pty.h"
#include "src/core/shell.h"
#include "src/core/socket_proxy.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"

namespace cntr::core {

struct AttachOptions {
  // fuse.num_channels and fuse.ring_depth set the connection's shape (0
  // channels = one per server thread), whichever pool serves it.
  fuse::FuseMountOptions fuse = fuse::FuseMountOptions::Optimized();
  // Paper §3.3: CNTRFS reads /dev/fuse from multiple threads. Without a
  // server_pool this many workers serve the mount from a pool of its own.
  int server_threads = 4;
  // Tools source: empty = the host; otherwise the named fat container
  // (resolved through the same engine as the slim container unless
  // fat_engine says otherwise).
  std::string fat_container;
  std::string fat_engine;
  // Unix socket forwards: (path inside the app container, path on the
  // tools side), e.g. {"/tmp/.X11-unix/X0", "/tmp/.X11-unix/X0"}.
  std::vector<std::pair<std::string, std::string>> socket_forwards;
  // Fleet mode: serve this mount from a shared FuseServerPool instead of a
  // private one (the pool must outlive the session). pool_weight scales the
  // mount's fair share and pool_admission_budget (0 = none) arms the
  // per-tenant in-flight cap. The session registers its Reconnect as the
  // mount's reconnect hook, so a mount the shared pool's controller
  // quarantines revives without caller involvement.
  fuse::FuseServerPool* server_pool = nullptr;
  uint32_t pool_weight = 1;
  uint32_t pool_admission_budget = 0;
};

// A live attachment. Owns the CntrFS server (and, without a shared pool,
// the private pool that serves it), the nested-namespace process, the
// shell, the pty and the socket proxy; Detach() (or destruction) tears all
// of it down.
class AttachedSession {
 public:
  ~AttachedSession();

  AttachedSession(const AttachedSession&) = delete;
  AttachedSession& operator=(const AttachedSession&) = delete;

  // The process living inside the nested namespace.
  const kernel::ProcessPtr& attach_proc() const { return attach_proc_; }
  const ContainerContext& context() const { return context_; }

  // Runs one shell command inside the nested namespace and returns output.
  std::string Execute(const std::string& command_line) { return shell_->Execute(command_line); }

  ToolboxShell& shell() { return *shell_; }
  Pty& pty() { return *pty_; }
  SocketProxy* socket_proxy() { return socket_proxy_.get(); }
  CntrFsServer* cntrfs() { return cntrfs_.get(); }
  const std::shared_ptr<fuse::FuseFs>& fuse_fs() const { return fuse_fs_; }

  // Starts the interactive shell loop on a background thread, fed by the
  // pty (use pty().WriteLineToShell / DrainShellOutput to converse).
  void StartInteractiveShell();

  // Tears the session down. A failed final writeback flush (dirty pages the
  // server never took) surfaces here — detach does not swallow data loss.
  Status Detach();

  // Re-establishes the FUSE transport after a server-side crash/abort: the
  // old connection is aborted (a no-op after a crash), a fresh /dev/fuse
  // connection is adopted by the serving pool over the SAME CntrFsServer
  // (its node table survives, so existing nodeids stay valid), INIT is
  // replayed and live file handles re-opened via FuseFs::Reconnect.
  Status Reconnect();

 private:
  friend class Cntr;
  AttachedSession() = default;

  kernel::Kernel* kernel_ = nullptr;
  ContainerContext context_;
  kernel::ProcessPtr cntr_proc_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr attach_proc_;
  std::shared_ptr<fuse::FuseConn> conn_;
  std::shared_ptr<fuse::FuseFs> fuse_fs_;
  std::unique_ptr<CntrFsServer> cntrfs_;
  // Declared after cntrfs_ so it is torn down first: its workers call the
  // handler. Null in fleet mode.
  std::unique_ptr<fuse::FuseServerPool> own_pool_;
  fuse::FuseServerPool* server_pool_ = nullptr;  // own_pool_ or the fleet's
  uint64_t pool_mount_id_ = 0;
  std::unique_ptr<ToolboxShell> shell_;
  std::unique_ptr<Pty> pty_;
  std::unique_ptr<SocketProxy> socket_proxy_;
  std::thread shell_thread_;
  int server_threads_ = 1;  // Reconnect shapes its replacement conn with it
  bool detached_ = false;
};

// The user-facing entry point ("the cntr binary").
class Cntr {
 public:
  explicit Cntr(kernel::Kernel* kernel);

  // Engines are pluggable, like the implementation-specific resolvers in
  // the paper (§4): docker, lxc, rkt, systemd-nspawn.
  void RegisterEngine(std::shared_ptr<container::ContainerEngine> engine);
  container::ContainerEngine* engine(const std::string& name) const;

  // cntr attach <container> [--fat-image ...]
  StatusOr<std::unique_ptr<AttachedSession>> Attach(const std::string& engine_name,
                                                    const std::string& container_name,
                                                    AttachOptions opts);
  StatusOr<std::unique_ptr<AttachedSession>> Attach(const std::string& engine_name,
                                                    const std::string& container_name) {
    return Attach(engine_name, container_name, AttachOptions{});
  }
  // Attach by raw pid (no engine involved).
  StatusOr<std::unique_ptr<AttachedSession>> AttachPid(kernel::Pid pid, AttachOptions opts);

  kernel::Kernel* kernel() const { return kernel_; }

 private:
  kernel::Kernel* kernel_;
  std::map<std::string, std::shared_ptr<container::ContainerEngine>> engines_;
};

}  // namespace cntr::core

#endif  // CNTR_SRC_CORE_ATTACH_H_
