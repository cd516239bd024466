// The userspace side of FUSE: a handler interface plus a multithreaded
// request loop.
//
// The paper's CNTRFS spawns independent threads reading /dev/fuse so that
// blocking filesystem operations do not stall the whole server (§3.3
// "Multithreading"); FuseServer reproduces that loop with std::threads, each
// acting as the server process on the simulated kernel. Beyond the paper,
// the loop is channel-aware: the connection's cloned queues (see
// fuse_conn.h) are distributed round-robin as worker home channels, and an
// idle worker steals from non-empty siblings so a single hot process still
// uses the whole pool. How many requests one read returns is the
// connection's ring profile's call (one under the paper profile, a burst
// under the ring profile), so the loop itself is transport-agnostic.
#ifndef CNTR_SRC_FUSE_FUSE_SERVER_H_
#define CNTR_SRC_FUSE_FUSE_SERVER_H_

#include <memory>
#include <thread>
#include <vector>

#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_proto.h"

namespace cntr::fuse {

class FuseHandler {
 public:
  virtual ~FuseHandler() = default;
  // Handles one request and returns the reply. Runs on server threads;
  // implementations must be thread-safe.
  virtual FuseReply Handle(const FuseRequest& request) = 0;
  // Called once when the connection shuts down.
  virtual void OnDestroy() {}
};

class FuseServer {
 public:
  // `num_channels` clones the connection's request queue before the workers
  // start (FUSE_DEV_IOC_CLONE analogue); 0 means one channel per worker.
  FuseServer(std::shared_ptr<FuseConn> conn, FuseHandler* handler, int num_threads = 4,
             size_t num_channels = 1)
      : conn_(std::move(conn)), handler_(handler), num_threads_(num_threads),
        num_channels_(num_channels) {}
  ~FuseServer() { Stop(); }

  FuseServer(const FuseServer&) = delete;
  FuseServer& operator=(const FuseServer&) = delete;

  // Starts the worker threads; requests are answered from then on.
  void Start();
  // Aborts the connection and joins the workers. Idempotent.
  // `notify_destroy` == false skips the handler's OnDestroy — the restart
  // path (see CntrFs::Reconnect) tears down the transport but must keep the
  // handler's node table alive so re-lookups resolve the same nodeids.
  void Stop(bool notify_destroy = true);

  int num_threads() const { return num_threads_; }

 private:
  void WorkerLoop(size_t home_channel);

  std::shared_ptr<FuseConn> conn_;
  FuseHandler* handler_;
  int num_threads_;
  size_t num_channels_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_SERVER_H_
