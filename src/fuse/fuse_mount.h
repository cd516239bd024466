// Mount plumbing: registers the /dev/fuse character device with a kernel and
// mounts a FuseFs over an established connection.
//
// The CNTR flow (paper §3.2.1-3.2.3): the attach process opens /dev/fuse
// *before* entering the container, hands the connection to the server, then
// mounts inside the nested namespace. These helpers keep that order explicit.
#ifndef CNTR_SRC_FUSE_FUSE_MOUNT_H_
#define CNTR_SRC_FUSE_FUSE_MOUNT_H_

#include <memory>
#include <string>

#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_fs.h"
#include "src/kernel/kernel.h"

namespace cntr::fuse {

// Registers the /dev/fuse driver: every open() creates a fresh connection.
// Idempotent per kernel.
void RegisterFuseDevice(kernel::Kernel* kernel);

// Opens /dev/fuse as `proc` and returns (fd, connection). The connection
// has the default shape: one channel of kDefaultRingDepth.
StatusOr<std::pair<kernel::Fd, std::shared_ptr<FuseConn>>> OpenFuseDevice(kernel::Kernel* kernel,
                                                                          kernel::Process& proc);
// The same, shaped for a mount before anything serves it: opts.ChannelCount
// (server_threads) channels of opts.ring_depth entries (the clone ioctls a
// real opener issues). Attach, reconnect and the bench harness open through
// it, so they agree on the shape.
StatusOr<std::pair<kernel::Fd, std::shared_ptr<FuseConn>>> OpenFuseDevice(
    kernel::Kernel* kernel, kernel::Process& proc, const FuseMountOptions& opts,
    int server_threads);

// Creates the kernel-side filesystem over `conn` (INIT handshake included;
// the server must already be running) and mounts it at `target` in proc's
// mount namespace.
StatusOr<std::shared_ptr<FuseFs>> MountFuse(kernel::Kernel* kernel, kernel::Process& proc,
                                            const std::string& target,
                                            std::shared_ptr<FuseConn> conn,
                                            FuseMountOptions opts);

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_MOUNT_H_
