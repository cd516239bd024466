// The FUSE wire protocol of the simulated kernel.
//
// Requests and replies mirror <linux/fuse.h> opcodes and message layouts,
// carried as typed structs instead of packed bytes (both ends live in one
// process; serialization would only obscure the protocol). Everything the
// paper's optimizations switch on exists here: FOPEN_KEEP_CACHE,
// FUSE_WRITEBACK_CACHE, FUSE_PARALLEL_DIROPS, FUSE_ASYNC_READ, splice
// transport, FUSE_BATCH_FORGET, and FUSE_READDIRPLUS (the batched-metadata
// path that collapses the per-child LOOKUP storm of cold tree walks).
#ifndef CNTR_SRC_FUSE_FUSE_PROTO_H_
#define CNTR_SRC_FUSE_FUSE_PROTO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/cred.h"
#include "src/kernel/file.h"
#include "src/kernel/inode.h"
#include "src/obs/trace.h"
#include "src/splice/page_ref.h"
#include "src/util/sim_clock.h"

namespace cntr::fuse {

enum class FuseOpcode : uint32_t {
  kLookup = 1,
  kForget = 2,
  kGetattr = 3,
  kSetattr = 4,
  kReadlink = 5,
  kSymlink = 6,
  kMknod = 8,
  kMkdir = 9,
  kUnlink = 10,
  kRmdir = 11,
  kRename = 12,
  kLink = 13,
  kOpen = 14,
  kRead = 15,
  kWrite = 16,
  kStatfs = 17,
  kRelease = 18,
  kFsync = 20,
  kSetxattr = 21,
  kGetxattr = 22,
  kListxattr = 23,
  kRemovexattr = 24,
  kFlush = 25,
  kInit = 26,
  kOpendir = 27,
  kReaddir = 28,
  kReleasedir = 29,
  kAccess = 34,
  kCreate = 35,
  kInterrupt = 36,
  kDestroy = 38,
  kBatchForget = 42,
  kReaddirPlus = 44,
};

const char* FuseOpcodeName(FuseOpcode op);

// The root of a FUSE mount always has nodeid 1 (FUSE_ROOT_ID).
inline constexpr uint64_t kFuseRootId = 1;

// INIT negotiation flags (subset of FUSE_*, same bit positions).
inline constexpr uint32_t kFuseAsyncRead = 1 << 0;
inline constexpr uint32_t kFuseSpliceWrite = 1 << 7;  // WRITE payloads ride the pipe lanes
inline constexpr uint32_t kFuseSpliceMove = 1 << 8;   // pages may be stolen/aliased, not copied
inline constexpr uint32_t kFuseSpliceRead = 1 << 9;   // READ replies ride the pipe lanes
inline constexpr uint32_t kFuseDoReaddirplus = 1 << 13;
inline constexpr uint32_t kFuseParallelDirops = 1 << 18;
inline constexpr uint32_t kFuseWritebackCache = 1 << 16;
inline constexpr uint32_t kFuseMaxPages = 1 << 22;  // max_pages field is valid
// Submission-ring transport (the FUSE-over-io_uring lineage; the real
// kernel carries FUSE_OVER_IO_URING in flags2, here it rides the one flags
// word): switches the connection, on the SQ/CQ rings it already has, from
// the paper's per-request wakeup-handshake cost profile to the ring profile.
// See docs/transport.md.
inline constexpr uint32_t kFuseRingSubmission = 1u << 27;

// Hard protocol ceiling on a negotiated request/reply payload
// (FUSE_MAX_MAX_PAGES): 256 pages = 1 MiB. The kernel clamps whatever the
// server grants to this, so a buggy server cannot inflate windows past what
// a splice lane can ever carry (kPipeMaxCapacity is the same 1 MiB).
inline constexpr uint32_t kFuseMaxMaxPages = 256;

// OPEN reply flags.
inline constexpr uint32_t kFOpenKeepCache = 1 << 1;

// One FUSE request as read from /dev/fuse. Fields beyond the header are
// meaningful per opcode, as in the kernel's packed layout.
struct FuseRequest {
  uint64_t unique = 0;
  FuseOpcode opcode = FuseOpcode::kInit;
  uint64_t nodeid = 0;

  // Caller context (fsuid/fsgid travel with every request, like the real
  // fuse_in_header's uid/gid/pid).
  kernel::Uid uid = 0;
  kernel::Gid gid = 0;
  kernel::Pid pid = 0;

  // Payload (per opcode).
  std::string name;          // lookup/create/unlink/... the child name
  std::string name2;         // rename target name / link name
  uint64_t nodeid2 = 0;      // rename target dir / link target node
  std::string data;          // write payload, symlink target, xattr value
  uint64_t fh = 0;           // read/write/release/fsync file handle (0: none)
  uint64_t offset = 0;       // read/write offset; readdirplus entry cursor
  uint32_t size = 0;         // read size / xattr buffer size / readdirplus batch
  int32_t flags = 0;         // open flags
  kernel::Mode mode = 0;     // create/mkdir mode
  kernel::Dev rdev = 0;      // mknod device
  bool datasync = false;     // fsync
  kernel::SetattrRequest setattr;
  // FORGET / BATCH_FORGET payload. Like fuse_forget_one, each entry carries
  // the number of lookups being returned: the server's per-node lookup
  // count rises once per LOOKUP-shaped reply (including every READDIRPLUS
  // entry), so the kernel must return the exact balance or node-table
  // entries leak.
  struct Forget {
    uint64_t nodeid = 0;
    uint64_t nlookup = 1;
  };
  std::vector<Forget> forgets;
  uint32_t init_flags = 0;   // INIT negotiation
  // INIT only (kFuseMaxPages set): the largest payload window, in pages,
  // the kernel wants to use for READ/WRITE requests. 0 = legacy 32 pages.
  uint32_t max_pages = 0;
  // INTERRUPT only (fuse_interrupt_in): the unique of the in-flight request
  // being interrupted. The notification itself carries unique 0 (no reply).
  uint64_t interrupt_unique = 0;

  // True when the payload of a write travels through a kernel pipe (splice)
  // instead of being copied through userspace. The pages then ride in
  // `payload_pages` (the typed analogue of the single /dev/fuse read that
  // consumes header + spliced payload together); `data` stays empty.
  bool spliced = false;
  std::vector<splice::PageRef> payload_pages;
  // True when the kernel accepts a spliced reply payload for this request
  // (READ / READDIRPLUS with the splice lanes negotiated and this request's
  // channel opted in). Cleared by the transport on opted-out channels.
  bool splice_ok = false;

  // --- transport metadata (set by FuseConn at submission, not on the wire) ---
  // Channel the request was routed to (sticky per caller pid).
  uint32_t channel = 0;
  // Which lane of the channel's pool a spliced payload rode (the consumer
  // drains exactly that ring).
  uint32_t lane_idx = 0;
  // Virtual timeline of the submitting thread; the server worker adopts it
  // while handling so server-side costs charge the caller that incurred them.
  // A no-reply submission (FORGET, DESTROY, INTERRUPT notice) carries a
  // fresh lane of its own instead: nobody waits on its costs.
  SimClock::LanePtr lane;
  // Trace span (shared-owned like the lane: the waiter keeps a reference).
  // Null when tracing is disabled or the submission expects no reply.
  obs::SpanPtr span;
};

// Reply payloads (fuse_entry_out / fuse_attr_out / fuse_open_out / ...).
struct FuseEntryOut {
  uint64_t nodeid = 0;
  kernel::InodeAttr attr;
  uint64_t entry_ttl_ns = 0;
  uint64_t attr_ttl_ns = 0;
};

// One READDIRPLUS entry (fuse_direntplus): the directory entry together with
// the full lookup result. `entry.nodeid == 0` means the server granted no
// lookup for this name ("." / ".." or a transient per-child failure) and the
// kernel must not prime its caches from it.
struct FuseDirentPlus {
  kernel::DirEntry dirent;
  FuseEntryOut entry;
};

struct FuseReply {
  int error = 0;

  FuseEntryOut entry;                    // lookup/create/mkdir/symlink/link
  kernel::InodeAttr attr;                // getattr/setattr
  uint64_t attr_ttl_ns = 0;
  std::string data;                      // read/readlink/getxattr
  std::vector<std::string> names;        // listxattr
  std::vector<kernel::DirEntry> entries; // readdir
  std::vector<FuseDirentPlus> entries_plus;  // readdirplus
  uint64_t fh = 0;                       // open/opendir/create
  uint32_t open_flags = 0;               // FOPEN_* bits
  uint32_t count = 0;                    // write result
  kernel::StatFs statfs;
  uint32_t init_flags = 0;               // INIT result
  // INIT only: the payload window the server granted (kFuseMaxPages acked).
  // A server that does not speak the extension echoes flags without the bit
  // and leaves this 0; the kernel then falls back to 32-page windows.
  uint32_t max_pages = 0;

  // Spliced payload: READ data (or a packed READDIRPLUS stream) as page
  // references instead of bytes in `data`. `spliced` is set by the
  // transport once the pages have actually ridden the channel's pipe lane;
  // a reply whose payload had to fall back to the copy path arrives with
  // the bytes flattened into `data` and `spliced == false`.
  std::vector<splice::PageRef> pages;
  bool spliced = false;
  // Which lane of the channel's pool the spliced payload rode.
  uint32_t lane_idx = 0;

  uint32_t payload_bytes() const {
    uint32_t total = 0;
    for (const splice::PageRef& ref : pages) {
      total += ref.len;
    }
    return total;
  }

  static FuseReply Error(int err) {
    FuseReply r;
    r.error = err;
    return r;
  }
};

// READDIRPLUS payload serialization: the direntplus stream is packed into
// pages so it can travel the splice lane like READ data (and be flattened
// into `data` on copy fallback). Unpack accepts either representation.
std::vector<splice::PageRef> PackDirentsPlus(const std::vector<FuseDirentPlus>& entries);
std::vector<FuseDirentPlus> UnpackDirentsPlus(const std::vector<splice::PageRef>& pages,
                                              const std::string& flat);

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_PROTO_H_
