// The kernel side of FUSE: a FileSystem whose every operation becomes a
// protocol request to a userspace server, with the caching and batching
// machinery the paper's optimizations control (§3.3):
//
//  * keep_cache      — FOPEN_KEEP_CACHE: page cache survives across opens
//                      and is shared between processes (Figure 3a).
//  * writeback_cache — FUSE_WRITEBACK_CACHE: writes land in the kernel page
//                      cache and are flushed in large batches (Figure 3b).
//  * parallel_dirops — FUSE_PARALLEL_DIROPS: concurrent lookups/readdirs do
//                      not serialize on the directory lock (Figure 3c).
//  * async_read      — FUSE_ASYNC_READ: reads batch a full readahead window
//                      into one request instead of page-sized round trips.
//  * splice_read     — reply payloads move via kernel pipes (zero copy)
//                      instead of a userspace copy (Figure 3d).
//  * splice_write    — implemented but default-off: reading the header
//                      separately costs an extra hop on every request.
//  * batch_forget    — FUSE_BATCH_FORGET: dropped inodes are reclaimed in
//                      batches of 64 instead of one FORGET per inode.
//  * readdirplus     — FUSE_READDIRPLUS: READDIR returns each entry together
//                      with its full attributes, priming the dentry and attr
//                      caches so a cold readdir-then-stat-every-child walk of
//                      a K-entry directory costs ~⌈K/readdirplus_batch⌉ round
//                      trips instead of 2K+1 (the compilebench-read/postmark
//                      metadata storm, §5.2.2).
#ifndef CNTR_SRC_FUSE_FUSE_FS_H_
#define CNTR_SRC_FUSE_FUSE_FS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_proto.h"
#include "src/kernel/filesystem.h"
#include "src/kernel/kernel.h"
#include "src/kernel/readahead.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

struct FuseMountOptions {
  bool keep_cache = true;
  bool writeback_cache = true;
  bool parallel_dirops = true;
  bool async_read = true;
  bool splice_read = true;
  bool splice_write = false;  // paper §3.3: slows every op, default off
  // FUSE_SPLICE_MOVE: spliced pages may be stolen (unique refs) or aliased
  // (shared refs, COW-protected) into the receiving cache instead of
  // copied. Off, every spliced page still pays a copy at the cache
  // boundary.
  bool splice_move = true;
  bool batch_forget = true;
  bool readdirplus = true;

  uint64_t entry_ttl_ns = 1'000'000'000;  // dentry validity
  // Attribute cache validity: the fallback when the server's reply carries
  // no TTL, and a cap on the TTL it does propose (0 = no attr caching).
  uint64_t attr_ttl_ns = 1'000'000'000;
  // Floors for the negotiated I/O windows: the effective WRITE chunk is
  // max(max_write, granted max_pages * 4KiB) and the readahead ramp's
  // ceiling is max(readahead_pages, granted max_pages). To cap either
  // BELOW the negotiated window, lower max_pages itself (e.g. max_pages=8
  // caps both at 32KiB); setting only these two smaller has no effect on a
  // mount that negotiates a bigger window.
  uint32_t max_write = 128 * 1024;        // bytes per WRITE request (floor)
  uint32_t readahead_pages = 32;          // readahead ceiling floor (async_read)
  uint32_t readdirplus_batch = 128;       // entries per READDIRPLUS request
  // FUSE_MAX_PAGES negotiation: the payload window (pages) INIT asks the
  // server for. When granted, the effective max_write and the readahead
  // ceiling rise to cover it — big sequential consumers get 1MiB windows
  // without a custom mount. 0 (or an old server that does not ack the
  // flag) keeps the legacy 32-page / 128KiB windows above. Clamped to
  // kFuseMaxMaxPages (256 pages = 1MiB).
  uint32_t max_pages = kFuseMaxMaxPages;

  // --- Adaptive writeback (replaces the old single 256MB flush-everything
  // threshold, which over-buffered small files and then stalled the writing
  // caller on a synchronous flush storm) ---
  // Soft watermark: past this many dirty bytes, the whole dirty set is
  // flushed in the background (on a flusher lane) — the writer is not
  // stalled.
  uint64_t dirty_soft_bytes = 64ull << 20;
  // Hard watermark: the backstop for when background flushes are skipped (a
  // fault, an aborted mount) or a concurrent writer outruns them. Past it,
  // the writer throttles by flushing its *own* inode (bounded work), never
  // the whole dirty set.
  uint64_t dirty_hard_bytes = 256ull << 20;
  // Per-inode dirty ceiling: one streaming file is flushed in the background
  // this often, so its dirty tail stays bounded.
  uint64_t per_inode_dirty_bytes = 16ull << 20;
  // Flusher lanes (pdflush analogue, without threads): the writer that
  // trips a watermark runs the flush itself inside a LaneScope on one of
  // these private SimClock lanes, so the round trips overlap foreground
  // work instead of stalling it. 0 puts every flush on the writer's own
  // timeline: the writer pays for the soft-watermark drain.
  uint32_t flusher_threads = 2;
  // Cloned /dev/fuse request queues (FUSE_DEV_IOC_CLONE analogue). Requests
  // route to a channel by caller pid, sticky, so independent processes stop
  // contending on one queue lock (see fuse_conn.h). 1 = the paper's
  // single-queue design; 0 = one channel per server thread. Read by the
  // opener, not by the mount: OpenFuseDevice with mount options sets the
  // connection's shape before it is served (plain attach, fleet attach,
  // reconnect, the bench harness).
  uint32_t num_channels = 1;
  size_t ChannelCount(int server_threads) const {
    return num_channels == 0 ? static_cast<size_t>(server_threads) : num_channels;
  }
  // Per-channel splice-lane capacity in pages (the F_SETPIPE_SZ analogue).
  // A READ/WRITE payload larger than the lane falls back to the copy path
  // whole. With lane_autosize on, this is only the starting size: the mount
  // grows the lanes to cover the negotiated max_pages window, and runtime
  // fallback pressure grows them further (up to the 1MiB pipe limit).
  uint32_t pipe_pages = 32;
  // Grow a channel's splice lanes when splice_fallbacks shows payloads
  // bouncing to the copy path (and at mount time, to cover the negotiated
  // window). Off, the lanes stay exactly pipe_pages forever.
  bool lane_autosize = true;

  // --- Submission-ring transport (docs/transport.md "Submission rings") ---
  // Ask for kFuseRingSubmission at INIT: the connection's SQ/CQ rings
  // switch from the paper's wakeup-handshake cost profile to the ring
  // profile — cheap SQE/CQE fills, multi-reap bursts, spin-then-park
  // waiters. Off (or an old server that does not ack the flag), the mount
  // keeps the paper profile on the same code.
  bool ring_enabled = true;
  // Entries per ring (submission queue and completion slots). Rounded up to
  // a power of two in [8, 1024]; also the per-channel in-flight ceiling,
  // under either profile. 0 = kDefaultRingDepth. Like num_channels, read by
  // the opener (OpenFuseDevice), not by the mount.
  uint32_t ring_depth = kDefaultRingDepth;
  // Iterations a ring-profile completion waiter spin-polls before parking.
  // Higher burns CPU to shave wakeup latency; 0 parks immediately.
  uint32_t ring_spin_budget = kDefaultRingSpinBudget;

  // --- Failure semantics (docs/robustness.md) ---
  // Per-request deadline in virtual ns; 0 = none. An expired request
  // resolves ETIMEDOUT at the caller and its late reply is dropped with a
  // stat; a wedged server that never replies is caught by a real-time
  // sweeper after deadline_grace_ms of wall time.
  uint64_t request_deadline_ns = 0;
  uint64_t deadline_grace_ms = 50;
  // Admission gate (max_background analogue): callers park once this many
  // requests are in flight, so a stalled server backpressures instead of
  // growing queues without bound. 0 = off.
  uint32_t max_background = 0;
  // Consecutive deadline misses before the connection auto-aborts (the
  // crash-degradation policy: a dead mount answers EIO, it does not time
  // out forever). 0 = never.
  uint32_t abort_after_timeouts = 0;

  // --- Observability (docs/observability.md) ---
  // Slow-request log threshold in virtual ns: a completed request whose
  // total (enqueue to waiter wake) meets it is logged at warn level with
  // its queue/service/transit breakdown, rate-limited so a mass-timeout
  // storm cannot flood the log. 0 defers to the CNTR_SLOW_REQUEST_NS
  // environment variable (absent or unparsable = disabled).
  uint64_t slow_request_ns = 0;

  // Everything on, plus the post-paper adaptivity (negotiated 1MiB
  // windows, watermark + flusher writeback, lane autosizing).
  static FuseMountOptions Optimized() { return FuseMountOptions{}; }
  // The paper's tuned configuration exactly: every §3.3 optimization on,
  // but the PR 3-era fixed 128KiB windows and the synchronous 256MB
  // flush-everything writeback (no flusher lanes, soft == hard: the writer
  // drains the whole dirty set at 256MB). Figure 2/4 reproductions use this
  // so their numbers keep tracking the paper; Optimized() is what ships.
  static FuseMountOptions Paper() {
    FuseMountOptions o;
    o.max_pages = 0;
    o.flusher_threads = 0;
    o.dirty_soft_bytes = 256ull << 20;
    o.dirty_hard_bytes = 256ull << 20;
    o.per_inode_dirty_bytes = UINT64_MAX;
    o.lane_autosize = false;
    o.ring_enabled = false;  // the paper's wakeup-handshake cost profile
    return o;
  }
  // Everything off (the "before" bars in Figure 3).
  static FuseMountOptions Baseline() {
    FuseMountOptions o;
    o.keep_cache = false;
    o.writeback_cache = false;
    o.parallel_dirops = false;
    o.async_read = false;
    o.splice_read = false;
    o.splice_move = false;
    o.batch_forget = false;
    o.readdirplus = false;
    o.max_pages = 0;         // legacy 32-page / 128KiB windows
    o.flusher_threads = 0;   // never used: write-through dirties no page
    o.lane_autosize = false;
    o.ring_enabled = false;  // the paper's wakeup-handshake cost profile
    return o;
  }
};

class FuseInode;
class FuseFile;

class FuseFs : public kernel::FileSystem, public std::enable_shared_from_this<FuseFs> {
 public:
  // Sends INIT over `conn`; the server must already be answering requests.
  static StatusOr<std::shared_ptr<FuseFs>> Create(kernel::Kernel* kernel,
                                                  std::shared_ptr<FuseConn> conn,
                                                  FuseMountOptions opts);

  kernel::InodePtr root() override;
  std::string Type() const override { return "fuse.cntrfs"; }
  StatusOr<kernel::StatFs> Statfs() override;
  Status Rename(const kernel::InodePtr& old_dir, const std::string& old_name,
                const kernel::InodePtr& new_dir, const std::string& new_name,
                uint32_t flags) override;
  uint64_t DentryTtlNs() const override { return opts_.entry_ttl_ns; }
  bool EnforcesFsizeLimit() const override { return false; }      // paper §5.1, #228
  bool VfsAppliesSetgidPolicy() const override { return false; }  // paper §5.1, #375

  const FuseMountOptions& options() const { return opts_; }
  kernel::Kernel* kernel() const { return kernel_; }
  FuseConn& conn() { return *conn_; }
  // True when the mount asked for READDIRPLUS and the server granted it at
  // INIT time (FUSE_DO_READDIRPLUS).
  bool readdirplus_enabled() const { return readdirplus_enabled_; }
  // Splice capabilities as negotiated at INIT time.
  bool splice_read_enabled() const { return splice_read_enabled_; }
  bool splice_write_enabled() const { return splice_write_enabled_; }
  bool splice_move_enabled() const { return splice_move_enabled_; }
  // True when the mount asked for the ring profile, the server acked
  // kFuseRingSubmission, and the connection switched over (one-way).
  bool ring_enabled() const { return conn_->ring_profile() == RingProfile::kRing; }

  // --- negotiated I/O windows (FUSE_MAX_PAGES) ---
  // Pages the server granted at INIT; 0 when the mount did not ask or the
  // server did not ack the flag (legacy 32-page windows).
  uint32_t negotiated_max_pages() const { return negotiated_max_pages_; }
  // Bytes per WRITE request after negotiation (>= options().max_write).
  uint32_t effective_max_write() const { return effective_max_write_; }
  // Largest readahead window a sequential stream may ramp to.
  uint32_t readahead_ceiling_pages() const { return readahead_ceiling_pages_; }

  // Issues a request; adds the serialized-dirop penalty for LOOKUP/READDIR
  // when parallel_dirops is off and the splice-write header hop when
  // splice_write is on.
  StatusOr<FuseReply> Call(FuseRequest req);

  // nodeid -> inode identity map (hardlinks resolve to one inode). Always
  // refreshes the inode's cached attributes from `entry` (the server's reply
  // is newer than whatever the inode held).
  kernel::InodePtr GetOrCreateInode(const FuseEntryOut& entry);
  // Entries in that map: live inodes only, since ~FuseInode erases its own
  // entry (the client-side mirror of CntrFsServer::NodeTableSize).
  size_t InodeTableSize() const;

  // Materializes one READDIRPLUS entry: resolves the inode, refreshes its
  // attr cache, and primes the kernel dentry cache under (dir, name) with
  // the server-granted entry TTL. Returns the child inode.
  kernel::InodePtr PrimeChild(FuseInode* dir, const std::string& name,
                              const FuseEntryOut& entry);

  // FORGET path: called from ~FuseInode. `nlookup` is the number of
  // server-granted lookups being returned (LOOKUP + READDIRPLUS entries).
  void QueueForget(uint64_t nodeid, uint64_t nlookup);
  void FlushForgets();

  // Writeback bookkeeping. NoteDirty applies the watermark policy: at the
  // per-inode limit (that inode) or the soft watermark (the whole dirty
  // set) the writer flushes right there, on a flusher lane as the kernel
  // (pid 0) or, with no live flusher, on its own timeline; at the hard
  // watermark it throttles with a bounded flush of its own inode.
  void NoteDirty(FuseInode* inode, uint64_t newly_dirty_bytes);
  void ForgetDirty(FuseInode* inode);
  void FlushAllDirty();
  uint64_t dirty_bytes() const { return dirty_bytes_.load(); }
  // Exact decrement helper (clamped at zero) for flush paths.
  void SubDirty(uint64_t bytes);

  // Writeback observability: inodes flushed at the per-inode limit or the
  // soft watermark, foreground writers throttled at the hard watermark, and
  // flusher lanes not retired by a fuse.flusher kKill (Reconnect revives
  // them).
  uint64_t background_flushes() const { return background_flushes_.load(); }
  uint64_t foreground_throttles() const { return foreground_throttles_.load(); }
  uint32_t live_flushers() const;

  // Detach: flush, send DESTROY, abort the connection. Returns the first
  // writeback error hit while draining the final flush (the dirty data is
  // gone either way; the error is also recorded in the errseq stream for
  // any fd still open).
  Status Shutdown();

  // --- errseq_t analogue: the per-superblock writeback error stream ---
  // A failed WRITE during writeback marks its pages clean anyway (keeping
  // them dirty would wedge writeback forever — Linux's AS_EIO behaviour)
  // and records the error here; every fd that later checks the stream sees
  // the error exactly once.
  void RecordWbErr(int err);
  uint64_t wb_err_seq() const { return wb_err_seq_.load(std::memory_order_acquire); }
  // Check-and-advance against a caller-held cursor (one per fd): returns
  // the pending error and moves the cursor if the stream advanced past it,
  // else 0.
  int CheckWbErr(uint64_t* seen) const;

  // Attach reconnect: adopt a fresh connection to a restarted server.
  // Precondition: the old connection is aborted (waiters have drained
  // through its failure path). Replays INIT — windows and lanes are
  // renegotiated from scratch — then re-opens every live file handle by
  // nodeid; a handle the server can no longer resolve goes stale and
  // answers EIO from then on.
  Status Reconnect(std::shared_ptr<FuseConn> conn);

  // Live open-file registry (Reconnect re-opens these by nodeid).
  void RegisterFile(FuseFile* file);
  void UnregisterFile(FuseFile* file);

 private:
  friend class FuseInode;

  FuseFs(kernel::Kernel* kernel, std::shared_ptr<FuseConn> conn, FuseMountOptions opts);

  // INIT negotiation + window/lane sizing + failure-plane options, applied
  // to conn_. Shared by Create and Reconnect.
  Status NegotiateInit();

  kernel::Kernel* kernel_;
  std::shared_ptr<FuseConn> conn_;
  FuseMountOptions opts_;
  bool readdirplus_enabled_ = false;
  bool splice_read_enabled_ = false;
  bool splice_write_enabled_ = false;
  bool splice_move_enabled_ = false;
  uint32_t negotiated_max_pages_ = 0;
  uint32_t effective_max_write_ = 128 * 1024;
  uint32_t readahead_ceiling_pages_ = 32;
  std::shared_ptr<FuseInode> root_;

  // nodeid -> inode. The server never reuses a forgotten nodeid, so
  // ~FuseInode erases its own entry (unless a live inode already replaced
  // it); otherwise every recycled nodeid would leave a dead weak_ptr that
  // pins the make_shared block of the inode it named.
  mutable analysis::CheckedMutex inodes_mu_{"fuse.fs.inodes"};
  std::map<uint64_t, std::weak_ptr<FuseInode>> inodes_;

  analysis::CheckedMutex forget_mu_{"fuse.fs.forget"};
  std::vector<FuseRequest::Forget> forget_queue_;

  std::atomic<uint64_t> dirty_bytes_{0};
  analysis::CheckedMutex dirty_mu_{"fuse.fs.dirty"};
  // Registered dirty inodes, with weak refs so a flush can pin an inode
  // across it (or skip one that died).
  struct DirtyRef {
    FuseInode* key = nullptr;
    std::weak_ptr<FuseInode> ref;
  };
  std::vector<DirtyRef> dirty_inodes_;

  // One flusher lane: a serial virtual timeline, so the writer that runs a
  // background flush on it holds `mu` for the whole flush (writers that
  // trip a watermark together queue here). `live` is written under `mu`
  // and read without it as a pick hint.
  struct Flusher {
    analysis::CheckedMutex mu{"fuse.fs.flusher"};
    SimClock::LanePtr lane = std::make_shared<SimClock::Lane>();
    std::atomic<bool> live{true};
  };
  // Flushes `work` in the background: on the next live flusher lane
  // (round-robin) as the kernel, probing fuse.flusher per inode; with no
  // live flusher, on the writer's own timeline.
  void BackgroundFlush(const std::vector<DirtyRef>& work);
  std::vector<Flusher> flushers_;  // sized once, at construction
  std::atomic<uint32_t> next_flusher_{0};
  std::atomic<uint64_t> background_flushes_{0};
  std::atomic<uint64_t> foreground_throttles_{0};

  // errseq stream: err is stored before seq advances, so a reader that
  // observes a new seq always reads the matching (or a newer) error.
  std::atomic<uint64_t> wb_err_seq_{0};
  std::atomic<int> wb_err_{0};

  mutable analysis::CheckedMutex files_mu_{"fuse.fs.files"};
  std::vector<FuseFile*> live_files_;
};

// One inode of a FUSE mount. The attribute cache lives here; the page cache
// lives in the kernel-wide pool keyed by this object.
class FuseInode : public kernel::Inode {
 public:
  FuseInode(FuseFs* fs, uint64_t nodeid, const kernel::InodeAttr& attr, uint64_t attr_expiry_ns);
  ~FuseInode() override;

  uint64_t nodeid() const { return nodeid_; }

  StatusOr<kernel::InodeAttr> Getattr() override;
  Status Setattr(const kernel::SetattrRequest& req, const kernel::Credentials& cred) override;
  StatusOr<kernel::InodePtr> Lookup(const std::string& name) override;
  StatusOr<kernel::InodePtr> Create(const std::string& name, kernel::Mode mode, kernel::Dev rdev,
                                    const kernel::Credentials& cred) override;
  StatusOr<kernel::InodePtr> Mkdir(const std::string& name, kernel::Mode mode,
                                   const kernel::Credentials& cred) override;
  Status Unlink(const std::string& name) override;
  Status Rmdir(const std::string& name) override;
  Status Link(const std::string& name, const kernel::InodePtr& target) override;
  StatusOr<kernel::InodePtr> Symlink(const std::string& name, const std::string& target,
                                     const kernel::Credentials& cred) override;
  StatusOr<std::vector<kernel::DirEntry>> Readdir() override;
  StatusOr<std::string> Readlink() override;
  StatusOr<kernel::FilePtr> Open(int flags, const kernel::Credentials& cred) override;
  Status SetXattr(const std::string& name, const std::string& value, int flags) override;
  StatusOr<std::string> GetXattr(const std::string& name) override;
  StatusOr<std::vector<std::string>> ListXattr() override;
  Status RemoveXattr(const std::string& name) override;
  // FUSE inodes are not exportable (paper §5.1, xfstests #426).
  StatusOr<uint64_t> ExportHandle() override { return Status::Error(EOPNOTSUPP); }
  StatusOr<kernel::InodePtr> Parent() override;

  // --- data plane (called by FuseFile) ---
  // `ra` is the calling open file's readahead state (null: fixed windows, as
  // for internal read-modify-write fills).
  StatusOr<size_t> ReadData(char* buf, size_t count, uint64_t off, uint64_t fh,
                            kernel::FileReadahead* ra = nullptr);
  StatusOr<size_t> WriteData(const char* buf, size_t count, uint64_t off, uint64_t fh);
  Status FsyncData(bool datasync, uint64_t fh);
  // Flushes dirty pages in effective_max_write batches; returns requests
  // issued. Safe to call concurrently (per-inode flush lock; pages that are
  // re-dirtied mid-flight stay dirty via generation-checked MarkClean).
  uint32_t FlushDirtyPages(uint64_t fh);

  FuseFs* fuse_fs() const { return fs_; }
  uint64_t CachedSize();
  // Refreshes the flush-without-open-file handle (reconnect re-open path).
  void NoteOpenFh(uint64_t fh) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    last_known_fh_ = fh;
  }
  void SetParentHint(std::shared_ptr<FuseInode> parent) { parent_hint_ = std::move(parent); }

  // Installs server-granted attributes into the attr cache (READDIRPLUS /
  // LOOKUP reply priming): a subsequent Getattr within `ttl_ns` is a pure
  // cache hit, no round trip.
  void PrimeAttr(const kernel::InodeAttr& attr, uint64_t ttl_ns);

  // The READDIRPLUS loop: fetches the directory in readdirplus_batch-sized
  // requests (the server snapshots the listing on the first batch and hands
  // back a continuation token), materializing and priming every returned
  // child along the way.
  StatusOr<std::vector<kernel::DirEntry>> ReaddirPlus();

  // --- READDIRPLUS adaptivity (Linux's readdirplus_auto heuristic) ---
  // A pure `ls`-style consumer lists a directory but never reads the
  // primed attributes; for it READDIRPLUS is all tax, no benefit, so after
  // one unconsumed sample walk the directory falls back to plain READDIR.
  // Any sign that stats are happening again — a child attribute miss, a
  // LOOKUP round trip on this directory (FUSE_I_ADVISE_RDPLUS analogue) —
  // re-enables it.

  // Decides plus-vs-plain for the next listing of this directory and rolls
  // the sample window (call once per listing).
  bool DecideReaddirPlus();
  // A primed child attribute was served from cache: the plus data paid off.
  void NoteChildAttrConsumed() { rdplus_consumed_.fetch_add(1, std::memory_order_relaxed); }
  // Stat-shaped traffic observed: lift the suppression.
  void AdviseReaddirPlus() { rdplus_suppressed_.store(false, std::memory_order_relaxed); }
  bool readdirplus_suppressed() const {
    return rdplus_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  friend class FuseFs;

  // Attr cache helpers (mu_ held).
  bool AttrFreshLocked() const;
  void UpdateAttrLocked(const kernel::InodeAttr& attr, uint64_t ttl_ns);
  // Installs a server-granted attr, preserving the kernel-owned size/mtime
  // while writeback-dirty pages are unflushed.
  void UpdateServerAttrLocked(const kernel::InodeAttr& attr, uint64_t ttl_ns);

  FuseFs* fs_;
  // Inodes pin the filesystem (Linux's s_active): a dcache entry or open
  // file can hold a FuseInode past unmount, and its destructor still needs
  // the fs for FORGET/writeback bookkeeping. The root inode's copy of this
  // reference forms a cycle with FuseFs::root_, broken in Shutdown().
  std::shared_ptr<FuseFs> fs_ref_;
  uint64_t nodeid_;
  // Server-granted lookups against this inode (one per LOOKUP-shaped reply
  // materialized through GetOrCreateInode); returned in the FORGET so the
  // server's lookup_count balances to zero.
  std::atomic<uint64_t> nlookup_{1};
  analysis::CheckedMutex mu_{"fuse.fs.inode"};
  kernel::InodeAttr attr_;
  uint64_t attr_expiry_ns_;
  uint64_t last_known_fh_ = UINT64_MAX;  // for flush without an open file
  std::weak_ptr<FuseInode> parent_hint_;
  bool dirty_registered_ = false;
  // Serializes whole-inode flushes so a background flush and a throttled
  // foreground writer do not issue duplicate WRITEs for the same extents.
  analysis::CheckedMutex flush_mu_{"fuse.fs.inode.flush"};

  // Adaptivity sample for directories: children primed by the last
  // READDIRPLUS walk vs. primed attrs consumed since (see DecideReaddirPlus).
  static constexpr uint32_t kRdplusMinSample = 16;
  std::atomic<uint32_t> rdplus_primed_{0};
  std::atomic<uint32_t> rdplus_consumed_{0};
  std::atomic<bool> rdplus_suppressed_{false};
  // On children: set when READDIRPLUS primed this inode's attributes and no
  // one has read them yet; the first cache-hit Getattr claims it and
  // credits the parent directory.
  std::atomic<bool> attr_primed_unclaimed_{false};
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_FS_H_
