// Virtual time for the simulated kernel.
//
// The reproduction runs no real I/O: every syscall, context switch, memcpy
// and device operation instead advances a SimClock by a modeled cost. All
// benchmarks report virtual time, which makes them deterministic, fast, and
// independent of the machine they run on. The CostModel constants are
// calibrated to SSD-class hardware (the paper used EC2 m4.xlarge + EBS GP2)
// and to published FUSE round-trip costs (Vangoor et al., FAST'17), so the
// *ratios* between native and CntrFS paths land in the same bands as the
// paper's Figure 2.
#ifndef CNTR_SRC_UTIL_SIM_CLOCK_H_
#define CNTR_SRC_UTIL_SIM_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace cntr {

// All costs in virtual nanoseconds.
struct CostModel {
  // --- CPU-side costs ---
  // User/kernel crossing for one syscall.
  uint64_t syscall_entry_ns = 300;
  // Hit in the dentry or inode cache.
  uint64_t dcache_hit_ns = 150;
  // One FUSE request round trip: enqueue, wake server, reply, wake caller.
  // Dominated by two context switches (~2-3us each on the paper's testbed).
  uint64_t fuse_round_trip_ns = 6000;
  // Extra per-request dispatch cost when N>1 server threads contend on the
  // /dev/fuse queue (models futex wakeups + cacheline bouncing, Figure 4).
  uint64_t fuse_thread_contention_ns = 350;
  // --- Submission-ring transport (io_uring-style SQ/CQ, see
  // docs/transport.md "Submission rings") ---
  // Filling one submission-queue entry and publishing the ring tail: a few
  // cachelines and one release store, no syscall, no lock.
  uint64_t fuse_ring_sqe_ns = 350;
  // Writing one completion entry and publishing it to the waiter, which
  // adaptively spin-polls the completion slot and picks the result up
  // without a wakeup syscall in the common case.
  uint64_t fuse_ring_cqe_ns = 300;
  // Ringing the submission doorbell (futex wake + context switch toward the
  // server). Charged per reply-carrying SQE; fire-and-forget entries
  // (FORGETs, interrupt notifications) ride the next burst for free — the
  // deterministic analogue of burst amortization. One ring round trip
  // (sqe + doorbell + cqe = 3250ns) still undercuts the 6000ns wakeup
  // handshake, which is where the small-op win comes from.
  uint64_t fuse_ring_doorbell_ns = 2600;
  // Copying one 4KiB page between user and kernel buffers.
  uint64_t copy_page_ns = 400;
  // Splicing (remapping) one 4KiB page through a kernel pipe.
  uint64_t splice_page_ns = 90;
  // Page cache hit for one 4KiB page.
  uint64_t page_cache_hit_ns = 250;

  // --- Filesystem CPU costs (ExtFs, the "ext4 on EBS" stand-in) ---
  // Directory entry search on the backing filesystem (cold lookup).
  uint64_t fs_lookup_ns = 1200;
  // Inode allocation / free (create, unlink).
  uint64_t fs_inode_update_ns = 1500;
  // Extended attribute fetch (uncached by the kernel for security.* — the
  // paper calls this out for the Apache and IOzone write workloads).
  uint64_t fs_xattr_lookup_ns = 800;
  // CNTRFS server-side cost of one LOOKUP beyond the round trip: the
  // open(O_PATH|O_NOFOLLOW) + fstat pair plus hardlink-table bookkeeping
  // (paper §5.2.2 — "for every lookup, we need one open() system call ...
  // followed by a stat()"). Calibrated against the compilebench-read and
  // postmark outliers on the paper's 2-core testbed.
  uint64_t cntrfs_lookup_ns = 18'000;

  // --- Device costs (SSD-class, EBS GP2-like) ---
  // Fixed cost per disk I/O operation.
  uint64_t disk_op_ns = 90000;
  // Per-byte streaming cost. GP2 tops out around 160MB/s: ~6ns/byte.
  uint64_t disk_byte_ns_num = 6;
  uint64_t disk_byte_ns_den = 1;
  // Durable barrier (fsync / journal commit with FUA).
  uint64_t disk_flush_ns = 900000;

  uint64_t DiskTransferNs(uint64_t bytes) const {
    return disk_op_ns + bytes * disk_byte_ns_num / disk_byte_ns_den;
  }
};

// Monotonic virtual clock. Thread-safe: concurrent advances accumulate.
//
// Parallel lanes: by default every Advance lands on the one shared timeline,
// so work done by concurrent real threads *sums* — correct for modeling a
// serialized resource, wrong for modeling truly independent processes. A
// benchmark that wants N clients to progress in parallel gives each client
// thread a Lane (via LaneScope): advances made while a lane is attached
// accrue to that lane's private timeline, NowNs() reads base + lane, and the
// region's virtual duration is the slowest lane (the makespan), which the
// benchmark folds back with Advance(max_lane_ns). Serialization points
// (e.g. a single /dev/fuse queue) are then modeled explicitly — see
// FuseChannel's virtual occupancy in src/fuse/fuse_conn.h.
class SimClock {
 public:
  // One private virtual timeline. A Lane may be attached to at most one
  // thread at a time, but may be handed between threads (the FUSE server
  // worker adopts the requesting client's lane while handling its request,
  // so server-side costs charge the client that incurred them; a FUSE
  // mount's flusher lane is attached by whichever writer runs a background
  // flush, one at a time under that flusher's lock). Lanes are
  // shared-owned: a request queued with a lane keeps it alive even if the
  // submitting thread abandons the wait (connection abort) and tears its
  // region down before the queue drains.
  struct Lane {
    std::atomic<uint64_t> local_ns{0};
  };
  using LanePtr = std::shared_ptr<Lane>;

  // RAII: attaches `lane` to the calling thread (null keeps the previous
  // attachment — convenient for request paths where a lane is optional).
  class LaneScope {
   public:
    explicit LaneScope(LanePtr lane) : prev_(tls_lane()) {
      if (lane != nullptr) {
        tls_lane() = std::move(lane);
      }
    }
    ~LaneScope() { tls_lane() = std::move(prev_); }
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    LanePtr prev_;
  };

  static const LanePtr& current_lane() { return tls_lane(); }

  SimClock() = default;
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  uint64_t NowNs() const {
    uint64_t base = now_ns_.load(std::memory_order_relaxed);
    if (const Lane* lane = tls_lane().get()) {
      return base + lane->local_ns.load(std::memory_order_relaxed);
    }
    return base;
  }

  // Reads the position of `lane`'s timeline regardless of what is attached
  // to the calling thread (null lane reads the shared timeline). Trace
  // stamps use this where a request is handled on behalf of another
  // thread's lane before LaneScope adoption (e.g. the FUSE server reaping
  // a queued request).
  uint64_t NowOnLane(const LanePtr& lane) const {
    uint64_t base = now_ns_.load(std::memory_order_relaxed);
    if (lane != nullptr) {
      return base + lane->local_ns.load(std::memory_order_relaxed);
    }
    return base;
  }

  // Advances virtual time by `ns` and returns the new now. With a lane
  // attached, the advance is private to the lane.
  uint64_t Advance(uint64_t ns) {
    if (Lane* lane = tls_lane().get()) {
      return now_ns_.load(std::memory_order_relaxed) +
             lane->local_ns.fetch_add(ns, std::memory_order_relaxed) + ns;
    }
    return now_ns_.fetch_add(ns, std::memory_order_relaxed) + ns;
  }

 private:
  // Function-local so cross-TU users get the guarded-init accessor rather
  // than a raw TLS symbol reference (which GCC's null sanitizer flags when
  // the object lives in another translation unit).
  static LanePtr& tls_lane() {
    static thread_local LanePtr lane;
    return lane;
  }

  std::atomic<uint64_t> now_ns_{0};
};

// A scoped stopwatch over virtual time.
class SimTimer {
 public:
  explicit SimTimer(const SimClock& clock) : clock_(clock), start_ns_(clock.NowNs()) {}

  uint64_t ElapsedNs() const { return clock_.NowNs() - start_ns_; }
  double ElapsedSeconds() const { return static_cast<double>(ElapsedNs()) * 1e-9; }

 private:
  const SimClock& clock_;
  uint64_t start_ns_;
};

}  // namespace cntr

#endif  // CNTR_SRC_UTIL_SIM_CLOCK_H_
