// The /dev/fuse connection: the request/response channel between the
// kernel-side FUSE filesystem and the userspace server.
//
// Architecture note — multi-queue channels vs. the paper's single queue.
//
// The paper's CNTRFS (§3.3) has every server thread read one shared
// /dev/fuse queue; Figure 4 measures the price: each extra reader adds a
// flat contention premium (futex churn, cacheline bouncing) to every
// request, so throughput *declines* as threads are added. Linux grew out of
// this with cloned device channels (FUSE_DEV_IOC_CLONE): each clone is an
// independent queue with its own lock.
//
// FuseConn reproduces both designs. It owns N FuseChannels, each with its
// own submission ring and completion slots (see fuse_ring.h):
//
//   * Routing: the kernel side picks a channel by hashing the calling
//     process (sticky — one process's requests, including its FORGETs,
//     stay FIFO on one channel, so a FORGET is never *dequeued* ahead of
//     the LOOKUP traffic it balances; with multiple workers the handlers
//     may still overlap, which is safe because a FORGET carries the full
//     nlookup balance and the node table clamps at zero).
//   * Contention: the Figure 4 premium is charged per channel — it scales
//     with the readers of *that* channel, not the whole server. A channel's
//     readers follow from the declared server parallelism (worker i is
//     homed on channel i % N; see SetServerParallelism). One channel with N
//     workers reproduces the paper's numbers exactly; N channels with one
//     worker each make the premium vanish.
//   * Occupancy: each channel is a serial resource in virtual time. When
//     callers run on parallel SimClock lanes (bench_multithreading's
//     independent client processes), a request arriving at a busy channel
//     first waits out the channel's backlog on the caller's lane — which is
//     what makes the single-queue configuration plateau and the multi-queue
//     configuration scale near-linearly.
//   * Work conservation: a server worker scans every channel, home channel
//     first (FuseServerPool), so a single hot process still gets the whole
//     thread pool.
//
// The default is one channel — the paper's configuration.
//
// A connection's shape is its channel count and its ring depth. Like the
// clones Linux sets up before a mount is served, the shape is fixed before
// the first request (ConfigureChannels); from then on every channel keeps
// its one ring for the connection's life, so the request path takes no lock
// to route, submit or wait.
//
// One request path (the FUSE-over-io_uring lineage): submissions ride a
// lock-free SQ the server reaps, completions land in per-request slots the
// waiter polls, and a wakeup per direction is only delivered when the far
// side is actually parked. What a trip costs is the connection's cost
// profile (RingProfile in fuse_ring.h). A fresh connection, its INIT
// exchange, and every mount that does not negotiate kFuseRingSubmission run
// the paper's wakeup handshake as the kPaper profile — a full round trip
// plus the Figure 4 contention premium per request, single-request reaps,
// waiters that park at once. A mount that negotiates the bit switches to
// kRing on the same rings: cheap SQE/CQE fills plus a doorbell, burst reaps,
// spin-then-park waiters.
#ifndef CNTR_SRC_FUSE_FUSE_CONN_H_
#define CNTR_SRC_FUSE_FUSE_CONN_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/fault/fault.h"
#include "src/fuse/fuse_proto.h"
#include "src/fuse/fuse_ring.h"
#include "src/kernel/file.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

// Starting capacity of a channel's splice lanes (32 pages = 128 KiB, the
// legacy window size). This is only the construction-time default: the
// mount resizes the lanes to cover whatever payload window FUSE_MAX_PAGES
// negotiation settles on (up to 256 pages = 1 MiB), and with lane
// autosizing enabled the lanes keep growing at runtime when
// splice_fallbacks shows payloads bouncing to the copy path.
inline constexpr size_t kDefaultLanePages = 32;

// Lanes per channel and direction — the libfuse pipe-pool analogue: the
// real server keeps a pipe pair per worker thread, so spliced payloads of
// concurrent requests never contend on one pipe. Matches the default
// worker count; a payload only falls back to the copy path when no lane
// of its direction has room for it.
inline constexpr size_t kLanePoolSize = 8;

// The byte ledger of one channel's zero-copy data lanes. Each lane stands
// for one pipe of the pool: spliced WRITE payloads claim a kIn lane
// (kernel -> server), spliced READ / READDIRPLUS payloads a kOut lane
// (server -> kernel). A payload holds its lane's bytes from gating until the
// receiving side consumes the message — which lane it took travels with it
// (`lane_idx`) — while page identity travels with the typed request/reply
// (the analogue of /dev/fuse consuming header + spliced payload in one
// read), so the ledger counts bytes only. Every lane of the channel has the
// same capacity.
class LaneLedger {
 public:
  enum Dir : size_t { kIn = 0, kOut = 1 };

  // Claims `bytes` on the first lane of `dir`, in index order, with room
  // for all of them; nullopt when no lane has (the copy-path fallback).
  std::optional<uint32_t> Claim(Dir dir, uint64_t bytes);
  // Gives `bytes` back to lane `idx` of `dir`, clamping at zero: an abort's
  // Clear may already have zeroed the lane.
  void Release(Dir dir, uint32_t idx, uint64_t bytes);
  // fcntl(F_SETPIPE_SZ) on every lane: rounds up to a power of two of at
  // least one page; EINVAL for 0, EPERM above kernel::kPipeMaxCapacity,
  // EBUSY when a lane holds more than the new size. Returns the capacity.
  StatusOr<size_t> Resize(size_t bytes);
  // Drops every claim (connection teardown).
  void Clear();
  size_t capacity() const;
  // Bytes held across every lane of both directions.
  uint64_t held() const;

 private:
  mutable analysis::CheckedMutex mu_{"fuse.conn.lanes"};
  size_t capacity_ = kDefaultLanePages * kernel::kPageSize;
  std::array<std::array<uint64_t, kLanePoolSize>, 2> held_{};
};

// One cloned /dev/fuse queue: a submission ring with its completion slots,
// its splice lanes, plus the channel's occupancy, routing and batch
// counters. Padded so neighbouring channels do not false-share.
struct alignas(64) FuseChannel {
  explicit FuseChannel(size_t ring_depth) : ring(ring_depth) {}

  // The channel's only ring, built with it and kept for its life.
  RingState ring;

  // Virtual-time occupancy: the instant this channel finishes its current
  // backlog. Only observable across parallel SimClock lanes. Updated
  // lock-free (monotonic fetch-max).
  std::atomic<uint64_t> busy_until_ns{0};
  // Requests ever enqueued here (routing visibility for tests/stats).
  std::atomic<uint64_t> enqueued{0};
  // Deepest the queue has ever been (a persistently deep channel says the
  // mount wants more channels: FuseMountOptions::num_channels).
  std::atomic<uint64_t> max_depth{0};
  // Copy-path fallbacks since the lanes last grew (autosizing pressure).
  std::atomic<uint32_t> fallback_pressure{0};

  // Zero-copy data lanes (see LaneLedger).
  LaneLedger lanes;

  // Batch-efficiency counters (FuseConn::Stats rolls them up).
  std::atomic<uint64_t> doorbells{0};
  std::atomic<uint64_t> reaps{0};
  std::atomic<uint64_t> reaped_requests{0};
  std::atomic<uint64_t> max_reqs_per_reap{0};
  std::atomic<uint64_t> sq_overflows{0};
  std::atomic<uint64_t> spin_parks{0};
};

class FuseConn {
 public:
  // Up to kMaxChannels cloned queues; channel indices ride in the low bits
  // of the request unique so replies find their channel's completion slots
  // without a global table.
  static constexpr size_t kChannelBits = 6;
  static constexpr size_t kMaxChannels = size_t{1} << kChannelBits;

  // `metrics` is the registry the connection's instruments live in (the
  // owning kernel's registry for mounted connections); null falls back to
  // the process-wide MetricsRegistry::Global(). Every connection gets a
  // fresh mount label ("m0", "m1", ...) from the registry's scope
  // allocator, so per-mount series stay distinct in the fleet rollup.
  FuseConn(SimClock* clock, const CostModel* costs, size_t num_channels = 1,
           fault::FaultRegistry* faults = nullptr,
           obs::MetricsRegistry* metrics = nullptr);
  ~FuseConn();

  // Sets the connection's shape (the FUSE_DEV_IOC_CLONE analogue): builds
  // `requested` channels (clamped to [1, kMaxChannels]), each with one ring
  // of `ring_depth` entries for the connection's life. The depth rounds up
  // to a power of two in [kMinRingDepth, kMaxRingDepth] (0 =
  // kDefaultRingDepth) and is also the per-channel in-flight ceiling.
  // The opener calls it before the connection is served (OpenFuseDevice
  // with mount options); a fresh connection has one channel of
  // kDefaultRingDepth. Refused once the connection has carried a request —
  // a queued request's unique names its channel and slot, and sticky
  // routing keeps one process's FORGETs behind its LOOKUPs — or has been
  // aborted. Returns the resulting channel count.
  size_t ConfigureChannels(size_t requested, size_t ring_depth = kDefaultRingDepth);
  size_t num_channels() const { return num_channels_.load(std::memory_order_acquire); }
  size_t ring_depth() const { return Channel(0).ring.depth; }

  // Switches the cost profile from kPaper to kRing on the existing rings,
  // once INIT has negotiated kFuseRingSubmission. One-way: the connection
  // stays on kRing for good. `spin_budget` is the iterations a kRing waiter
  // spin-polls before parking; it is stored before the profile, so a
  // waiter that sees kRing sees its budget. A request in flight across the
  // switch may be priced partly under each profile.
  void UseRingProfile(uint32_t spin_budget = kDefaultRingSpinBudget);
  RingProfile ring_profile() const { return profile_.load(std::memory_order_acquire); }

  // Sticky routing: which channel requests from `pid` land on.
  size_t RouteChannel(kernel::Pid pid) const;

  // --- kernel side ---
  // Blocks until the server replies (or the connection aborts: ENOTCONN).
  // Charges a round trip of the channel's cost profile on the virtual clock
  // and — across parallel lanes — the channel's backlog.
  StatusOr<FuseReply> SendAndWait(FuseRequest request);

  // Fire-and-forget (FORGET/BATCH_FORGET have no reply). Charges one SQE
  // fill (half a round trip under the paper profile). Routed by pid like
  // SendAndWait, so forgets stay ordered behind the caller's lookups on the
  // same channel. The server handles it on a fresh lane of its own, so its
  // work moves no timeline anyone reads.
  void SendNoReply(FuseRequest request);

  // --- server side ---
  // The only reap entry: drains up to `max_batch` requests scanning every
  // channel once (start-channel first, then ring order), each channel's
  // reap capped by its ring profile, and never parks. An empty batch means
  // "nothing queued right now"; a server thread parks in FuseServerPool's
  // eventcount, which the work observer (SetWorkObserver) rings.
  std::vector<FuseRequest> TryReadRequestBatch(size_t start_channel = 0,
                                               size_t max_batch = kRingReapBatch);
  void WriteReply(uint64_t unique, FuseReply reply);

  // Tear down: wakes waiters with ENOTCONN, drains the rings and rings the
  // work observer, so the serving pool notices the abort.
  void Abort();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // --- request lifecycle hardening ---

  // Arms per-request deadlines. `virtual_ns` bounds the request in virtual
  // time: a reply delivered past it is dropped as late and the waiter gets
  // ETIMEDOUT. `real_grace_ms` (> 0) additionally starts a real-time
  // sweeper for wedged servers that never reply at all — a pending request
  // older than the grace in wall time is expired the same way (the waiter
  // then charges `virtual_ns` to its own timeline, modeling the wait).
  // virtual_ns == 0 disarms both.
  void SetRequestDeadline(uint64_t virtual_ns, uint64_t real_grace_ms = 50);
  uint64_t request_deadline_ns() const {
    return deadline_ns_.load(std::memory_order_acquire);
  }

  // After `n` consecutive deadline misses the connection auto-aborts (the
  // stalled-server degradation policy). 0 = never.
  void SetAbortOnConsecutiveTimeouts(uint32_t n) {
    abort_after_timeouts_.store(n, std::memory_order_release);
  }

  // Admission gate (max_background analogue): with a cap set, SendAndWait
  // blocks while `cap` requests are already in flight, so a stalled server
  // backpressures callers instead of growing queues unboundedly. 0 = off.
  // Changing the cap wakes every parked waiter to re-evaluate — widening
  // (or disarming) the gate must release them, and a waiter that wakes on a
  // dead connection resolves with ENOTCONN instead of re-parking.
  void SetMaxBackground(uint32_t cap);
  // Per-tenant admission budget, layered *under* max_background by a shared
  // server pool: the effective cap is the tighter of the two non-zero
  // values, so a fleet controller can squeeze one noisy mount without
  // touching the mount-negotiated gate. 0 = no budget.
  void SetAdmissionBudget(uint32_t budget);
  uint32_t admission_budget() const {
    return admission_budget_.load(std::memory_order_acquire);
  }
  uint32_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  // Overload shedding (pool hard watermark): while set, every new
  // SendAndWait is rejected immediately with ETIMEDOUT — the graceful
  // alternative to letting one tenant's backlog collapse the fleet's p99.
  // In-flight requests and fire-and-forget FORGETs are not touched.
  void SetShedNewRequests(bool shed) {
    shed_new_requests_.store(shed, std::memory_order_release);
  }
  bool shedding_new_requests() const {
    return shed_new_requests_.load(std::memory_order_acquire);
  }

  // Requests currently queued across every channel (SQ occupancy) — the
  // pool's overload-watermark signal. An SQE is counted before it is
  // published and uncounted only after it is popped, so a concurrent reap
  // can never drive this below zero; it may overshoot the SQ occupancy by
  // one per submitter mid-push plus one per reaper mid-pop.
  uint64_t queued_depth() const { return queued_total_.load(std::memory_order_relaxed); }

  // --- shared-pool integration ---
  // Observer invoked after every enqueue (and on Abort): a shared server
  // pool registers one per attached connection so any mount's submission
  // wakes the pool's scheduler. Install while quiet (attach/adoption time);
  // passing nullptr disarms. The callback runs on submitter threads and
  // must not block.
  void SetWorkObserver(std::function<void()> observer);
  // Declares how many server threads serve this connection (the serving
  // pool's worker count). It prices the Figure 4 premium: worker i is homed
  // on channel i % num_channels(), so channel c has the workers homed on it
  // as its readers (ChannelReaders). When the declared parallelism is below
  // the channel count the ring spin budget also backs off
  // proportionally: an oversubscribed pool cannot be polling every channel
  // at once, so waiters spinning the full budget before parking would burn
  // cycles the server can never answer within. 0 = unknown (no premium, no
  // backoff).
  void SetServerParallelism(uint32_t threads);
  // The spin budget a kRing waiter actually uses after the backoff.
  uint32_t effective_ring_spin_budget() const {
    return effective_spin_budget_.load(std::memory_order_acquire);
  }

  // FUSE_INTERRUPT analogue. Unblocks the waiter of `unique` with EINTR: a
  // still-queued request is removed before the server ever sees it; an
  // in-flight one gets a kInterrupt notification enqueued (unique 0) so the
  // server can observe the cancellation. Returns true if a waiter was found.
  bool Interrupt(uint64_t unique);
  // Interrupts every in-flight request submitted by `pid` (the killed-client
  // path, driven from the kernel's exit hook). Returns how many.
  uint32_t InterruptPid(kernel::Pid pid);

  // Bytes currently parked on any channel's splice lanes (in-flight spliced
  // payloads). Zero on a quiet or aborted connection — the lane-leak assert
  // for abort-reconciliation tests.
  size_t lane_bytes_in_flight() const;

  fault::FaultRegistry* faults() const { return faults_; }
  SimClock* clock() const { return clock_; }

  // --- observability ---
  // The registry this connection's instruments live in and the mount label
  // its series carry (the per-mount rollup key).
  obs::MetricsRegistry* metrics_registry() const { return registry_; }
  const std::string& mount_label() const { return mount_label_; }
  // The per-mount request instrument bundle: opcode-keyed latency
  // histograms, outcome counters, slow-request log.
  obs::RequestMetrics& request_metrics() { return *req_metrics_; }
  // Slow-request log threshold in virtual ns (0 disables); applied by the
  // mount from FuseMountOptions::slow_request_ns.
  void SetSlowRequestNs(uint64_t ns) { req_metrics_->SetSlowThresholdNs(ns); }

  // Server threads homed on `channel` under the declared parallelism; the
  // paper profile charges each request (readers - 1) contention premiums.
  uint32_t ChannelReaders(size_t channel) const;

  // --- splice lanes ---
  // Resizes every channel's lanes (the fcntl(F_SETPIPE_SZ) analogue). The
  // mount applies it with the capacity the negotiated payload window needs
  // (pipe_pages is only the floor). Returns the resulting per-lane capacity
  // in bytes; a lane holding in-flight payload larger than the target
  // reports EBUSY.
  StatusOr<size_t> SetLaneCapacity(size_t bytes);
  // Lane autosizing: when on, a payload that bounces to the copy path grows
  // the affected channel's lanes — immediately to fit a payload larger than
  // the lane, and by doubling under repeated lane-full pressure — up to the
  // 1MiB pipe ceiling. Growth is per channel, so one congested channel does
  // not resize its siblings.
  void SetLaneAutosize(bool enabled) {
    lane_autosize_.store(enabled, std::memory_order_release);
  }
  bool lane_autosize() const { return lane_autosize_.load(std::memory_order_acquire); }
  // Current capacity of channel `i`'s lanes in bytes (every lane of the
  // pool, both directions, has the same size).
  size_t lane_capacity(size_t i) const { return Channel(i).lanes.capacity(); }

  // Requests ever routed to channel `i`.
  uint64_t channel_requests(size_t i) const {
    return Channel(i).enqueued.load(std::memory_order_relaxed);
  }
  // Current depth of channel `i`'s queue (SQ occupancy).
  size_t channel_queue_depth(size_t i) const { return Channel(i).ring.sq.SizeApprox(); }
  // Deepest channel `i`'s queue has ever been.
  uint64_t channel_max_queue_depth(size_t i) const {
    return Channel(i).max_depth.load(std::memory_order_relaxed);
  }

  // The legacy stats surface, kept as a thin view over the registry-backed
  // instruments (obs::Counter sums sharded relaxed-atomic cells) so
  // existing callers and tests keep working unchanged. The same values are
  // exported through the registry as cntr_fuse_conn_* series keyed by the
  // mount label.
  struct Stats {
    uint64_t requests = 0;
    uint64_t replies = 0;  // delivered to a live waiter only
    uint64_t forgets = 0;
    // Data-lane accounting: payload bytes that rode a pipe lane as page
    // references vs. bytes that fell back to the copy path (lane full,
    // lane fault, or splice not negotiated).
    uint64_t spliced_bytes = 0;
    uint64_t copied_bytes = 0;
    uint64_t splice_fallbacks = 0;  // payloads that wanted the lane but copied
    uint64_t lane_growths = 0;      // autosizing grow operations that succeeded
    // Queue-depth observability: deepest any channel's queue has ever been.
    uint64_t max_queue_depth = 0;
    // Failure-plane accounting.
    uint64_t timeouts = 0;         // requests expired by a deadline
    uint64_t late_replies = 0;     // server replies with no live waiter
    uint64_t interrupts = 0;       // requests unblocked via INTERRUPT
    uint64_t admission_waits = 0;  // SendAndWait calls gated on max_background
    uint64_t shed_rejects = 0;     // new requests bounced while shedding
    // Ring-transport batch efficiency, rolled up across every channel of
    // the mount.
    uint64_t doorbells = 0;          // submission doorbells rung (burst heads:
                                     // SQEs that found the ring empty)
    uint64_t reaps = 0;              // reap passes that returned work
    uint64_t reaped_requests = 0;    // requests delivered across those passes
    uint64_t max_reqs_per_reap = 0;  // largest single burst
    uint64_t sq_overflows = 0;       // submissions that hit a full ring
    uint64_t spin_parks = 0;         // spin budgets exhausted into a park
  };
  // Safe to call while workers run: every source is an explicit atomic
  // load taken exactly once into the snapshot (no plain reads of fields a
  // worker may be writing). The snapshot is internally consistent per
  // counter;
  // cross-counter skew (a request counted whose reply lands mid-walk) is
  // inherent to lock-free aggregation and bounded by one in-flight window.
  Stats stats() const {
    Stats s;
    s.requests = requests_->Value();
    s.replies = replies_->Value();
    s.forgets = forgets_->Value();
    s.spliced_bytes = spliced_bytes_->Value();
    s.copied_bytes = copied_bytes_->Value();
    s.splice_fallbacks = splice_fallbacks_->Value();
    s.lane_growths = lane_growths_->Value();
    s.timeouts = timeouts_->Value();
    s.late_replies = late_replies_->Value();
    s.interrupts = interrupts_->Value();
    s.admission_waits = admission_waits_->Value();
    s.shed_rejects = sheds_->Value();
    const size_t n = num_channels();
    for (size_t i = 0; i < n; ++i) {
      const FuseChannel& ch = Channel(i);
      s.max_queue_depth =
          std::max(s.max_queue_depth, ch.max_depth.load(std::memory_order_relaxed));
      s.doorbells += ch.doorbells.load(std::memory_order_relaxed);
      s.reaps += ch.reaps.load(std::memory_order_relaxed);
      s.reaped_requests += ch.reaped_requests.load(std::memory_order_relaxed);
      s.max_reqs_per_reap =
          std::max(s.max_reqs_per_reap, ch.max_reqs_per_reap.load(std::memory_order_relaxed));
      s.sq_overflows += ch.sq_overflows.load(std::memory_order_relaxed);
      s.spin_parks += ch.spin_parks.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  FuseChannel& Channel(size_t i) const {
    return *channel_table_[i % num_channels()].load(std::memory_order_acquire);
  }
  FuseChannel& ChannelOfUnique(uint64_t unique) const {
    return Channel(unique & (kMaxChannels - 1));
  }
  // Uniques carry the channel and the completion-slot index, so a reply (or
  // an interrupt) finds its slot without any lookup table:
  // (seq << 16) | (slot << 6) | channel.
  uint64_t MakeRingUnique(size_t channel, size_t slot) {
    return (next_unique_.fetch_add(1) << (kChannelBits + kRingSlotBits)) |
           (static_cast<uint64_t>(slot) << kChannelBits) | channel;
  }
  static size_t SlotOfUnique(uint64_t unique) {
    return (unique >> kChannelBits) & (kMaxRingDepth - 1);
  }
  // Monotonic occupancy update, lock-free.
  static void BumpBusyUntil(FuseChannel& ch, uint64_t now_ns) {
    uint64_t cur = ch.busy_until_ns.load(std::memory_order_relaxed);
    while (cur < now_ns && !ch.busy_until_ns.compare_exchange_weak(
                               cur, now_ns, std::memory_order_relaxed)) {
    }
  }
  // Claims `bytes` on one of `ch`'s lanes of `dir`, growing the lanes once
  // under autosizing; nullopt sends the payload to the copy path (lanes
  // full, or a fuse.lane.transit fault).
  std::optional<uint32_t> ClaimLane(FuseChannel& ch, LaneLedger::Dir dir, uint64_t bytes);
  // Request-direction gate: lets a spliced WRITE payload onto lane_in, or
  // flattens it to the copy path.
  void GateRequestPayload(FuseChannel& ch, FuseRequest& request);
  // Releases the lane_in capacity a spliced request payload has held since
  // GateRequestPayload (no-op for copy-path requests).
  void ReleaseRequestLane(FuseChannel& ch, const FuseRequest& request);
  // Reply-direction gate: lets a spliced payload onto lane_out, or flattens
  // reply.pages into reply.data (charging the copy).
  void GateReplyPayload(FuseChannel& ch, FuseReply& reply);
  // Autosizing on fallback pressure: grows `ch`'s lanes (a payload of
  // `wanted_bytes` just bounced to the copy path). Returns true if the
  // lanes grew, meaning a retry of the claim may now succeed.
  bool MaybeGrowLanes(FuseChannel& ch, uint64_t wanted_bytes);
  // Appends `n` fresh channels (rings of `depth` entries) to
  // owned_channels_ and publishes them through the table (config_mu_ held).
  void InstallChannels(size_t n, size_t depth);
  // Freezes the shape before a submitter routes its first request; waits
  // out a ConfigureChannels that is installing channels.
  void FreezeShape();
  bool paper() const { return ring_profile() == RingProfile::kPaper; }
  // Real-time deadline sweeper body (one background thread while armed).
  void SweeperLoop();
  void StopSweeper();
  // One request left flight (reply, timeout, interrupt, or abort): releases
  // its admission slot.
  void FinishInFlight();
  // The tighter of max_background_ and admission_budget_ (0 = ungated).
  uint32_t EffectiveAdmissionCap() const;
  // Re-derives effective_spin_budget_ from the configured budget, the
  // declared server parallelism, and the channel count.
  void RecomputeSpinBudget();
  // Fires the registered pool work observer, if armed (one relaxed load
  // when not): the doorbell of every enqueue and of Abort.
  void NotifyWorkObserver();
  // Enqueues the kInterrupt notification for an in-flight `unique`.
  void EnqueueInterruptNotify(FuseChannel& ch, size_t ch_idx, uint64_t unique);

  // --- ring internals (see docs/transport.md "Submission rings") ---
  StatusOr<FuseReply> RingSendAndWait(FuseChannel& ch, size_t ch_idx, FuseRequest request);
  // Claims a free completion slot (kSlotFree -> kSlotInit); -1 when none.
  int RingAllocSlot(RingState& ring);
  // Pushes one SQE, parking on a full ring (bounded waits; aborts bail out).
  // Returns false when the connection aborted before the push landed.
  bool RingPushSqe(FuseChannel& ch, FuseRequest request);
  // Drains up to `max_batch` SQ entries of `ch` into `out`, at most one
  // under the paper profile (the paper's server thread takes one request
  // per read of /dev/fuse). Returns how many were delivered
  // (resolved-before-claim entries are dropped in place).
  size_t RingReap(FuseChannel& ch, std::vector<FuseRequest>& out, size_t max_batch);
  // Marks a reaped SQE's slot as server-claimed; false when its waiter was
  // already resolved (interrupt/timeout/abort) and the entry must be dropped.
  bool RingClaimSqe(RingState& ring, const FuseRequest& req);
  // Wakes parked completion waiters (no virtual cost: control plane only).
  void RingWakeWaiters(RingState& ring);
  // Wakes submitters parked on a full ring after capacity was released.
  void RingWakeSubmitters(RingState& ring);

  SimClock* clock_;
  const CostModel* costs_;
  fault::FaultRegistry* faults_;
  std::atomic<uint64_t> next_unique_{2};
  std::atomic<bool> aborted_{false};

  // Channel publication: readers (routing, enqueue, dequeue, reply) index
  // the fixed-size atomic pointer table lock-free; ConfigureChannels
  // installs new pointers and only then publishes the count. Channels a
  // pre-serve ConfigureChannels replaced stay in owned_channels_ until the
  // connection dies, so a server worker that scanned one before the swap
  // reads valid memory.
  std::array<std::atomic<FuseChannel*>, kMaxChannels> channel_table_{};
  std::atomic<size_t> num_channels_{1};
  // Orders ConfigureChannels against the walks over owned_channels_
  // (Abort's sweep, the deadline sweeper, SetLaneCapacity,
  // lane_bytes_in_flight, InterruptPid — the kernel's exit hook runs that on
  // every live connection, configured or not). Never on the request path.
  mutable analysis::CheckedMutex config_mu_{"fuse.conn.config"};
  std::vector<std::unique_ptr<FuseChannel>> owned_channels_;
  // Shape lifecycle: kShapeOpen until the first submitter freezes it;
  // ConfigureChannels holds kShapeConfiguring while it installs channels.
  enum ShapeState : uint32_t { kShapeOpen, kShapeConfiguring, kShapeFrozen };
  std::atomic<uint32_t> shape_{kShapeOpen};
  std::atomic<RingProfile> profile_{RingProfile::kPaper};

  // SQ entries across every channel (queued_depth()).
  std::atomic<uint64_t> queued_total_{0};

  // --- ring waits ---
  std::atomic<uint32_t> ring_spin_budget_{kDefaultRingSpinBudget};
  // Spin budget after oversubscription backoff (pool threads < channels
  // must not burn the full configured spin before parking).
  std::atomic<uint32_t> declared_parallelism_{0};
  std::atomic<uint32_t> effective_spin_budget_{kDefaultRingSpinBudget};

  // Pool work observer (SetWorkObserver): swapped through a shared_ptr so a
  // disarm cannot free the callback out from under a concurrent invocation.
  analysis::CheckedMutex observer_mu_{"fuse.conn.observer"};
  std::shared_ptr<const std::function<void()>> work_observer_;
  std::atomic<bool> observer_armed_{false};

  // --- observability (see src/obs/) ---
  // All lifecycle counters are registry-backed instruments; pointers are
  // resolved once at construction and stay valid for the registry's life.
  obs::MetricsRegistry* registry_;
  std::string mount_label_;
  std::unique_ptr<obs::RequestMetrics> req_metrics_;
  // One request left flight: outcome counter, latency histograms (with a
  // span), and the slow-request log. Wake stamp is taken here.
  void RecordOutcome(FuseOpcode op, const obs::SpanPtr& span, obs::Outcome outcome,
                     bool spliced);

  obs::Counter* requests_;
  obs::Counter* replies_;
  obs::Counter* forgets_;
  obs::Counter* spliced_bytes_;
  obs::Counter* copied_bytes_;
  obs::Counter* splice_fallbacks_;
  obs::Counter* lane_growths_;
  std::atomic<bool> lane_autosize_{false};

  // --- failure plane ---
  std::atomic<uint64_t> deadline_ns_{0};
  std::atomic<uint64_t> deadline_grace_ms_{50};
  std::atomic<uint32_t> abort_after_timeouts_{0};
  std::atomic<uint32_t> consecutive_timeouts_{0};
  std::atomic<uint32_t> max_background_{0};
  std::atomic<uint32_t> admission_budget_{0};
  std::atomic<uint32_t> in_flight_{0};
  std::atomic<bool> shed_new_requests_{false};
  obs::Counter* timeouts_;
  obs::Counter* late_replies_;
  obs::Counter* interrupts_;
  obs::Counter* admission_waits_;
  obs::Counter* sheds_;

  // Admission-gate parking lot (waiters blocked on max_background).
  analysis::CheckedMutex admission_mu_{"fuse.conn.admission"};
  analysis::CheckedCondVar admission_cv_{"fuse.conn.admission.cv"};

  // Deadline sweeper thread: started by the first SetRequestDeadline with a
  // real grace, stopped by disarming, Abort, or destruction.
  analysis::CheckedMutex sweeper_mu_{"fuse.conn.sweeper"};
  analysis::CheckedCondVar sweeper_cv_{"fuse.conn.sweeper.cv"};
  bool sweeper_stop_ = false;
  std::thread sweeper_;
};

// The open /dev/fuse descriptor, as held by the CNTR process. The fd itself
// only carries the connection object — mounting consumes it, the server
// loop reads from it.
class FuseDevFile : public kernel::FileDescription {
 public:
  FuseDevFile(std::shared_ptr<FuseConn> conn, int flags)
      : kernel::FileDescription(nullptr, flags), conn_(std::move(conn)) {}
  ~FuseDevFile() override { conn_->Abort(); }

  const std::shared_ptr<FuseConn>& conn() const { return conn_; }

 private:
  std::shared_ptr<FuseConn> conn_;
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_CONN_H_
