// The userspace side of FUSE: a handler interface plus the worker pool that
// serves /dev/fuse connections with it.
//
// The paper's CNTRFS spawns independent threads reading /dev/fuse so that
// blocking filesystem operations do not stall the whole server (§3.3
// "Multithreading"). FuseServerPool is that loop, with std::threads acting
// as the server process on the simulated kernel, and it is the only one:
// a plain attach serves its mount from a private pool of one mount
// (FuseServerPoolOptions::Dedicated), while a fleet host shares one pool
// across every attached mount, so hundreds of slim containers do not pay
// hundreds of mostly-idle threads. Worker i is homed on channel i % N of
// each connection (the Figure 4 premium is priced from that rule, see
// FuseConn::SetServerParallelism) and starts its scan there, so a single hot
// process still drains through every worker. How many requests one reap
// returns is the connection's ring profile's call (one under the paper
// profile, a burst under the ring profile). Sharing needs isolation:
//
//   * Weighted fair scheduling: workers visit mounts deficit-round-robin.
//     Each visit tops the mount's deficit up by quantum x weight and serves
//     at most that many requests (via FuseConn::TryReadRequestBatch, which
//     never parks), so a GETATTR-storm tenant cannot starve a streaming
//     one — it just spends its credit faster and waits for the next round.
//   * Per-tenant admission budgets: AddMount can arm a per-mount in-flight
//     cap layered *under* the mount's own max_background gate
//     (FuseConn::SetAdmissionBudget), squeezing one tenant without touching
//     the mount-negotiated limit.
//   * Overload shedding: when the pool-wide queued depth crosses the soft
//     watermark the noisiest tenant is deprioritized (served only after
//     everyone else); past the hard watermark its *new* requests are
//     rejected with ETIMEDOUT (FuseConn::SetShedNewRequests) until depth
//     falls back below half the soft watermark (hysteresis).
//   * Quarantine: a mount whose dispatches keep faulting — or whose
//     connection aborts — is drained and detached from scheduling, then
//     auto-reconnected through its registered hook with exponential
//     backoff and capped retries; exhausted retries park it in a terminal
//     state surfaced through obs. One crashing filesystem never wedges a
//     pool thread: the kill is charged to the mount, not the worker.
//
// A connection's channel count is its opener's decision, fixed before the
// pool serves it (OpenFuseDevice); the pool only reads it.
//
// Threads are elastic upward: the pool starts at min_threads and grows
// toward max_threads when queued depth outruns the serving rate. The
// controller (watermarks, health, reconnect, thread growth) runs on its own
// thread every controller_interval_ms; interval 0 disables the background
// cadence so tests can drive RunControllerPass() deterministically.
#ifndef CNTR_SRC_FUSE_FUSE_SERVER_POOL_H_
#define CNTR_SRC_FUSE_FUSE_SERVER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_proto.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

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

// Lifecycle of one pooled mount (surfaced per mount through the
// cntr_pool_mount_state gauge; see docs/robustness.md "Fleet resilience").
enum class MountState : uint32_t {
  kActive = 0,         // scheduled normally
  kDeprioritized = 1,  // soft shed: served only after every active mount
  kQuarantined = 2,    // drained + detached; reconnect pending (backoff)
  kReconnecting = 3,   // reconnect hook in flight (its INIT is served)
  kTerminal = 4,       // retries exhausted; never scheduled again
  kDetached = 5,       // removed by the owner
};

struct FuseServerPoolOptions {
  // Elastic worker range. The pool starts at min_threads and grows toward
  // max_threads while queued depth outruns the serving rate.
  int min_threads = 2;
  int max_threads = 8;
  // Deficit round-robin: credit added per visit is quantum x mount weight;
  // a visit serves at most the accumulated credit (clamped at 4 rounds).
  uint32_t drr_quantum = 8;
  // Pool-wide queued-depth watermarks: soft deprioritizes the noisiest
  // tenant, hard additionally sheds its new requests with ETIMEDOUT.
  // Both clear when depth falls below soft/2 (hysteresis).
  uint64_t soft_watermark = 64;
  uint64_t hard_watermark = 128;
  // Dispatch faults (injected or organic) a mount absorbs before it is
  // quarantined even without a connection abort.
  uint32_t quarantine_after_faults = 3;
  // Reconnect policy for quarantined mounts: capped attempts, exponential
  // real-time backoff starting at reconnect_backoff_ms (control plane only
  // — virtual time never advances here).
  uint32_t max_reconnect_attempts = 5;
  uint64_t reconnect_backoff_ms = 2;
  // Health/watermark scan cadence; 0 = no background controller (tests
  // drive RunControllerPass() explicitly).
  uint64_t controller_interval_ms = 1;
  // Instrument registry; null = MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;

  // A pool that serves a single mount: `threads` fixed workers and no
  // background controller. A lone mount has no neighbour to shed or
  // quarantine for, and its owner drives reconnects itself (a background
  // one would race it).
  static FuseServerPoolOptions Dedicated(int threads, obs::MetricsRegistry* metrics) {
    FuseServerPoolOptions opts;
    opts.min_threads = threads;
    opts.max_threads = threads;
    opts.controller_interval_ms = 0;
    opts.metrics = metrics;
    return opts;
  }
};

class FuseServerPool {
 public:
  // Re-establishes a quarantined mount's transport: open a fresh
  // /dev/fuse, AdoptConn() it into the pool (the pool serves it from that
  // instant — the INIT replay needs a live server), then replay INIT and
  // reopen handles (FuseFs::Reconnect). Runs on the controller thread.
  using ReconnectHook = std::function<Status()>;

  explicit FuseServerPool(FuseServerPoolOptions opts = {});
  ~FuseServerPool();

  FuseServerPool(const FuseServerPool&) = delete;
  FuseServerPool& operator=(const FuseServerPool&) = delete;

  // Registers a mount and starts serving it. `weight` scales its fair
  // share; `admission_budget` (0 = none) arms the per-tenant in-flight cap.
  // Returns the pool-scoped mount id used by every other call.
  uint64_t AddMount(std::shared_ptr<FuseConn> conn, FuseHandler* handler,
                    uint32_t weight = 1, uint32_t admission_budget = 0);
  // Arms the auto-reconnect path for `id` (no hook = quarantine goes
  // terminal after draining).
  void SetReconnectHook(uint64_t id, ReconnectHook hook);
  // Swaps the mount's connection (the reconnect protocol's adoption step).
  // The old connection, if any, is released un-aborted — the hook aborted
  // it long ago. Callable from the hook itself.
  Status AdoptConn(uint64_t id, std::shared_ptr<FuseConn> conn);
  // Stops serving `id`: aborts the connection, waits out in-flight
  // dispatches, and (by default) fires the handler's OnDestroy.
  void RemoveMount(uint64_t id, bool notify_destroy = true);

  // Aborts every mount's connection and joins workers + controller.
  // Idempotent. Does not fire OnDestroy (RemoveMount owns that).
  void Stop();

  // One synchronous controller pass (health, watermarks, reconnect, thread
  // growth); the background controller runs the same body on its cadence.
  // Passes are serialized internally, so calling this while the background
  // controller is running (controller_interval_ms > 0) is safe.
  void RunControllerPass();

  // --- introspection (tests, bench panels) ---
  MountState mount_state(uint64_t id) const;
  uint32_t mount_faults(uint64_t id) const;
  uint32_t mount_reconnect_attempts(uint64_t id) const;
  int num_threads() const { return target_threads_.load(std::memory_order_acquire); }
  size_t num_mounts() const;
  uint64_t queued_depth() const;  // pool-wide, across serveable mounts

  struct PoolStats {
    uint64_t dispatches = 0;          // requests handled by pool workers
    uint64_t quarantines = 0;         // mounts entering quarantine
    uint64_t reconnects = 0;          // successful hook runs
    uint64_t reconnect_failures = 0;  // failed attempts (before terminal)
    uint64_t terminal = 0;            // mounts that exhausted retries
    uint64_t soft_sheds = 0;          // deprioritizations applied
    uint64_t hard_sheds = 0;          // ETIMEDOUT shed gates armed
    uint64_t thread_growths = 0;      // elastic worker spawns past min
  };
  PoolStats stats() const;

 private:
  struct Mount {
    uint64_t id = 0;
    uint32_t weight = 1;
    uint32_t admission_budget = 0;
    FuseHandler* handler = nullptr;
    // conn is swapped by AdoptConn while workers serve: copy the shared_ptr
    // under conn_mu once per visit, never hold a raw reference across one.
    mutable analysis::CheckedMutex conn_mu{"fuse.pool.mount.conn"};
    std::shared_ptr<FuseConn> conn;
    std::atomic<uint32_t> state{static_cast<uint32_t>(MountState::kActive)};
    std::atomic<int64_t> deficit{0};
    std::atomic<uint32_t> faults{0};
    std::atomic<uint32_t> reconnect_attempts{0};
    std::atomic<bool> shedding{false};
    // Workers inside a dispatch / the controller inside the hook; Remove
    // waits both out before OnDestroy. hook_active is published BEFORE the
    // controller's quarantined->reconnecting CAS and RemoveMount detaches
    // with an RMW on `state`, so whenever the hook runs, RemoveMount is
    // guaranteed to observe the flag and wait the hook out.
    std::atomic<int> active_dispatch{0};
    std::atomic<bool> hook_active{false};
    ReconnectHook reconnect_hook;  // written under conn_mu
    // Controller-pass state, guarded by controller_pass_mu_.
    std::chrono::steady_clock::time_point next_reconnect{};
    obs::Gauge* state_gauge = nullptr;
  };

  void WorkerLoop(size_t worker_idx);
  void ControllerLoop();
  // Serves one mount once (DRR visit). Returns requests dispatched.
  size_t ServeMount(Mount& m, size_t worker_idx);
  void DispatchBatch(Mount& m, FuseConn& conn, std::vector<FuseRequest>& batch);
  std::vector<std::shared_ptr<Mount>> SnapshotMounts() const;
  std::shared_ptr<Mount> FindMount(uint64_t id) const;
  void WireConn(Mount& m, FuseConn& conn);
  void SetMountState(Mount& m, MountState s);
  // Gauge-only update for callers that already moved the state word via
  // CAS/exchange — a blind store here could resurrect a state RemoveMount
  // just overwrote with kDetached.
  void PublishMountState(Mount& m, MountState s);
  // Moves the mount to kQuarantined and drains its connection. With a
  // non-null `deferred_aborts`, the connection Abort() is handed back to
  // the caller instead of running inline — RunControllerPass aborts after
  // it releases controller_pass_mu_, so the pass lock never nests the
  // connection's locks.
  void Quarantine(Mount& m,
                  std::vector<std::shared_ptr<FuseConn>>* deferred_aborts = nullptr);
  void TryReconnect(Mount& m);
  void GrowThreadsTo(int target);  // threads_mu_ must not be held
  void NotifyPoolWork();

  FuseServerPoolOptions opts_;
  obs::MetricsRegistry* registry_;
  std::string label_;

  mutable analysis::CheckedMutex mounts_mu_{"fuse.pool.mounts"};
  std::vector<std::shared_ptr<Mount>> mounts_;
  std::atomic<uint64_t> next_mount_id_{1};

  // Serializes controller passes: the background cadence and external
  // RunControllerPass callers race on Mount's plain controller-side field
  // and would double-fire TryReconnect bookkeeping otherwise.
  analysis::CheckedMutex controller_pass_mu_{"fuse.pool.controller_pass"};

  analysis::CheckedMutex threads_mu_{"fuse.pool.threads"};
  std::vector<std::thread> workers_;
  std::atomic<int> target_threads_{0};
  std::thread controller_;
  std::atomic<bool> stop_{false};

  // Worker parking (eventcount): submitters bump work_seq_ through each
  // conn's work observer; a worker parks only when a full scan found
  // nothing AND the seq did not move since it started the scan. Parks are
  // bounded (1ms) so a lost wake costs a tick, never a hang.
  analysis::CheckedMutex pool_mu_{"fuse.pool.eventcount"};
  analysis::CheckedCondVar pool_cv_{"fuse.pool.eventcount.worker_cv"};
  analysis::CheckedCondVar controller_cv_{"fuse.pool.eventcount.controller_cv"};
  std::atomic<uint64_t> work_seq_{0};
  std::atomic<int> idle_workers_{0};

  // --- observability (cntr_pool_* series, labeled pool=<label>) ---
  obs::Gauge* threads_gauge_;
  obs::Gauge* mounts_gauge_;
  obs::Gauge* queued_gauge_;
  obs::Gauge* quarantined_gauge_;
  obs::Counter* dispatches_;
  obs::Counter* quarantines_;
  obs::Counter* reconnects_;
  obs::Counter* reconnect_failures_;
  obs::Counter* terminal_;
  obs::Counter* soft_sheds_;
  obs::Counter* hard_sheds_;
  obs::Counter* thread_growths_;
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_SERVER_POOL_H_
