// FuseServerPool (docs/robustness.md "Fleet resilience"): one elastic
// worker pool over many mounts. Covered here: DRR fairness across tenants,
// per-tenant admission budgets, watermark shedding with hysteresis,
// quarantine → reconnect → terminal lifecycle, cross-tenant isolation when
// one mount is killed or stalled, spin-budget backoff when pool threads are
// scarcer than channels, elastic thread growth, and the fleet
// kill-at-op-N sweep over the pool injection points.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cntrfs.h"
#include "src/fault/fault.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"

namespace cntr::fuse {
namespace {

// Replies instantly; optionally sleeps wall time first (a stalled tenant).
class EchoHandler : public FuseHandler {
 public:
  FuseReply Handle(const FuseRequest&) override {
    int stall = stall_ms.load();
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    handled_.fetch_add(1);
    return FuseReply{};
  }

  std::atomic<int> stall_ms{0};
  uint64_t handled() const { return handled_.load(); }

 private:
  std::atomic<uint64_t> handled_{0};
};

// Blocks every dispatch until opened — lets a test pile up a backlog with
// deterministic queue depths.
class GateHandler : public FuseHandler {
 public:
  FuseReply Handle(const FuseRequest&) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
    handled_.fetch_add(1);
    return FuseReply{};
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  uint64_t handled() const { return handled_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<uint64_t> handled_{0};
};

FuseRequest ForgetFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kForget;
  req.pid = pid;
  req.forgets.push_back(FuseRequest::Forget{7, 1});
  return req;
}

FuseServerPoolOptions ManualPool() {
  FuseServerPoolOptions opts;
  opts.controller_interval_ms = 0;  // tests drive RunControllerPass()
  opts.reconnect_backoff_ms = 0;    // no real-time waits in tests
  return opts;
}

TEST(FuseServerPoolTest, SharedWorkersServeEveryMount) {
  SimClock clock;
  CostModel costs;
  FuseServerPoolOptions opts = ManualPool();
  opts.min_threads = 2;
  FuseServerPool pool(opts);

  constexpr int kMounts = 3;
  constexpr int kRequests = 30;
  std::vector<std::shared_ptr<FuseConn>> conns;
  std::vector<std::unique_ptr<EchoHandler>> handlers;
  for (int i = 0; i < kMounts; ++i) {
    conns.push_back(std::make_shared<FuseConn>(&clock, &costs, 2));
    handlers.push_back(std::make_unique<EchoHandler>());
    uint64_t id = pool.AddMount(conns.back(), handlers.back().get(),
                                /*weight=*/1, /*admission_budget=*/4);
    EXPECT_EQ(pool.mount_state(id), MountState::kActive);
    EXPECT_EQ(conns.back()->admission_budget(), 4u);
  }
  ASSERT_EQ(pool.num_mounts(), static_cast<size_t>(kMounts));

  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kMounts; ++i) {
    clients.emplace_back([&, i] {
      auto lane = std::make_shared<SimClock::Lane>();
      SimClock::LaneScope scope(lane);
      for (int r = 0; r < kRequests; ++r) {
        FuseRequest req;
        req.opcode = FuseOpcode::kGetattr;
        req.pid = static_cast<kernel::Pid>(100 + i);
        if (!conns[i]->SendAndWait(std::move(req)).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  for (const auto& h : handlers) {
    EXPECT_EQ(h->handled(), static_cast<uint64_t>(kRequests));
  }
  EXPECT_EQ(pool.stats().dispatches, static_cast<uint64_t>(kMounts * kRequests));
  pool.Stop();
}

TEST(FuseServerPoolTest, HardWatermarkShedsNoisiestTenantWithHysteresis) {
  SimClock clock;
  CostModel costs;
  FuseServerPoolOptions opts = ManualPool();
  opts.min_threads = 1;
  opts.max_threads = 1;
  opts.soft_watermark = 4;
  opts.hard_watermark = 8;
  FuseServerPool pool(opts);

  GateHandler gate;
  auto noisy = std::make_shared<FuseConn>(&clock, &costs, 1);
  uint64_t id = pool.AddMount(noisy, &gate);

  // Back the pool up: the worker pops one DRR batch and blocks on the gate;
  // everything else queues.
  for (int i = 0; i < 20; ++i) {
    noisy->SendNoReply(ForgetFrom(1));
  }
  while (pool.queued_depth() < opts.hard_watermark) {
    std::this_thread::yield();
  }

  pool.RunControllerPass();
  EXPECT_EQ(pool.mount_state(id), MountState::kDeprioritized);
  EXPECT_TRUE(noisy->shedding_new_requests());
  EXPECT_EQ(pool.stats().hard_sheds, 1u);

  // While shedding, a brand-new request bounces with ETIMEDOUT instead of
  // joining the drowning queue.
  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.pid = 2;
  EXPECT_EQ(noisy->SendAndWait(std::move(req)).error(), ETIMEDOUT);
  EXPECT_GE(noisy->stats().shed_rejects, 1u);

  // Drain, then hysteresis: below soft/2 the tenant is restored.
  gate.Open();
  while (noisy->queued_depth() != 0 || gate.handled() < 20) {
    std::this_thread::yield();
  }
  pool.RunControllerPass();
  EXPECT_EQ(pool.mount_state(id), MountState::kActive);
  EXPECT_FALSE(noisy->shedding_new_requests());
  pool.Stop();
}

TEST(FuseServerPoolTest, QuarantineReconnectRestoresService) {
  SimClock clock;
  CostModel costs;
  FuseServerPool pool(ManualPool());

  EchoHandler handler;
  auto conn = std::make_shared<FuseConn>(&clock, &costs, 2);
  uint64_t id = pool.AddMount(conn, &handler);
  std::shared_ptr<FuseConn> replacement;
  pool.SetReconnectHook(id, [&] {
    replacement = std::make_shared<FuseConn>(&clock, &costs, 2);
    return pool.AdoptConn(id, replacement);
  });

  // Crash the mount's filesystem.
  conn->Abort();
  pool.RunControllerPass();
  EXPECT_EQ(pool.mount_state(id), MountState::kQuarantined);
  EXPECT_EQ(pool.stats().quarantines, 1u);

  // Next pass runs the hook (backoff is zero): fresh transport, active again.
  pool.RunControllerPass();
  ASSERT_EQ(pool.mount_state(id), MountState::kActive);
  EXPECT_EQ(pool.stats().reconnects, 1u);
  EXPECT_EQ(pool.mount_reconnect_attempts(id), 0u);
  ASSERT_NE(replacement, nullptr);

  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.pid = 9;
  EXPECT_TRUE(replacement->SendAndWait(std::move(req)).ok());
  EXPECT_EQ(handler.handled(), 1u);
  pool.Stop();
}

TEST(FuseServerPoolTest, ExhaustedRetriesParkTheMountTerminal) {
  SimClock clock;
  CostModel costs;
  FuseServerPoolOptions opts = ManualPool();
  opts.max_reconnect_attempts = 2;
  FuseServerPool pool(opts);

  EchoHandler handler;
  auto conn = std::make_shared<FuseConn>(&clock, &costs, 1);
  uint64_t id = pool.AddMount(conn, &handler);
  pool.SetReconnectHook(id, [] { return Status::Error(EIO, "device gone"); });

  conn->Abort();
  pool.RunControllerPass();  // quarantine
  pool.RunControllerPass();  // attempt 1 fails
  EXPECT_EQ(pool.mount_state(id), MountState::kQuarantined);
  EXPECT_EQ(pool.mount_reconnect_attempts(id), 1u);
  pool.RunControllerPass();  // attempt 2 fails -> terminal
  EXPECT_EQ(pool.mount_state(id), MountState::kTerminal);
  EXPECT_EQ(pool.stats().reconnect_failures, 2u);
  EXPECT_EQ(pool.stats().terminal, 1u);
  // Terminal is sticky: further passes neither retry nor reschedule.
  pool.RunControllerPass();
  EXPECT_EQ(pool.mount_state(id), MountState::kTerminal);
  EXPECT_EQ(pool.stats().reconnect_failures, 2u);
  pool.Stop();
}

// Regression: the reconnect hook captures a raw session pointer that dies
// the moment RemoveMount returns (attach.cc's fleet-mode contract). The
// controller must publish hook_active BEFORE its quarantined->reconnecting
// CAS and must never blind-store over kDetached afterwards; otherwise
// RemoveMount can slip between the CAS and the flag, skip the wait, and
// the hook runs against freed memory. Hammer the interleaving — ASan/TSan
// turn any regression into a hard failure.
TEST(FuseServerPoolTest, RemoveMountNeverRacesReconnectHook) {
  SimClock clock;
  CostModel costs;
  struct FakeSession {
    std::atomic<uint64_t> magic{0x5e55105u};
  };
  for (int iter = 0; iter < 200; ++iter) {
    FuseServerPool pool(ManualPool());
    EchoHandler handler;
    auto conn = std::make_shared<FuseConn>(&clock, &costs, 1);
    uint64_t id = pool.AddMount(conn, &handler);
    auto* session = new FakeSession();
    pool.SetReconnectHook(id, [session] {
      // Must only ever observe a live session: RemoveMount waits the hook
      // out before the owner frees it.
      EXPECT_EQ(session->magic.load(), 0x5e55105u);
      return Status::Ok();
    });
    conn->Abort();
    pool.RunControllerPass();  // -> kQuarantined (zero backoff: next pass reconnects)
    ASSERT_EQ(pool.mount_state(id), MountState::kQuarantined);

    std::thread controller([&] { pool.RunControllerPass(); });
    std::thread remover([&] { pool.RemoveMount(id); });
    remover.join();
    // The hook dies with the mount: once RemoveMount returned, the session
    // is freed even if the controller pass is still finishing.
    session->magic.store(0xdead);
    delete session;
    controller.join();
    EXPECT_EQ(pool.num_mounts(), 0u);
    pool.Stop();
  }
}

// Cross-tenant isolation: killing or stalling one of N mounts must leave the
// survivors' latency distribution and throughput intact (the ≤10% fleet
// acceptance bound; the bench panel guards the same property end to end).
class IsolationTest : public ::testing::Test {
 protected:
  static constexpr int kTenants = 4;
  static constexpr int kRequests = 40;

  void SetUp() override {
    FuseServerPoolOptions opts = ManualPool();
    opts.min_threads = 4;
    pool_ = std::make_unique<FuseServerPool>(opts);
    for (int i = 0; i < kTenants; ++i) {
      conns_.push_back(std::make_shared<FuseConn>(&clock_, &costs_, 2));
      handlers_.push_back(std::make_unique<EchoHandler>());
      ids_.push_back(pool_->AddMount(conns_.back(), handlers_.back().get()));
      // One persistent lane per tenant: phases share the tenant's virtual
      // timeline, so phase 2 does not re-pay phase 1's channel occupancy.
      lanes_.push_back(std::make_shared<SimClock::Lane>());
    }
  }

  void TearDown() override { pool_->Stop(); }

  // Runs one client per tenant in `tenants`; returns per-tenant p99 virtual
  // latency (ns). Requests that error are counted, not timed.
  struct Phase {
    std::vector<uint64_t> p99_ns;
    std::vector<int> completed;
    std::vector<int> errors;
  };
  Phase RunPhase(const std::vector<int>& tenants) {
    Phase out;
    out.p99_ns.assign(kTenants, 0);
    out.completed.assign(kTenants, 0);
    out.errors.assign(kTenants, 0);
    std::vector<std::thread> clients;
    for (int i : tenants) {
      clients.emplace_back([&, i] {
        SimClock::LaneScope scope(lanes_[i]);
        std::vector<uint64_t> lat;
        for (int r = 0; r < kRequests; ++r) {
          FuseRequest req;
          req.opcode = FuseOpcode::kGetattr;
          req.pid = static_cast<kernel::Pid>(200 + i);
          uint64_t before = clock_.NowNs();
          if (conns_[i]->SendAndWait(std::move(req)).ok()) {
            lat.push_back(clock_.NowNs() - before);
            ++out.completed[i];
          } else {
            ++out.errors[i];
          }
        }
        if (!lat.empty()) {
          std::sort(lat.begin(), lat.end());
          out.p99_ns[i] = lat[(lat.size() * 99) / 100 == lat.size()
                                  ? lat.size() - 1
                                  : (lat.size() * 99) / 100];
        }
      });
    }
    for (auto& t : clients) {
      t.join();
    }
    return out;
  }

  SimClock clock_;
  CostModel costs_;
  std::unique_ptr<FuseServerPool> pool_;
  std::vector<std::shared_ptr<FuseConn>> conns_;
  std::vector<std::unique_ptr<EchoHandler>> handlers_;
  std::vector<uint64_t> ids_;
  std::vector<std::shared_ptr<SimClock::Lane>> lanes_;
};

TEST_F(IsolationTest, KillingOneTenantLeavesSurvivorsUnharmed) {
  std::vector<int> all{0, 1, 2, 3};
  Phase healthy = RunPhase(all);
  for (int i : all) {
    ASSERT_EQ(healthy.completed[i], kRequests);
  }

  // Tenant 0 crashes; the controller quarantines it.
  conns_[0]->Abort();
  pool_->RunControllerPass();
  ASSERT_EQ(pool_->mount_state(ids_[0]), MountState::kQuarantined);

  std::vector<int> survivors{1, 2, 3};
  Phase degraded = RunPhase(survivors);
  for (int i : survivors) {
    EXPECT_EQ(degraded.completed[i], kRequests) << "survivor " << i;
    EXPECT_EQ(degraded.errors[i], 0) << "survivor " << i;
    // ≤10% p99 degradation — the fleet acceptance bound.
    EXPECT_LE(degraded.p99_ns[i], healthy.p99_ns[i] + healthy.p99_ns[i] / 10)
        << "survivor " << i;
  }
  // The dead tenant fails fast instead of hanging.
  FuseRequest req;
  req.pid = 200;
  EXPECT_EQ(conns_[0]->SendAndWait(std::move(req)).error(), ENOTCONN);
}

TEST_F(IsolationTest, StalledTenantDoesNotDragSurvivors) {
  std::vector<int> all{0, 1, 2, 3};
  Phase healthy = RunPhase(all);

  // Tenant 0's handler wedges 2ms (wall time) per request: it hogs at most
  // one worker at a time while the other workers keep the survivors fed.
  handlers_[0]->stall_ms.store(2);
  std::thread stalled([&] {
    SimClock::LaneScope scope(lanes_[0]);
    for (int r = 0; r < 8; ++r) {
      FuseRequest req;
      req.opcode = FuseOpcode::kGetattr;
      req.pid = 200;
      (void)conns_[0]->SendAndWait(std::move(req));
    }
  });
  std::vector<int> survivors{1, 2, 3};
  Phase degraded = RunPhase(survivors);
  stalled.join();
  for (int i : survivors) {
    EXPECT_EQ(degraded.completed[i], kRequests) << "survivor " << i;
    EXPECT_EQ(degraded.errors[i], 0) << "survivor " << i;
    EXPECT_LE(degraded.p99_ns[i], healthy.p99_ns[i] + healthy.p99_ns[i] / 10)
        << "survivor " << i;
  }
}

TEST(FuseServerPoolTest, SpinBudgetBacksOffWhenThreadsAreScarce) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  conn.UseRingProfile();
  // Undeclared or ample parallelism: the configured budget stands.
  EXPECT_EQ(conn.effective_ring_spin_budget(), kDefaultRingSpinBudget);
  conn.SetServerParallelism(4);
  EXPECT_EQ(conn.effective_ring_spin_budget(), kDefaultRingSpinBudget);
  // Fewer pool threads than channels: spinning a full budget per channel
  // would burn CPU no reaper can answer — the budget scales down.
  conn.SetServerParallelism(2);
  EXPECT_EQ(conn.effective_ring_spin_budget(), kDefaultRingSpinBudget / 2);
  conn.SetServerParallelism(1);
  EXPECT_EQ(conn.effective_ring_spin_budget(), kDefaultRingSpinBudget / 4);
  // Back to dedicated serving: the full budget returns.
  conn.SetServerParallelism(0);
  EXPECT_EQ(conn.effective_ring_spin_budget(), kDefaultRingSpinBudget);
  conn.Abort();
}

TEST(FuseServerPoolTest, SpinBudgetBackoffNeverReachesZero) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  conn.SetServerParallelism(1);
  conn.UseRingProfile(/*spin_budget=*/2);
  EXPECT_EQ(conn.effective_ring_spin_budget(), 1u);
  conn.Abort();
}

TEST(FuseServerPoolTest, ElasticThreadsGrowUnderBacklog) {
  SimClock clock;
  CostModel costs;
  FuseServerPoolOptions opts = ManualPool();
  opts.min_threads = 1;
  opts.max_threads = 4;
  // Watermarks out of the way so the growth path is what reacts.
  opts.soft_watermark = 1000;
  opts.hard_watermark = 2000;
  FuseServerPool pool(opts);
  ASSERT_EQ(pool.num_threads(), 1);

  GateHandler gate;
  auto conn = std::make_shared<FuseConn>(&clock, &costs, 1);
  uint64_t id = pool.AddMount(conn, &gate);
  for (int i = 0; i < 60; ++i) {
    conn->SendNoReply(ForgetFrom(1));
  }
  // The lone worker is stuck behind the gate with a full batch; the queue
  // holds far more than one thread can be expected to drain.
  while (pool.queued_depth() < 32) {
    std::this_thread::yield();
  }
  pool.RunControllerPass();
  EXPECT_GT(pool.num_threads(), 1);
  EXPECT_GE(pool.stats().thread_growths, 1u);
  EXPECT_EQ(pool.mount_state(id), MountState::kActive);

  gate.Open();
  while (conn->queued_depth() != 0 || gate.handled() < 60) {
    std::this_thread::yield();
  }
  pool.Stop();
}

// --- fleet kill-at-op-N sweep over the full stack -------------------------

// 8 kernel-mounted CntrFS instances served by one pool; the pool injection
// points fire at the Nth hit while a mixed workload runs on every mount.
// Faulted mounts may error — never hang — and every mount must return to
// service through the pool's own quarantine/reconnect machinery.
class FleetSweepTest : public ::testing::Test {
 protected:
  static constexpr int kMounts = 8;

  struct FleetMount {
    std::unique_ptr<core::CntrFsServer> cntrfs;
    std::shared_ptr<FuseFs> fs;
    uint64_t id = 0;
  };

  void SetUpFleet() {
    kernel_ = kernel::Kernel::Create();
    RegisterFuseDevice(kernel_.get());
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    ASSERT_TRUE(kernel_->Unshare(*server_proc_, kernel::kCloneNewNs).ok());
    FuseServerPoolOptions opts = ManualPool();
    opts.min_threads = 2;
    opts.max_threads = 4;
    opts.quarantine_after_faults = 1;
    pool_ = std::make_unique<FuseServerPool>(opts);
    for (int i = 0; i < kMounts; ++i) {
      auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
      ASSERT_TRUE(server.ok());
      mounts_[i].cntrfs = std::move(server).value();
      auto dev = OpenFuseDevice(kernel_.get(), *kernel_->init());
      ASSERT_TRUE(dev.ok());
      mounts_[i].id = pool_->AddMount(dev->second, mounts_[i].cntrfs.get());
      std::string path = "/flt" + std::to_string(i);
      ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), path, 0755).ok());
      auto fs = MountFuse(kernel_.get(), *kernel_->init(), path, dev->second,
                          FuseMountOptions::Optimized());
      ASSERT_TRUE(fs.ok()) << fs.status().ToString();
      mounts_[i].fs = std::move(fs).value();
      const int idx = i;
      pool_->SetReconnectHook(mounts_[i].id, [this, idx] {
        auto dev2 = OpenFuseDevice(kernel_.get(), *kernel_->init());
        if (!dev2.ok()) {
          return dev2.status();
        }
        Status adopt = pool_->AdoptConn(mounts_[idx].id, dev2->second);
        if (!adopt.ok()) {
          return adopt;
        }
        return mounts_[idx].fs->Reconnect(dev2->second);
      });
    }
    proc_ = kernel_->Fork(*kernel_->init(), "app");
  }

  void TearDownFleet() {
    if (kernel_ != nullptr) {
      kernel_->faults().DisarmAll();
    }
    for (auto& m : mounts_) {
      if (m.fs != nullptr) {
        (void)m.fs->Shutdown();
      }
    }
    if (pool_ != nullptr) {
      for (auto& m : mounts_) {
        if (m.fs != nullptr) {
          pool_->RemoveMount(m.id);
        }
      }
      pool_->Stop();
    }
    for (auto& m : mounts_) {
      m.fs.reset();
      m.cntrfs.reset();
      m.id = 0;
    }
    pool_.reset();
    proc_.reset();
    server_proc_.reset();
    kernel_.reset();
  }

  void TearDown() override { TearDownFleet(); }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::unique_ptr<FuseServerPool> pool_;
  FleetMount mounts_[kMounts];
};

TEST_F(FleetSweepTest, FleetKillAtOpNSweepDegradesCleanly) {
  struct Case {
    const char* point;
    fault::FaultAction action;
  };
  for (const Case& c : {Case{"fuse.pool.dispatch", fault::FaultAction::kKill},
                        Case{"fuse.pool.dispatch", fault::FaultAction::kFail},
                        Case{"fuse.pool.quarantine", fault::FaultAction::kFail}}) {
    for (uint64_t n : {uint64_t{1}, uint64_t{3}}) {
      SCOPED_TRACE(std::string(c.point) + " @ op " + std::to_string(n));
      TearDownFleet();
      SetUpFleet();

      fault::FaultSpec spec;
      spec.action = c.action;
      spec.error = EIO;
      spec.fail_at = n;
      spec.one_shot = true;
      kernel_->faults().Arm(c.point, spec);

      if (std::string(c.point) == "fuse.pool.quarantine") {
        // The point only fires on reconnect attempts: crash enough mounts
        // that the Nth attempt exists.
        for (int i = 0; i < 3; ++i) {
          mounts_[i].fs->conn().Abort();
        }
      }

      // Mixed workload on every mount; any op may fail, none may hang.
      for (int i = 0; i < kMounts; ++i) {
        std::string base = "/flt" + std::to_string(i) + "/tmp";
        for (int f = 0; f < 2; ++f) {
          std::string path = base + "/f" + std::to_string(f);
          auto fd = kernel_->Open(*proc_, path, kernel::kORdWr | kernel::kOCreat, 0644);
          if (fd.ok()) {
            std::string data(4096, 'x');
            (void)kernel_->Write(*proc_, fd.value(), data.data(), data.size());
            (void)kernel_->Fsync(*proc_, fd.value());
            (void)kernel_->Close(*proc_, fd.value());
          }
          (void)kernel_->Stat(*proc_, path);
        }
      }

      // Revival runs with the fault still armed: the quarantine point fires
      // on reconnect attempts, so disarming first would skip it. One-shot
      // specs fire once and the retry machinery absorbs the failure.
      bool all_active = false;
      for (int pass = 0; pass < 30 && !all_active; ++pass) {
        pool_->RunControllerPass();
        all_active = true;
        for (auto& m : mounts_) {
          if (pool_->mount_state(m.id) != MountState::kActive) {
            all_active = false;
          }
        }
      }
      ASSERT_TRUE(all_active) << "a mount never returned to service";
      kernel_->faults().DisarmAll();

      // Whatever was injected, every mount serves again and leaked nothing.
      for (int i = 0; i < kMounts; ++i) {
        std::string path = "/flt" + std::to_string(i) + "/tmp/alive";
        auto fd = kernel_->Open(*proc_, path, kernel::kOWrOnly | kernel::kOCreat, 0644);
        ASSERT_TRUE(fd.ok()) << "mount " << i << ": " << fd.status().ToString();
        ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "ok", 2).ok()) << "mount " << i;
        ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok()) << "mount " << i;
        ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok()) << "mount " << i;
        EXPECT_EQ(mounts_[i].fs->conn().lane_bytes_in_flight(), 0u) << "mount " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cntr::fuse
