// Regression tests for the four real wait-cycle findings the lockdep
// validator flagged when the Checked* wrappers were first adopted (each ran
// as a hard deadlock *shape*, benign only because the exclusive side of
// FuseConn's reshape lock was try-lock-only):
//
//   1. A timed-out submitter escalated to FuseConn::Abort() while still
//      holding the reshape lock shared — Abort sweeps and notifies every
//      channel's reply_cv, and other submitters parked on reply_cv holding
//      the reshape lock shared (reply_cv <-> reshape cycle).
//   2. A ring submitter freed its completion slot and woke SQ-full parkers
//      (sq_cv) before releasing the reshape lock; the parkers held it
//      shared (sq_cv <-> reshape cycle).
//   3. FuseServerPool::RunControllerPass quarantined a crashed mount —
//      Abort(), notifying reply_cv — while holding controller_pass_mu_,
//      which the same pass also held while blocking on queued_depth()'s
//      reshape lock (reshape ~> reply_cv ~> controller_pass ~> reshape).
//   4. MetricsRegistry exposition invoked sampling callbacks under the
//      registry mutex; callbacks took subsystem locks (dcache shards,
//      page-cache shards) that instrumented request paths hold while
//      recording into the registry (registry ~> shard vs shard ~> registry).
//      The callbacks are gone: subsystems count straight into the
//      registry, so exposition never leaves it.
//
// Findings 1-3 no longer have a lock to form around: a connection's shape
// is fixed before it is served, so the request path holds no connection
// lock from routing to reply, and the deferral of wake-ups and Abort past
// that lock is gone with it. The tests keep driving the same paths — a
// timeout-escalated Abort, SQ-full wake-ups, a quarantine during a
// controller pass — so a lock reintroduced around them is caught.
//
// Each test drives the path with the validator armed and a capturing
// handler installed: a regression reintroducing an inversion fails here
// with the full two-stack report, without needing CNTR_LOCKDEP=1 in the
// environment.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/lockdep.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"
#include "src/util/sim_clock.h"
#include "tests/fuse/poll_requests.h"

namespace cntr::analysis {
namespace {

using fuse::FuseConn;
using fuse::FuseHandler;
using fuse::FuseReply;
using fuse::FuseRequest;
using fuse::FuseServerPool;
using fuse::FuseServerPoolOptions;
using fuse::PollRequests;

class LockdepRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = LockdepEnabled();
    SetLockdepEnabled(false);
    LockdepResetForTest();
    SetLockdepReportHandler([this](const LockdepReport& r) {
      ++reports_;
      last_ = r;
    });
    SetLockdepEnabled(true);
  }

  void TearDown() override {
    SetLockdepEnabled(was_enabled_);
    SetLockdepReportHandler(nullptr);
    LockdepResetForTest();
  }

  std::atomic<int> reports_{0};
  LockdepReport last_;
  bool was_enabled_ = false;
};

// Finding 1: a timeout-escalated Abort runs on the submitter's thread with
// no connection lock held.
TEST_F(LockdepRegressionTest, TimeoutEscalatedAbortDoesNotNotifyUnderReshape) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  conn.SetRequestDeadline(1'000'000, /*real_grace_ms=*/10);
  conn.SetAbortOnConsecutiveTimeouts(2);
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ETIMEDOUT);
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ETIMEDOUT);
  EXPECT_TRUE(conn.aborted());
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

// Finding 2: completion-side sq_cv wake-ups run with no connection lock
// held. Over-subscribe a minimum-depth ring so submitters park SQ-full,
// then complete everything — every completing submitter wakes the parkers
// on its way out.
TEST_F(LockdepRegressionTest, RingSqWakeupsHappenOutsideTheReshapeWindow) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_EQ(conn.ConfigureChannels(1, fuse::kMinRingDepth), 1u);
  conn.UseRingProfile();

  constexpr int kClients = 3 * static_cast<int>(fuse::kMinRingDepth);
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      FuseRequest req;
      req.opcode = fuse::FuseOpcode::kGetattr;
      if (conn.SendAndWait(std::move(req)).ok()) {
        ok.fetch_add(1);
      }
    });
  }
  while (conn.channel_queue_depth(0) < fuse::kMinRingDepth) {
    std::this_thread::yield();
  }
  std::thread server([&] {
    int served = 0;
    while (served < kClients) {
      std::vector<FuseRequest> batch = PollRequests(conn);
      for (FuseRequest& req : batch) {
        conn.WriteReply(req.unique, FuseReply{});
        ++served;
      }
    }
  });
  for (auto& t : clients) {
    t.join();
  }
  server.join();
  EXPECT_EQ(ok.load(), kClients);
  conn.Abort();
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

// Finding 3: the controller pass defers quarantine Aborts until
// controller_pass_mu_ is released. A submitter parked on another
// connection's reply_cv records its wait edges; the pass must quarantine the
// crashed mount (Abort -> notify) and poll the healthy mount's queued_depth
// without closing a cycle.
TEST_F(LockdepRegressionTest, ControllerPassQuarantineAbortsOutsidePassLock) {
  class NullHandler : public FuseHandler {
   public:
    FuseReply Handle(const FuseRequest&) override { return FuseReply{}; }
  };
  SimClock clock;
  CostModel costs;
  NullHandler handler;

  // Standalone connection with a parked submitter: records the wait edges
  // a live tenant's in-flight request contributes to the class graph.
  FuseConn parked(&clock, &costs);
  std::thread submitter([&] {
    (void)parked.SendAndWait(FuseRequest{});  // resolves ENOTCONN on Abort
  });
  while (parked.queued_depth() == 0) {
    std::this_thread::yield();
  }

  FuseServerPoolOptions opts;
  opts.min_threads = 1;
  opts.max_threads = 1;
  opts.controller_interval_ms = 0;  // manual passes only
  FuseServerPool pool(opts);
  auto crashed = std::make_shared<FuseConn>(&clock, &costs);
  auto healthy = std::make_shared<FuseConn>(&clock, &costs);
  pool.AddMount(crashed, &handler);
  pool.AddMount(healthy, &handler);
  crashed->Abort();  // health check in the next pass quarantines it

  pool.RunControllerPass();

  parked.Abort();  // release the parked submitter
  submitter.join();
  pool.Stop();
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

// Finding 4, now removed by construction: every kernel counter lives in
// the registry, so exposition loads atomics under the registry mutex and
// never calls into a subsystem. Render /proc/cntr/metrics and SnapshotJson()
// from a second thread while a process drives dcache, page-cache and disk
// traffic; the class graph must stay acyclic.
TEST_F(LockdepRegressionTest, ExpositionDuringKernelTrafficIsCycleFree) {
  kernel::Kernel::Config config;
  config.page_cache_capacity = 64 * kernel::kPageSize;  // small: writes evict, reads miss
  auto k = kernel::Kernel::Create(config);
  auto worker = k->Fork(*k->init(), "worker");
  auto viewer = k->Fork(*k->init(), "viewer");

  std::atomic<bool> done{false};
  std::atomic<int> renders{0};
  std::thread render([&] {
    char buf[4096];
    while (!done.load()) {
      auto fd = k->Open(*viewer, "/proc/cntr/metrics", kernel::kORdOnly);
      EXPECT_TRUE(fd.ok()) << fd.status().ToString();
      if (fd.ok()) {
        while (true) {
          auto n = k->Read(*viewer, fd.value(), buf, sizeof(buf));
          if (!n.ok() || n.value() == 0) {
            break;
          }
        }
        EXPECT_TRUE(k->Close(*viewer, fd.value()).ok());
      }
      EXPECT_NE(k->metrics().SnapshotJson().find("cntr_dcache_entries"), std::string::npos);
      renders.fetch_add(1);
    }
  });

  std::string data(8 * kernel::kPageSize, 'x');
  std::string back(data.size(), '\0');
  auto drive = [&](int i) {
    std::string path = "/data/f" + std::to_string(i % 16);
    auto fd = k->Open(*worker, path, kernel::kORdWr | kernel::kOCreat);
    if (!fd.ok()) {
      return false;
    }
    bool ok = k->Pwrite(*worker, fd.value(), data.data(), data.size(), 0).ok() &&
              k->Fsync(*worker, fd.value()).ok() &&
              k->Pread(*worker, fd.value(), back.data(), back.size(), 0).ok();
    ok = k->Close(*worker, fd.value()).ok() && ok;
    ok = ok && k->Stat(*worker, path).ok() && !k->Stat(*worker, path + ".missing").ok();
    return ok && (i % 4 != 3 || k->Unlink(*worker, path).ok());
  };
  while (renders.load() == 0) {
    std::this_thread::yield();  // the viewer is mid-loop before traffic starts
  }
  // Run until at least one whole render fell inside the traffic.
  const int first = renders.load();
  bool traffic_ok = true;
  for (int i = 0; traffic_ok && (i < 64 || renders.load() < first + 2); ++i) {
    traffic_ok = drive(i);
  }
  done.store(true);
  render.join();

  EXPECT_TRUE(traffic_ok);
  EXPECT_GT(k->dcache().stats().hits, 0u);
  EXPECT_GT(k->page_cache().stats().evictions, 0u);
  EXPECT_GT(k->disk().stats().flushes, 0u);
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

}  // namespace
}  // namespace cntr::analysis
