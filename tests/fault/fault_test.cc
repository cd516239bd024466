// Failure-semantics tests (docs/robustness.md): the fault-injection
// registry itself, then the request lifecycle hardening observed through it
// — deadlines + the real-time sweeper, FUSE_INTERRUPT, the max_background
// admission gate, crash-abort EIO degradation, errseq-style writeback error
// reporting (exactly once per fd, surfaced by fsync/close/detach), flusher
// fault handling, and the socket proxy's transient-accept backoff.
#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "src/core/cntrfs.h"
#include "src/core/socket_proxy.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"
#include "tests/fuse/poll_requests.h"

namespace cntr::fault {
namespace {

// --- the registry itself ---

TEST(FaultRegistryTest, UnarmedPointsNeverFire) {
  FaultRegistry reg;
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_FALSE(reg.Check("cntrfs.dispatch"));
  EXPECT_EQ(reg.Hits("cntrfs.dispatch"), 0u);
}

TEST(FaultRegistryTest, FailAtFiresOnExactlyTheNthHit) {
  FaultRegistry reg;
  FaultSpec spec;
  spec.fail_at = 3;
  spec.error = ENOSPC;
  reg.Arm("p", spec);
  EXPECT_FALSE(reg.Check("p"));
  EXPECT_FALSE(reg.Check("p"));
  auto hit = reg.Check("p");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.error, ENOSPC);
  EXPECT_FALSE(reg.Check("p")) << "fail_at is the Nth hit only, not every hit from N on";
  EXPECT_EQ(reg.Hits("p"), 4u);
  EXPECT_EQ(reg.Fired("p"), 1u);
}

TEST(FaultRegistryTest, FailEveryFiresPeriodically) {
  FaultRegistry reg;
  FaultSpec spec;
  spec.fail_every = 2;
  reg.Arm("p", spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (reg.Check("p")) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 5);
}

TEST(FaultRegistryTest, OneShotDisarmsAfterFiring) {
  FaultRegistry reg;
  FaultSpec spec;
  spec.one_shot = true;
  reg.Arm("p", spec);
  EXPECT_TRUE(reg.AnyArmed());
  EXPECT_TRUE(reg.Check("p"));
  EXPECT_FALSE(reg.AnyArmed()) << "one_shot must disarm the point after firing";
  EXPECT_FALSE(reg.Check("p"));
}

TEST(FaultRegistryTest, ProbabilisticScheduleIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FaultRegistry reg(seed);
    FaultSpec spec;
    spec.probability = 0.5;
    reg.Arm("p", spec);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(reg.Check("p") ? 'F' : '.');
    }
    return pattern;
  };
  EXPECT_EQ(run(7), run(7)) << "same seed must reproduce the same fire pattern";
  EXPECT_NE(run(7), run(8)) << "different seeds must diverge";
  EXPECT_NE(run(7).find('F'), std::string::npos);
  EXPECT_NE(run(7).find('.'), std::string::npos);
}

TEST(FaultRegistryTest, ArmResetsTheHitCounter) {
  FaultRegistry reg;
  FaultSpec spec;
  spec.fail_at = 2;
  reg.Arm("p", spec);
  EXPECT_FALSE(reg.Check("p"));
  reg.Arm("p", spec);  // re-arm: fail_at counts from here again
  EXPECT_FALSE(reg.Check("p"));
  EXPECT_TRUE(reg.Check("p"));
}

TEST(FaultRegistryTest, CatalogueListsEveryCompiledInPoint) {
  // The sweep tests iterate this catalogue; every injection point linked
  // into this binary must be discoverable through it.
  auto points = FaultRegistry::Points();
  for (const char* want :
       {"kernel.splice", "kernel.vmsplice", "kernel.socket.accept", "kernel.socket.connect",
        "fuse.conn.enqueue", "fuse.conn.reply", "fuse.lane.transit", "fuse.pool.dispatch",
        "fuse.flusher", "cntrfs.dispatch", "proxy.accept", "proxy.pump"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), want), points.end())
        << "missing injection point: " << want;
  }
}

// --- transport-level failure plane (FuseConn alone, manual server) ---

using fuse::FuseConn;
using fuse::FuseOpcode;
using fuse::FuseReply;
using fuse::FuseRequest;
using fuse::PollRequest;

TEST(FaultTransportTest, EnqueueFaultFailsTheSendWithoutAServer) {
  SimClock clock;
  CostModel costs;
  FaultRegistry faults;
  FuseConn conn(&clock, &costs, 1, &faults);
  FaultSpec spec;
  spec.error = ENODEV;
  faults.Arm("fuse.conn.enqueue", spec);
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENODEV);
  conn.Abort();
}

TEST(FaultTransportTest, SweeperExpiresWedgedRequestsWithEtimedout) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  // 1ms virtual deadline, 20ms wall grace: with no server attached the
  // virtual clock never moves, so only the real-time sweeper can save us.
  conn.SetRequestDeadline(1'000'000, /*real_grace_ms=*/20);
  uint64_t before = clock.NowNs();
  auto reply = conn.SendAndWait(FuseRequest{});
  EXPECT_EQ(reply.error(), ETIMEDOUT);
  EXPECT_GE(conn.stats().timeouts, 1u);
  // The waiter charges the deadline to its own timeline: the wait was real.
  EXPECT_GE(clock.NowNs() - before, 1'000'000u);
  conn.Abort();
}

TEST(FaultTransportTest, LateReplyIsDroppedAndWaiterTimesOut) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  conn.SetRequestDeadline(100'000, /*real_grace_ms=*/0);  // virtual-only
  std::thread server([&] {
    auto req = PollRequest(conn);
    if (!req.has_value()) {
      return;
    }
    clock.Advance(1'000'000);  // blow past the virtual deadline, then reply
    conn.WriteReply(req->unique, FuseReply{});
  });
  auto reply = conn.SendAndWait(FuseRequest{});
  server.join();
  EXPECT_EQ(reply.error(), ETIMEDOUT);
  EXPECT_EQ(conn.stats().late_replies, 1u);
  EXPECT_GE(conn.stats().timeouts, 1u);
  conn.Abort();
}

TEST(FaultTransportTest, ConsecutiveTimeoutsAbortTheConnection) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  conn.SetRequestDeadline(1'000'000, /*real_grace_ms=*/10);
  conn.SetAbortOnConsecutiveTimeouts(2);
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ETIMEDOUT);
  EXPECT_FALSE(conn.aborted());
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ETIMEDOUT);
  EXPECT_TRUE(conn.aborted()) << "second consecutive miss must trip the degradation policy";
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
}

TEST(FaultTransportTest, InterruptUnblocksQueuedRequestBeforeServerSeesIt) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::thread interrupter([&] {
    // Wait for the request to be queued, then interrupt it.
    while (conn.channel_queue_depth(0) == 0) {
      std::this_thread::yield();
    }
    EXPECT_EQ(conn.InterruptPid(77), 1u);
  });
  FuseRequest req;
  req.pid = 77;
  EXPECT_EQ(conn.SendAndWait(std::move(req)).error(), EINTR);
  interrupter.join();
  EXPECT_EQ(conn.stats().interrupts, 1u);
  // The interrupted SQE is dropped at reap time: the server's next reap
  // never delivers it, and the drop empties the queue.
  EXPECT_TRUE(conn.TryReadRequestBatch(0).empty());
  EXPECT_EQ(conn.queued_depth(), 0u);
  conn.Abort();
}

TEST(FaultTransportTest, InterruptInFlightNotifiesServerAndDropsLateReply) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::atomic<uint64_t> unique{0};
  std::thread server([&] {
    auto req = PollRequest(conn);
    if (!req.has_value()) {
      return;
    }
    unique.store(req->unique);
    // The interrupt arrives as a kInterrupt notification (unique 0)
    // naming the in-flight request.
    auto notify = PollRequest(conn);
    if (!notify.has_value()) {
      return;
    }
    EXPECT_EQ(notify->opcode, FuseOpcode::kInterrupt);
    EXPECT_EQ(notify->unique, 0u);
    EXPECT_EQ(notify->interrupt_unique, unique.load());
    // Replying anyway is the wedged-server race: the waiter is long gone.
    conn.WriteReply(unique.load(), FuseReply{});
  });
  std::thread interrupter([&] {
    while (unique.load() == 0) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(conn.Interrupt(unique.load()));
  });
  auto reply = conn.SendAndWait(FuseRequest{});
  server.join();
  interrupter.join();
  EXPECT_EQ(reply.error(), EINTR);
  EXPECT_EQ(conn.stats().interrupts, 1u);
  EXPECT_EQ(conn.stats().late_replies, 1u);
  conn.Abort();
}

TEST(FaultTransportTest, AdmissionGateParksCallersAtMaxBackground) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  conn.SetMaxBackground(1);
  std::thread first([&] {
    EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  });
  while (conn.in_flight() == 0) {
    std::this_thread::yield();
  }
  std::thread second([&] {
    EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  });
  // The second caller must park at the gate, not join the flight.
  while (conn.stats().admission_waits == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(conn.in_flight(), 1u);
  conn.Abort();  // wakes the flyer and the parked caller alike
  first.join();
  second.join();
  EXPECT_EQ(conn.in_flight(), 0u);
}

// --- mount-level failure semantics (FuseFs through a real CntrFS server) ---

class FaultFsTest : public ::testing::Test {
 protected:
  void Mount(fuse::FuseMountOptions opts) {
    kernel_ = kernel::Kernel::Create();
    fuse::RegisterFuseDevice(kernel_.get());
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    ASSERT_TRUE(kernel_->Unshare(*server_proc_, kernel::kCloneNewNs).ok());
    auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
    ASSERT_TRUE(server.ok());
    cntrfs_ = std::move(server).value();
    auto dev = fuse::OpenFuseDevice(kernel_.get(), *kernel_->init());
    ASSERT_TRUE(dev.ok());
    pool_ = std::make_unique<fuse::FuseServerPool>(
        fuse::FuseServerPoolOptions::Dedicated(2, &kernel_->metrics()));
    pool_->AddMount(dev->second, cntrfs_.get());
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = fuse::MountFuse(kernel_.get(), *kernel_->init(), "/m", dev->second, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fuse_fs_ = std::move(fs).value();
    proc_ = kernel_->Fork(*kernel_->init(), "app");
  }

  void TearDown() override {
    if (kernel_ != nullptr) {
      kernel_->faults().DisarmAll();
    }
    if (fuse_fs_ != nullptr) {
      (void)fuse_fs_->Shutdown();
    }
    pool_.reset();
  }

  FaultRegistry& faults() { return kernel_->faults(); }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<fuse::FuseServerPool> pool_;
  std::shared_ptr<fuse::FuseFs> fuse_fs_;
};

TEST_F(FaultFsTest, DispatchFaultSurfacesAsTheInjectedErrno) {
  Mount(fuse::FuseMountOptions::Optimized());
  FaultSpec spec;
  spec.error = ENOSPC;
  spec.one_shot = true;
  faults().Arm("cntrfs.dispatch", spec);
  auto fd = kernel_->Open(*proc_, "/m/tmp/boom", kernel::kOWrOnly | kernel::kOCreat, 0644);
  EXPECT_EQ(fd.error(), ENOSPC);
  // One-shot: the mount is healthy again afterwards.
  auto fd2 = kernel_->Open(*proc_, "/m/tmp/boom", kernel::kOWrOnly | kernel::kOCreat, 0644);
  EXPECT_TRUE(fd2.ok()) << fd2.status().ToString();
}

TEST_F(FaultFsTest, WorkerDeathDegradesTheMountToEio) {
  Mount(fuse::FuseMountOptions::Optimized());
  FaultSpec spec;
  spec.action = FaultAction::kKill;
  spec.one_shot = true;
  faults().Arm("fuse.pool.dispatch", spec);
  // The kill crashes the mount's filesystem and aborts its connection: the
  // op that hit it and every one after answer EIO at the filesystem
  // boundary — a dead mount looks like a dead disk, it does not wedge or
  // speak ENOTCONN.
  auto fd = kernel_->Open(*proc_, "/m/tmp/crash", kernel::kOWrOnly | kernel::kOCreat, 0644);
  EXPECT_EQ(fd.error(), EIO);
  EXPECT_TRUE(fuse_fs_->conn().aborted());
  EXPECT_EQ(kernel_->Stat(*proc_, "/m/tmp/crash").error(), EIO);
  EXPECT_EQ(fuse_fs_->conn().lane_bytes_in_flight(), 0u);
}

TEST_F(FaultFsTest, DeadlineTimeoutsAutoAbortAStalledMount) {
  fuse::FuseMountOptions opts = fuse::FuseMountOptions::Optimized();
  opts.request_deadline_ns = 200'000;
  opts.deadline_grace_ms = 20;
  opts.abort_after_timeouts = 1;
  Mount(opts);
  // kDrop: the server handles the request but its reply evaporates — the
  // wedged-server shape only the deadline machinery can resolve.
  FaultSpec spec;
  spec.action = FaultAction::kDrop;
  faults().Arm("fuse.pool.dispatch", spec);
  EXPECT_EQ(kernel_->Stat(*proc_, "/m/tmp/wedge").error(), ETIMEDOUT);
  faults().DisarmAll();
  // One miss tripped the auto-abort: the mount is now cleanly dead.
  EXPECT_TRUE(fuse_fs_->conn().aborted());
  EXPECT_EQ(kernel_->Stat(*proc_, "/m/tmp/wedge").error(), EIO);
  EXPECT_GE(fuse_fs_->conn().stats().timeouts, 1u);
}

TEST_F(FaultFsTest, ErrseqReportsLostWritebackExactlyOncePerFd) {
  Mount(fuse::FuseMountOptions::Optimized());
  auto fd1 = kernel_->Open(*proc_, "/m/tmp/lost", kernel::kORdWr | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd1.ok());
  auto fd2 = kernel_->Open(*proc_, "/m/tmp/lost", kernel::kORdWr);
  ASSERT_TRUE(fd2.ok());
  std::string data(8192, 'x');
  ASSERT_TRUE(kernel_->Write(*proc_, fd1.value(), data.data(), data.size()).ok());

  // The flush WRITE fails: the pages are marked clean anyway (Linux AS_EIO
  // — keeping them dirty would wedge writeback forever) and the error goes
  // into the superblock errseq stream.
  FaultSpec spec;
  spec.error = ENOSPC;
  spec.one_shot = true;
  faults().Arm("cntrfs.dispatch", spec);
  EXPECT_EQ(kernel_->Fsync(*proc_, fd1.value()).error(), ENOSPC)
      << "fsync must report the lost write";
  EXPECT_TRUE(kernel_->Fsync(*proc_, fd1.value()).ok())
      << "the same fd must see the error exactly once";
  // The second fd holds an older cursor: it still gets its one report.
  EXPECT_EQ(kernel_->Fsync(*proc_, fd2.value()).error(), ENOSPC);
  EXPECT_TRUE(kernel_->Fsync(*proc_, fd2.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd1.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd2.value()).ok());
}

TEST_F(FaultFsTest, CloseReportsPendingWritebackError) {
  Mount(fuse::FuseMountOptions::Optimized());
  auto fd = kernel_->Open(*proc_, "/m/tmp/lateclose", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(4096, 'c');
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
  FaultSpec spec;
  spec.error = EDQUOT;
  spec.one_shot = true;
  faults().Arm("cntrfs.dispatch", spec);
  // Close flushes; the failed flush must not vanish silently.
  EXPECT_EQ(kernel_->Close(*proc_, fd.value()).error(), EDQUOT);
}

TEST_F(FaultFsTest, DetachSurfacesFinalFlushErrors) {
  Mount(fuse::FuseMountOptions::Optimized());
  auto fd = kernel_->Open(*proc_, "/m/tmp/dirtyexit", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(8192, 'd');
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
  // The fd stays open: Shutdown's final drain is what hits the fault.
  FaultSpec spec;
  spec.error = ENOSPC;
  spec.one_shot = true;
  faults().Arm("cntrfs.dispatch", spec);
  Status down = fuse_fs_->Shutdown();
  EXPECT_EQ(down.error(), ENOSPC)
      << "detach must not return Ok when the final flush lost dirty data";
}

TEST_F(FaultFsTest, FlusherFaultLandsInTheErrseqStream) {
  fuse::FuseMountOptions opts = fuse::FuseMountOptions::Optimized();
  opts.flusher_threads = 1;
  opts.per_inode_dirty_bytes = 4096;  // every write flushes in the background
  Mount(opts);
  FaultSpec spec;
  spec.error = ENOSPC;
  spec.one_shot = true;
  faults().Arm("fuse.flusher", spec);
  auto fd = kernel_->Open(*proc_, "/m/tmp/bg", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(32 * 1024, 'b');
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
  // The write's background flush hit the fault and recorded it.
  ASSERT_GT(fuse_fs_->wb_err_seq(), 0u) << "flusher never recorded the injected error";
  faults().DisarmAll();
  EXPECT_EQ(kernel_->Fsync(*proc_, fd.value()).error(), ENOSPC)
      << "the error a background flusher hit must reach the next fsync";
  EXPECT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
}

TEST_F(FaultFsTest, KilledFlusherLeavesDataReachableViaFsync) {
  fuse::FuseMountOptions opts = fuse::FuseMountOptions::Optimized();
  opts.flusher_threads = 1;
  opts.per_inode_dirty_bytes = 4096;
  Mount(opts);
  FaultSpec spec;
  spec.action = FaultAction::kKill;
  spec.one_shot = true;
  faults().Arm("fuse.flusher", spec);
  auto fd = kernel_->Open(*proc_, "/m/tmp/orphan", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(32 * 1024, 'o');
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
  EXPECT_EQ(fuse_fs_->live_flushers(), 0u) << "the killed flusher must be accounted dead";
  // Foreground durability still works without the background pool.
  EXPECT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  EXPECT_GT(cntrfs_->stats().writes, 0u);
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
}

TEST_F(FaultFsTest, ExitingProcessInterruptsItsInFlightRequests) {
  Mount(fuse::FuseMountOptions::Optimized());
  // A second connection with no server: requests queue forever unless the
  // kernel's exit hook interrupts them.
  auto dev = fuse::OpenFuseDevice(kernel_.get(), *kernel_->init());
  ASSERT_TRUE(dev.ok());
  std::shared_ptr<FuseConn> orphan = dev->second;
  kernel::ProcessPtr doomed = kernel_->Fork(*kernel_->init(), "doomed");
  std::thread waiter([&] {
    FuseRequest req;
    req.pid = doomed->global_pid();
    EXPECT_EQ(orphan->SendAndWait(std::move(req)).error(), EINTR);
  });
  while (orphan->channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  kernel_->Exit(*doomed);
  waiter.join();
  EXPECT_EQ(orphan->stats().interrupts, 1u);
}

// --- socket proxy: transient accept exhaustion backs off and retries ---

TEST(FaultProxyTest, TransientAcceptExhaustionBacksOffAndRetries) {
  auto kernel = kernel::Kernel::Create();
  kernel::ProcessPtr container = kernel->Fork(*kernel->init(), "app-container");
  kernel::ProcessPtr client = kernel->Fork(*kernel->init(), "app-client");
  kernel::ProcessPtr host = kernel->Fork(*kernel->init(), "x11-host");
  constexpr const char* kAppPath = "/tmp/fault-app.sock";
  constexpr const char* kHostPath = "/tmp/fault-host.sock";
  auto listen = kernel->SocketListen(*host, kHostPath);
  ASSERT_TRUE(listen.ok());

  core::SocketProxy proxy(kernel.get(), container, host);
  ASSERT_TRUE(proxy.Forward(kAppPath, kHostPath).ok());

  // First accept attempt hits EMFILE (fd exhaustion, transient by nature).
  FaultSpec spec;
  spec.error = EMFILE;
  spec.one_shot = true;
  kernel->faults().Arm("kernel.socket.accept", spec);

  auto conn = kernel->SocketConnect(*client, kAppPath);
  ASSERT_TRUE(conn.ok());
  proxy.RunOnce(0);
  EXPECT_EQ(proxy.stats().accept_retries, 1u);
  EXPECT_EQ(proxy.stats().connections, 0u);
  EXPECT_EQ(proxy.stats().accept_failures, 0u)
      << "a deferred accept is not an unwound connection";

  // While the backoff deadline holds, the listener sits out.
  proxy.RunOnce(0);
  EXPECT_EQ(proxy.stats().connections, 0u);

  // Past the (virtual) backoff the parked connection is accepted normally.
  kernel->clock().Advance(2'000'000);
  for (int i = 0; i < 50 && proxy.stats().connections == 0; ++i) {
    proxy.RunOnce(0);
  }
  EXPECT_EQ(proxy.stats().connections, 1u);
  EXPECT_EQ(proxy.stats().accept_failures, 0u);
  auto server = kernel->SocketAccept(*host, listen.value(), /*nonblock=*/true);
  EXPECT_TRUE(server.ok()) << "the parked connection must reach the host side";
}

}  // namespace
}  // namespace cntr::fault
