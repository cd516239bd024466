// Attach reconnect (docs/robustness.md): after a server-side crash aborts
// the FUSE transport, a fresh connection over the SAME CntrFsServer restores
// service — INIT replayed, live file handles re-opened by nodeid — and the
// kill-at-op-N sweep drives every injection point in the catalogue through a
// mixed workload, asserting the stack always degrades (completes or errors)
// instead of hanging or leaking lane capacity.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/container/engine.h"
#include "src/core/attach.h"
#include "src/core/cntrfs.h"
#include "src/fault/fault.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"
#include "tests/fuse/poll_requests.h"

namespace cntr::fault {
namespace {

class ReconnectTest : public ::testing::Test {
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
    mount_id_ = pool_->AddMount(dev->second, cntrfs_.get());
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = fuse::MountFuse(kernel_.get(), *kernel_->init(), "/m", dev->second, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fuse_fs_ = std::move(fs).value();
    proc_ = kernel_->Fork(*kernel_->init(), "app");
  }

  // Replacement transport over the same CntrFsServer: new /dev/fuse
  // connection adopted by the pool, FuseFs::Reconnect.
  void DoReconnect() {
    auto dev = fuse::OpenFuseDevice(kernel_.get(), *kernel_->init());
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(pool_->AdoptConn(mount_id_, dev->second).ok());
    Status rc = fuse_fs_->Reconnect(dev->second);
    ASSERT_TRUE(rc.ok()) << rc.ToString();
  }

  void TearDownMount() {
    if (kernel_ != nullptr) {
      kernel_->faults().DisarmAll();
    }
    if (fuse_fs_ != nullptr) {
      (void)fuse_fs_->Shutdown();
    }
    pool_.reset();
    fuse_fs_.reset();
    cntrfs_.reset();
    proc_.reset();
    server_proc_.reset();
    kernel_.reset();
  }

  void TearDown() override { TearDownMount(); }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<fuse::FuseServerPool> pool_;
  uint64_t mount_id_ = 0;
  std::shared_ptr<fuse::FuseFs> fuse_fs_;
};

TEST_F(ReconnectTest, ReconnectRestoresServiceAndReopensLiveHandles) {
  Mount(fuse::FuseMountOptions::Optimized());
  auto fd = kernel_->Open(*proc_, "/m/tmp/survivor", kernel::kORdWr | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "hello", 5).ok());
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());

  // Crash: the transport dies under the server.
  fuse_fs_->conn().Abort();
  // Cached attributes may still answer within their TTL; anything needing a
  // round trip sees the dead mount.
  EXPECT_EQ(kernel_->Stat(*proc_, "/m/tmp/uncached-name").error(), EIO);

  DoReconnect();

  // Metadata service is back, through the surviving node table.
  auto attr = kernel_->Stat(*proc_, "/m/tmp/survivor");
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  EXPECT_EQ(attr->size, 5u);

  // The fd opened before the crash was re-opened by nodeid: it still
  // writes (at its old offset) and fsyncs through the new connection.
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), " again", 6).ok());
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());

  auto rfd = kernel_->Open(*proc_, "/m/tmp/survivor", kernel::kORdOnly);
  ASSERT_TRUE(rfd.ok());
  char buf[32] = {};
  auto n = kernel_->Read(*proc_, rfd.value(), buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "hello again");
  ASSERT_TRUE(kernel_->Close(*proc_, rfd.value()).ok());

  EXPECT_EQ(fuse_fs_->conn().lane_bytes_in_flight(), 0u);
}

TEST_F(ReconnectTest, ReconnectRejectsALiveConnection) {
  Mount(fuse::FuseMountOptions::Optimized());
  auto dev = fuse::OpenFuseDevice(kernel_.get(), *kernel_->init());
  ASSERT_TRUE(dev.ok());
  // The old connection is still healthy: adopting a replacement now would
  // strand its in-flight requests. The precondition is enforced.
  EXPECT_EQ(fuse_fs_->Reconnect(dev->second).error(), EINVAL);
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok()) << "the live mount must be untouched";
}

// The acceptance sweep: for every injection point compiled into the stack,
// fire it at the Nth hit while a mixed workload runs. The workload may see
// errors — that is the point — but it must complete (no hangs), leave no
// lane bytes parked, and the mount must either stay healthy or be revivable
// via reconnect.
TEST_F(ReconnectTest, KillAtOpNSweepDegradesCleanlyEverywhere) {
  fuse::FuseMountOptions opts = fuse::FuseMountOptions::Optimized();
  // The deadline plane resolves dropped replies; two misses abort (a dead
  // mount answers EIO instead of timing out forever).
  opts.request_deadline_ns = 200'000;
  opts.deadline_grace_ms = 20;
  opts.abort_after_timeouts = 2;

  for (const std::string& point : FaultRegistry::Points()) {
    for (uint64_t n : {uint64_t{1}, uint64_t{3}}) {
      SCOPED_TRACE(point + " @ op " + std::to_string(n));
      TearDownMount();
      Mount(opts);

      FaultSpec spec;
      // Pool dispatch honours kKill (the mount's filesystem crashes and its
      // connection aborts); everywhere else a hard error exercises the same
      // degradation surface without leaving anything un-joinable.
      spec.action = point == "fuse.pool.dispatch" ? FaultAction::kKill : FaultAction::kFail;
      spec.error = EIO;
      spec.fail_at = n;
      spec.one_shot = true;
      kernel_->faults().Arm(point, spec);

      // Mixed workload; every op may fail, none may hang.
      (void)kernel_->Mkdir(*proc_, "/m/tmp/w", 0755);
      for (int i = 0; i < 4; ++i) {
        std::string path = "/m/tmp/w/f" + std::to_string(i);
        auto fd = kernel_->Open(*proc_, path, kernel::kORdWr | kernel::kOCreat, 0644);
        if (fd.ok()) {
          std::string data(8192, 'x');
          (void)kernel_->Write(*proc_, fd.value(), data.data(), data.size());
          (void)kernel_->Fsync(*proc_, fd.value());
          char buf[4096];
          (void)kernel_->Read(*proc_, fd.value(), buf, sizeof(buf));
          (void)kernel_->Close(*proc_, fd.value());
        }
        (void)kernel_->Stat(*proc_, path);
      }
      auto dir = kernel_->Open(*proc_, "/m/tmp/w", kernel::kORdOnly);
      if (dir.ok()) {
        (void)kernel_->Getdents(*proc_, dir.value());
        (void)kernel_->Close(*proc_, dir.value());
      }
      (void)kernel_->Unlink(*proc_, "/m/tmp/w/f0");

      kernel_->faults().DisarmAll();
      EXPECT_EQ(fuse_fs_->conn().lane_bytes_in_flight(), 0u)
          << "in-flight lane capacity leaked";

      if (fuse_fs_->conn().aborted()) {
        DoReconnect();
      }
      // Whichever path we took, the mount serves again.
      auto check = kernel_->Open(*proc_, "/m/tmp/alive", kernel::kOWrOnly | kernel::kOCreat,
                                 0644);
      ASSERT_TRUE(check.ok()) << check.status().ToString();
      ASSERT_TRUE(kernel_->Write(*proc_, check.value(), "ok", 2).ok());
      ASSERT_TRUE(kernel_->Fsync(*proc_, check.value()).ok());
      ASSERT_TRUE(kernel_->Close(*proc_, check.value()).ok());
      EXPECT_EQ(fuse_fs_->conn().lane_bytes_in_flight(), 0u);
    }
  }
}

// --- admission-gate vs. reconnect races ---

// Regression: a waiter parked on a full admission gate used to stay parked
// when the connection died under it — Reconnect's first step (abort) never
// reached the gate, and FinishInFlight skipped its notify once the cap was
// reconfigured to 0. Both the abort and any cap change must wake parked
// waiters; an abort-woken waiter resolves with ENOTCONN instead of
// re-parking.
TEST(AdmissionGateTest, AbortWakesParkedAdmissionWaitersWithEnotconn) {
  SimClock clock;
  CostModel costs;
  fuse::FuseConn conn(&clock, &costs, 1);
  conn.SetMaxBackground(1);

  std::atomic<int> enotconn{0};
  // First request occupies the whole gate and waits for a reply that never
  // comes (nobody is serving).
  std::thread first([&] {
    fuse::FuseRequest req;
    req.opcode = fuse::FuseOpcode::kGetattr;
    req.pid = 1;
    if (conn.SendAndWait(std::move(req)).error() == ENOTCONN) {
      enotconn.fetch_add(1);
    }
  });
  while (conn.channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  // Second request parks on the admission gate.
  std::thread second([&] {
    fuse::FuseRequest req;
    req.opcode = fuse::FuseOpcode::kGetattr;
    req.pid = 2;
    if (conn.SendAndWait(std::move(req)).error() == ENOTCONN) {
      enotconn.fetch_add(1);
    }
  });
  while (conn.stats().admission_waits == 0) {
    std::this_thread::yield();
  }
  // What Reconnect does first when the transport is being replaced.
  conn.Abort();
  first.join();
  second.join();
  EXPECT_EQ(enotconn.load(), 2)
      << "the parked waiter must resolve with ENOTCONN, not hang";
}

TEST(AdmissionGateTest, DisarmingTenantBudgetReleasesParkedWaiters) {
  SimClock clock;
  CostModel costs;
  fuse::FuseConn conn(&clock, &costs, 1);
  // The pool's per-tenant budget layers under the mount's own gate: the
  // effective cap is the tighter of the two.
  conn.SetMaxBackground(4);
  conn.SetAdmissionBudget(1);

  std::atomic<int> ok{0};
  std::thread first([&] {
    fuse::FuseRequest req;
    req.opcode = fuse::FuseOpcode::kGetattr;
    req.pid = 1;
    if (conn.SendAndWait(std::move(req)).ok()) {
      ok.fetch_add(1);
    }
  });
  while (conn.channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  std::thread second([&] {
    fuse::FuseRequest req;
    req.opcode = fuse::FuseOpcode::kGetattr;
    req.pid = 2;
    if (conn.SendAndWait(std::move(req)).ok()) {
      ok.fetch_add(1);
    }
  });
  while (conn.stats().admission_waits == 0) {
    std::this_thread::yield();
  }
  // Lifting the budget must release the parked waiter (the wider
  // max_background now governs); it proceeds to enqueue.
  conn.SetAdmissionBudget(0);
  while (conn.channel_queue_depth(0) < 2) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 2; ++i) {
    auto req = fuse::PollRequest(conn, 0);
    ASSERT_TRUE(req.has_value());
    conn.WriteReply(req->unique, fuse::FuseReply{});
  }
  first.join();
  second.join();
  EXPECT_EQ(ok.load(), 2);
  conn.Abort();
}

// --- the full attach stack ---

container::Image MakeAppImage() {
  container::Image image("app/mysql", "slim");
  container::Layer layer;
  layer.id = "app-mysql";
  layer.files.push_back(container::ImageFile{"/usr/bin/mysql", 12 << 20, 0755,
                                             container::FileClass::kAppBinary, ""});
  layer.files.push_back(container::ImageFile{"/etc/mysql.conf", 0, 0644,
                                             container::FileClass::kConfig, "port=5432\n"});
  image.AddLayer(std::move(layer));
  image.entrypoint() = "/usr/bin/mysql";
  image.env()["PATH"] = "/usr/bin:/bin";
  return image;
}

TEST(AttachReconnectTest, SessionSurvivesServerRestart) {
  auto kernel = kernel::Kernel::Create();
  auto runtime = std::make_unique<container::ContainerRuntime>(kernel.get());
  auto registry = std::make_unique<container::Registry>(&kernel->clock());
  auto docker = std::make_shared<container::DockerEngine>(runtime.get(), registry.get());
  auto cntr = std::make_unique<core::Cntr>(kernel.get());
  cntr->RegisterEngine(docker);

  auto db = docker->Run("db", MakeAppImage());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto session_or = cntr->Attach("docker", "db");
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  auto& session = *session_or.value();

  EXPECT_EQ(session.Execute("cat /var/lib/cntr/etc/mysql.conf"), "port=5432\n");

  // Crash the transport out from under the live session.
  session.fuse_fs()->conn().Abort();
  Status rc = session.Reconnect();
  ASSERT_TRUE(rc.ok()) << rc.ToString();

  // The shell works again over the replacement transport — same nodeids,
  // same mounted view.
  EXPECT_EQ(session.Execute("cat /var/lib/cntr/etc/mysql.conf"), "port=5432\n");
  EXPECT_TRUE(session.Detach().ok());
}

}  // namespace
}  // namespace cntr::fault
