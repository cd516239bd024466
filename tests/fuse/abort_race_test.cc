// Abort-reconciliation races (docs/robustness.md, TSan matrix): Abort()
// against parked waiters, against in-flight spliced I/O, and against a
// concurrent pre-serve ConfigureChannels. The assertions are weak on purpose — every
// operation resolves (no hangs), no lane capacity stays parked — because
// the real verdict comes from running this binary under ThreadSanitizer in
// CI, where any lock-order inversion or unsynchronized access fails loudly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"

namespace cntr::fuse {
namespace {

TEST(AbortRaceTest, AbortWakesEveryParkedWaiter) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  constexpr int kWaiters = 8;
  std::atomic<int> resolved{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
      resolved.fetch_add(1);
    });
  }
  // Let the waiters actually park before pulling the plug.
  while (conn.stats().requests < kWaiters) {
    std::this_thread::yield();
  }
  conn.Abort();
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(resolved.load(), kWaiters);
  EXPECT_EQ(conn.in_flight(), 0u);
  EXPECT_EQ(conn.lane_bytes_in_flight(), 0u);
}

TEST(AbortRaceTest, AbortRacesChannelReshapeWithoutCorruption) {
  // ConfigureChannels is refused once the first request froze the shape or
  // Abort ran, but a caller racing it against both must never corrupt the
  // channel table or deadlock: the config lock serializes it against
  // Abort's owned-channel sweep, and a first submitter waits out an install
  // in progress before it routes.
  for (int round = 0; round < 32; ++round) {
    SimClock clock;
    CostModel costs;
    FuseConn conn(&clock, &costs);
    std::thread reshaper([&] {
      for (size_t k = 1; k <= 4; ++k) {
        (void)conn.ConfigureChannels(k);
      }
    });
    std::thread aborter([&] { conn.Abort(); });
    std::thread sender([&] {
      (void)conn.SendAndWait(FuseRequest{});
    });
    reshaper.join();
    aborter.join();
    // The sender either lost the race (ENOTCONN) or parked; an aborted
    // connection must resolve it either way.
    sender.join();
    EXPECT_TRUE(conn.aborted());
    EXPECT_EQ(conn.lane_bytes_in_flight(), 0u);
  }
}

// --- Abort vs. in-flight spliced payloads, through the full mount ---

class AbortRaceFsTest : public ::testing::Test {
 protected:
  void Mount(FuseMountOptions opts) {
    kernel_ = kernel::Kernel::Create();
    RegisterFuseDevice(kernel_.get());
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    ASSERT_TRUE(kernel_->Unshare(*server_proc_, kernel::kCloneNewNs).ok());
    auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
    ASSERT_TRUE(server.ok());
    cntrfs_ = std::move(server).value();
    auto dev = OpenFuseDevice(kernel_.get(), *kernel_->init());
    ASSERT_TRUE(dev.ok());
    pool_ = std::make_unique<FuseServerPool>(
        FuseServerPoolOptions::Dedicated(4, &kernel_->metrics()));
    pool_->AddMount(dev->second, cntrfs_.get());
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = MountFuse(kernel_.get(), *kernel_->init(), "/m", dev->second, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fuse_fs_ = std::move(fs).value();
  }

  void TearDown() override {
    if (fuse_fs_ != nullptr) {
      (void)fuse_fs_->Shutdown();
    }
    pool_.reset();
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServerPool> pool_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

TEST_F(AbortRaceFsTest, AbortReconcilesInFlightSplicedIo) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.splice_write = true;  // flush WRITE payloads ride the lanes too
  Mount(opts);

  constexpr int kThreads = 4;
  std::atomic<bool> dead{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      kernel::ProcessPtr proc = kernel_->Fork(*kernel_->init(), "io-" + std::to_string(t));
      std::string data(256 * 1024, 'a' + static_cast<char>(t));
      char buf[64 * 1024];
      for (int i = 0; !dead.load(std::memory_order_relaxed) && i < 10000; ++i) {
        std::string path = "/m/tmp/race-" + std::to_string(t) + "-" + std::to_string(i);
        auto fd = kernel_->Open(*proc, path, kernel::kORdWr | kernel::kOCreat, 0644);
        if (!fd.ok()) {
          dead.store(true, std::memory_order_relaxed);
          break;
        }
        // Write + fsync pushes spliced WRITEs; the read pulls a spliced
        // READ payload. Any of these may die mid-lane when Abort lands.
        (void)kernel_->Write(*proc, fd.value(), data.data(), data.size());
        (void)kernel_->Fsync(*proc, fd.value());
        (void)kernel_->Read(*proc, fd.value(), buf, sizeof(buf));
        (void)kernel_->Close(*proc, fd.value());
      }
    });
  }

  // Let the I/O reach a steady state, then kill the transport under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fuse_fs_->conn().Abort();
  for (auto& t : workers) {
    t.join();
  }

  EXPECT_TRUE(fuse_fs_->conn().aborted());
  // The abort reconciliation must have drained every lane: payload bytes
  // parked by requests that died mid-flight do not leak capacity.
  EXPECT_EQ(fuse_fs_->conn().lane_bytes_in_flight(), 0u);
  // And the mount stays a clean EIO surface afterwards.
  kernel::ProcessPtr proc = kernel_->Fork(*kernel_->init(), "after");
  EXPECT_EQ(kernel_->Open(*proc, "/m/tmp/post-abort", kernel::kOWrOnly | kernel::kOCreat, 0644)
                .error(),
            EIO);
}

}  // namespace
}  // namespace cntr::fuse
