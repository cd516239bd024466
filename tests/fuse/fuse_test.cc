// Unit tests for the FUSE layer: the connection queue, protocol round
// trips, abort semantics, forget batching, and mount-option behaviour
// (observed through server-side statistics).
#include <gtest/gtest.h>

#include <thread>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"
#include "tests/fuse/poll_requests.h"

namespace cntr::fuse {
namespace {

TEST(FuseConnTest, RoundTripThroughManualServer) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);

  std::thread server([&] {
    auto req = PollRequest(conn);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->opcode, FuseOpcode::kGetattr);
    EXPECT_EQ(req->nodeid, 42u);
    FuseReply reply;
    reply.attr.ino = 42;
    conn.WriteReply(req->unique, std::move(reply));
  });

  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.nodeid = 42;
  auto reply = conn.SendAndWait(std::move(req));
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->attr.ino, 42u);
}

// Virtual time one round trip through `conn` charges, served by a manual
// server thread on the shared timeline.
uint64_t MeasureRoundTrip(SimClock& clock, FuseConn& conn) {
  std::thread server([&] {
    auto req = PollRequest(conn);
    conn.WriteReply(req->unique, FuseReply{});
  });
  uint64_t before = clock.NowNs();
  (void)conn.SendAndWait(FuseRequest{});
  server.join();
  return clock.NowNs() - before;
}

TEST(FuseConnTest, RoundTripChargesVirtualTime) {
  SimClock clock;
  CostModel costs;
  auto forget_charge = [&](FuseConn& conn) {
    FuseRequest forget;
    forget.opcode = FuseOpcode::kForget;
    uint64_t before = clock.NowNs();
    conn.SendNoReply(std::move(forget));
    return clock.NowNs() - before;
  };

  // A fresh connection runs the paper profile: the wakeup round trip, and
  // half of one for a fire-and-forget submission.
  FuseConn paper(&clock, &costs);
  EXPECT_EQ(MeasureRoundTrip(clock, paper), costs.fuse_round_trip_ns);
  EXPECT_EQ(forget_charge(paper), costs.fuse_round_trip_ns / 2);
  paper.Abort();

  // The ring profile: SQE fill + doorbell + CQE publish; a FORGET is one
  // SQE fill and rings no doorbell.
  FuseConn ring(&clock, &costs);
  ASSERT_GT(ring.ConfigureRing(kDefaultRingDepth), 0u);
  EXPECT_EQ(MeasureRoundTrip(clock, ring),
            costs.fuse_ring_sqe_ns + costs.fuse_ring_doorbell_ns + costs.fuse_ring_cqe_ns);
  EXPECT_EQ(forget_charge(ring), costs.fuse_ring_sqe_ns);
  ring.Abort();
}

TEST(FuseConnTest, ErrorRepliesBecomeStatus) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::thread server([&] {
    auto req = PollRequest(conn);
    conn.WriteReply(req->unique, FuseReply::Error(ENOENT));
  });
  auto reply = conn.SendAndWait(FuseRequest{});
  server.join();
  EXPECT_EQ(reply.error(), ENOENT);
}

TEST(FuseConnTest, AbortWakesWaitersWithEnotconn) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::thread aborter([&] {
    (void)PollRequest(conn);  // take the request, never answer
    conn.Abort();
  });
  auto reply = conn.SendAndWait(FuseRequest{});
  aborter.join();
  EXPECT_EQ(reply.error(), ENOTCONN);
  // Further sends fail immediately.
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  // Server readers see end-of-stream.
  EXPECT_FALSE(PollRequest(conn).has_value());
}

TEST(FuseConnTest, NoReplyRequestsDoNotBlock) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  FuseRequest forget;
  forget.opcode = FuseOpcode::kForget;
  conn.SendNoReply(std::move(forget));  // must not deadlock
  auto req = PollRequest(conn);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->opcode, FuseOpcode::kForget);
  EXPECT_EQ(req->unique, 0u);  // no reply slot
  conn.Abort();
}

TEST(FuseConnTest, ContentionCostGrowsWithReaders) {
  SimClock clock;
  CostModel costs;
  auto with_readers = [&](int readers, RingProfile profile) {
    auto conn = std::make_unique<FuseConn>(&clock, &costs);
    if (profile == RingProfile::kRing) {
      EXPECT_GT(conn->ConfigureRing(kDefaultRingDepth), 0u);
    }
    conn->SetServerParallelism(static_cast<uint32_t>(readers));
    return conn;
  };
  // Paper profile (Figure 4): every server thread homed on the channel past
  // the first adds the contention premium to each round trip.
  EXPECT_EQ(MeasureRoundTrip(clock, *with_readers(1, RingProfile::kPaper)),
            costs.fuse_round_trip_ns);
  EXPECT_EQ(MeasureRoundTrip(clock, *with_readers(8, RingProfile::kPaper)),
            costs.fuse_round_trip_ns + 7 * costs.fuse_thread_contention_ns);
  // Ring profile: producers and the reaping consumer never contend on a
  // queue lock, so the readers add nothing.
  const uint64_t ring_trip =
      costs.fuse_ring_sqe_ns + costs.fuse_ring_doorbell_ns + costs.fuse_ring_cqe_ns;
  EXPECT_EQ(MeasureRoundTrip(clock, *with_readers(1, RingProfile::kRing)), ring_trip);
  EXPECT_EQ(MeasureRoundTrip(clock, *with_readers(8, RingProfile::kRing)), ring_trip);
}

// --- FuseFs behaviour through a real CntrFS server ---

class FuseFsTest : public ::testing::Test {
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
        FuseServerPoolOptions::Dedicated(2, &kernel_->metrics()));
    pool_->AddMount(dev->second, cntrfs_.get());
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = MountFuse(kernel_.get(), *kernel_->init(), "/m", dev->second, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fuse_fs_ = std::move(fs).value();
    proc_ = kernel_->Fork(*kernel_->init(), "app");
  }

  void TearDown() override {
    if (fuse_fs_ != nullptr) {
      fuse_fs_->Shutdown();
    }
    pool_.reset();
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServerPool> pool_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

TEST_F(FuseFsTest, WritebackDefersServerWrites) {
  Mount(FuseMountOptions::Optimized());
  auto fd = kernel_->Open(*proc_, "/m/tmp/wb", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(64 * 1024, 'w');
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
  EXPECT_EQ(cntrfs_->stats().writes, 0u) << "writeback cache must absorb the write";
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  EXPECT_GT(cntrfs_->stats().writes, 0u) << "fsync must flush to the server";
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
}

TEST_F(FuseFsTest, SyncModeWritesThroughImmediately) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.writeback_cache = false;
  Mount(opts);
  auto fd = kernel_->Open(*proc_, "/m/tmp/sync", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "now", 3).ok());
  EXPECT_GT(cntrfs_->stats().writes, 0u) << "sync mode must hit the server per write";
}

TEST_F(FuseFsTest, KeepCacheServesRereadsWithoutServer) {
  Mount(FuseMountOptions::Optimized());
  // Seed a file directly on the host.
  auto seed = kernel_->Open(*kernel_->init(), "/tmp/warm", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  ASSERT_TRUE(seed.ok());
  std::string data(16 * 1024, 'k');
  ASSERT_TRUE(kernel_->Write(*kernel_->init(), seed.value(), data.data(), data.size()).ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), seed.value()).ok());

  auto read_once = [&] {
    auto fd = kernel_->Open(*proc_, "/m/tmp/warm", kernel::kORdOnly);
    ASSERT_TRUE(fd.ok());
    char buf[16 * 1024];
    ASSERT_TRUE(kernel_->Read(*proc_, fd.value(), buf, sizeof(buf)).ok());
    ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  };
  read_once();
  uint64_t after_first = cntrfs_->stats().reads;
  read_once();
  EXPECT_EQ(cntrfs_->stats().reads, after_first)
      << "second open must be served from the kernel page cache";
}

TEST_F(FuseFsTest, NoKeepCacheInvalidatesOnOpen) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.keep_cache = false;
  Mount(opts);
  auto seed = kernel_->Open(*kernel_->init(), "/tmp/cold", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  ASSERT_TRUE(seed.ok());
  std::string data(16 * 1024, 'c');
  ASSERT_TRUE(kernel_->Write(*kernel_->init(), seed.value(), data.data(), data.size()).ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), seed.value()).ok());

  auto read_once = [&] {
    auto fd = kernel_->Open(*proc_, "/m/tmp/cold", kernel::kORdOnly);
    ASSERT_TRUE(fd.ok());
    char buf[16 * 1024];
    ASSERT_TRUE(kernel_->Read(*proc_, fd.value(), buf, sizeof(buf)).ok());
    ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  };
  read_once();
  uint64_t after_first = cntrfs_->stats().reads;
  read_once();
  EXPECT_GT(cntrfs_->stats().reads, after_first)
      << "every open must invalidate and re-fetch without FOPEN_KEEP_CACHE";
}

TEST_F(FuseFsTest, LookupsDeduplicateHardlinksToOneNodeid) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_TRUE(kernel_->Open(*proc_, "/m/tmp/orig", kernel::kOWrOnly | kernel::kOCreat, 0644)
                  .ok());
  ASSERT_TRUE(kernel_->Link(*proc_, "/m/tmp/orig", "/m/tmp/alias").ok());
  kernel_->dcache().Clear();
  auto a = kernel_->Resolve(*proc_, "/m/tmp/orig");
  auto b = kernel_->Resolve(*proc_, "/m/tmp/alias");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->inode.get(), b->inode.get());
}

TEST_F(FuseFsTest, AbortedConnectionFailsOperationsCleanly) {
  Mount(FuseMountOptions::Optimized());
  fuse_fs_->Shutdown();
  auto fd = kernel_->Open(*proc_, "/m/tmp/after-abort", kernel::kOWrOnly | kernel::kOCreat,
                          0644);
  // The transport speaks ENOTCONN, but the filesystem boundary degrades an
  // aborted mount to EIO — the same error a dead disk produces.
  EXPECT_EQ(fd.error(), EIO);
}

TEST_F(FuseFsTest, RepeatedEnoentLookupsServeFromNegativeDentries) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/nope").error(), ENOENT);
  uint64_t after_first = cntrfs_->stats().lookups;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/nope").error(), ENOENT);
  }
  EXPECT_EQ(cntrfs_->stats().lookups, after_first)
      << "repeated misses within the entry TTL must not round-trip";
  EXPECT_GT(kernel_->dcache().stats().negative_hits, 0u);
}

TEST_F(FuseFsTest, LocalCreateBuriesNegativeDentry) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/soon").error(), ENOENT);
  auto fd = kernel_->Open(*proc_, "/m/tmp/soon", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/soon").ok())
      << "a local create must overwrite the cached ENOENT immediately";
}

TEST_F(FuseFsTest, OCreatOpensServerSideFileDespiteStaleNegativeDentry) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/raced").error(), ENOENT);  // caches negative
  // Created underneath the mount within the negative entry's TTL.
  auto seed = kernel_->Open(*kernel_->init(), "/tmp/raced", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(kernel_->Write(*kernel_->init(), seed.value(), "body", 4).ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), seed.value()).ok());
  // POSIX: O_CREAT without O_EXCL must open the existing file, not EEXIST.
  auto fd = kernel_->Open(*proc_, "/m/tmp/raced", kernel::kORdWr | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  char buf[8] = {};
  auto n = kernel_->Read(*proc_, fd.value(), buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "body");
  // O_EXCL still reports the (real) existence.
  EXPECT_EQ(kernel_->Open(*proc_, "/m/tmp/raced",
                          kernel::kOWrOnly | kernel::kOCreat | kernel::kOExcl, 0644)
                .error(),
            EEXIST);
}

TEST_F(FuseFsTest, NegativeDentryExpiresSoServerSideCreatesAppear) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/later").error(), ENOENT);
  // Created underneath the mount (the server's view), bypassing the kernel
  // dcache hooks: visible only after the negative entry's TTL runs out —
  // exactly Linux's FUSE entry_timeout semantics.
  auto fd = kernel_->Open(*kernel_->init(), "/tmp/later", kernel::kOWrOnly | kernel::kOCreat,
                          0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  kernel_->clock().Advance(2'000'000'000);  // outlive the 1s entry TTL
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/later").ok());
}

TEST_F(FuseFsTest, StatfsForwardsToServer) {
  Mount(FuseMountOptions::Optimized());
  auto statfs = kernel_->Statfs(*proc_, "/m");
  ASSERT_TRUE(statfs.ok());
  EXPECT_EQ(statfs->fs_type, "tmpfs");  // the server's root filesystem
}

}  // namespace
}  // namespace cntr::fuse
