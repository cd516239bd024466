// Submission-ring transport tests: profile negotiation and fallback, ring
// replacement under a waiting reader, out-of-order completion to the right
// waiters, SQ-full backpressure vs. the admission gate, FORGET ordering
// across a reap boundary, interrupt and deadline expiry of ring-resident
// requests, abort with entries in flight, multi-reap batch accounting, a
// queued-depth count that never wraps under concurrent reaps, the paper
// profile's pinned timeline, splice payloads over rings, and the ring fault
// points degrading cleanly.
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
#include "tests/fuse/poll_requests.h"

namespace cntr::fuse {
namespace {

// A pid that routes to channel `want` (pid hashing is sticky, so picking
// pids is picking channels).
kernel::Pid PidOnChannel(const FuseConn& conn, size_t want, kernel::Pid not_before = 1) {
  for (kernel::Pid pid = not_before;; ++pid) {
    if (conn.RouteChannel(pid) == want) {
      return pid;
    }
  }
}

FuseRequest GetattrFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.nodeid = kFuseRootId;
  req.pid = pid;
  return req;
}

FuseRequest ForgetFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kForget;
  req.pid = pid;
  req.forgets.push_back(FuseRequest::Forget{7, 1});
  return req;
}

// --- conn-level: the ring protocol itself ---

TEST(RingTransportTest, ConfigureRingClampsAndIsOneShot) {
  SimClock clock;
  CostModel costs;
  {
    FuseConn conn(&clock, &costs, 2);
    // A fresh connection runs the paper profile on default-depth rings.
    EXPECT_EQ(conn.ring_profile(), RingProfile::kPaper);
    EXPECT_EQ(conn.ring_depth(), kDefaultRingDepth);
    // Depth rounds up to a power of two within [kMinRingDepth, kMaxRingDepth].
    EXPECT_EQ(conn.ConfigureRing(10), 16u);
    EXPECT_EQ(conn.ring_profile(), RingProfile::kRing);
    EXPECT_EQ(conn.ring_depth(), 16u);
    // The negotiated ring is one-shot: its depth and profile stick.
    EXPECT_EQ(conn.ConfigureRing(256), 16u);
    EXPECT_EQ(conn.ConfigureRing(256, kDefaultRingSpinBudget, RingProfile::kPaper), 16u);
    EXPECT_EQ(conn.ring_profile(), RingProfile::kRing);
    conn.Abort();
  }
  {
    FuseConn conn(&clock, &costs, 1);
    EXPECT_EQ(conn.ConfigureRing(0), 0u) << "depth 0 keeps the current rings";
    EXPECT_EQ(conn.ring_depth(), kDefaultRingDepth);
    // A mount that keeps the paper profile still sizes its rings: the depth
    // is the in-flight ceiling under either profile.
    EXPECT_EQ(conn.ConfigureRing(1, kDefaultRingSpinBudget, RingProfile::kPaper),
              kMinRingDepth);
    EXPECT_EQ(conn.ring_profile(), RingProfile::kPaper);
    EXPECT_EQ(conn.ConfigureRing(1 << 20), kMaxRingDepth)
        << "clamped to the width of the slot index";
    EXPECT_EQ(conn.ring_profile(), RingProfile::kRing);
    EXPECT_EQ(conn.ConfigureRing(1), kMaxRingDepth)
        << "second switch refused: the established depth sticks";
    conn.Abort();
  }
  {
    // Only a quiet connection has its rings replaced: a queued entry would
    // be stranded on the old ring.
    FuseConn conn(&clock, &costs, 1);
    conn.SendNoReply(ForgetFrom(5));
    EXPECT_EQ(conn.ConfigureRing(16), 0u);
    EXPECT_EQ(conn.ring_profile(), RingProfile::kPaper);
    EXPECT_EQ(conn.ring_depth(), kDefaultRingDepth);
    conn.Abort();
  }
}

TEST(RingTransportTest, ParkedReaderPicksUpReplacedRings) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 2);
  // A reader waits on the fresh connection's rings; replacing them must not
  // free what it scans, and its next scan must find the new rings' traffic.
  std::atomic<bool> got{false};
  std::thread reader([&] {
    std::vector<FuseRequest> batch = PollRequests(conn);
    got.store(!batch.empty() && batch.front().opcode == FuseOpcode::kForget);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(conn.ConfigureRing(32), 32u);
  conn.SendNoReply(ForgetFrom(PidOnChannel(conn, 1)));
  reader.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(conn.queued_depth(), 0u);
  conn.Abort();
}

TEST(RingTransportTest, OutOfOrderCompletionReachesTheRightWaiters) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  constexpr int kClients = 4;
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      kernel::Pid pid = 100 + c;
      auto reply = conn.SendAndWait(GetattrFrom(pid));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      // The server tagged each reply with its request's pid: delivery into
      // the wrong completion slot would surface as a cross-wired tag.
      if (reply->data == std::to_string(pid)) {
        correct.fetch_add(1);
      }
    });
  }
  // Collect all four requests before answering, then reply in reverse
  // submission order: completions land out of order while every waiter is
  // still live.
  std::vector<FuseRequest> pending;
  while (pending.size() < kClients) {
    std::vector<FuseRequest> batch = PollRequests(conn);
    ASSERT_FALSE(batch.empty());
    for (FuseRequest& req : batch) {
      pending.push_back(std::move(req));
    }
  }
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    FuseReply reply;
    reply.data = std::to_string(it->pid);
    conn.WriteReply(it->unique, std::move(reply));
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(correct.load(), kClients);
  EXPECT_EQ(conn.stats().replies, static_cast<uint64_t>(kClients));
  conn.Abort();
}

TEST(RingTransportTest, SqFullBackpressureBlocksSubmittersUntilTheServerDrains) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_EQ(conn.ConfigureRing(kMinRingDepth), kMinRingDepth);

  // 3x more concurrent submitters than the ring has slots: the excess must
  // park (bounded waits) and land once the server starts reaping — no
  // errors, no spinning forever, and the overflow is visible in the stats.
  constexpr int kClients = 3 * static_cast<int>(kMinRingDepth);
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto reply = conn.SendAndWait(GetattrFrom(200 + c));
      if (reply.ok()) {
        ok.fetch_add(1);
      }
    });
  }
  // Let the ring actually fill before serving.
  while (conn.channel_queue_depth(0) < kMinRingDepth) {
    std::this_thread::yield();
  }
  std::thread server([&] {
    int served = 0;
    while (served < kClients) {
      std::vector<FuseRequest> batch = PollRequests(conn);
      ASSERT_FALSE(batch.empty());
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
  EXPECT_GE(conn.stats().sq_overflows, 1u)
      << "submitters outnumbered ring slots 3:1; someone must have hit a full ring";
  EXPECT_EQ(conn.stats().admission_waits, 0u);
  conn.Abort();
}

TEST(RingTransportTest, AdmissionGateFiresBeforeTheRingEverFills) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  conn.SetMaxBackground(2);  // cap far below the ring depth

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto reply = conn.SendAndWait(GetattrFrom(300 + c));
      if (reply.ok()) {
        ok.fetch_add(1);
      }
    });
  }
  std::thread server([&] {
    int served = 0;
    while (served < kClients) {
      std::vector<FuseRequest> batch = PollRequests(conn);
      ASSERT_FALSE(batch.empty());
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
  EXPECT_GE(conn.stats().admission_waits, 1u) << "the gate must have blocked someone";
  EXPECT_EQ(conn.stats().sq_overflows, 0u)
      << "with in-flight capped at 2 the 64-deep ring can never fill";
  conn.Abort();
}

TEST(RingTransportTest, ForgetStaysOrderedBehindLookupAcrossOneReap) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  std::thread client([&] {
    FuseRequest lookup;
    lookup.opcode = FuseOpcode::kLookup;
    lookup.nodeid = kFuseRootId;
    lookup.name = "child";
    lookup.pid = 42;
    auto reply = conn.SendAndWait(std::move(lookup));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  });
  while (conn.channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  // The FORGET that balances the LOOKUP, same pid: the SQ is FIFO, so one
  // reap must deliver both in submission order.
  conn.SendNoReply(ForgetFrom(42));
  ASSERT_EQ(conn.channel_queue_depth(0), 2u);

  std::vector<FuseRequest> batch = PollRequests(conn);
  ASSERT_EQ(batch.size(), 2u) << "one reap drains the whole burst";
  EXPECT_EQ(batch[0].opcode, FuseOpcode::kLookup);
  EXPECT_EQ(batch[1].opcode, FuseOpcode::kForget);
  conn.WriteReply(batch[0].unique, FuseReply{});
  client.join();

  auto stats = conn.stats();
  EXPECT_GE(stats.max_reqs_per_reap, 2u);
  EXPECT_GE(stats.reaped_requests, 2u);
  EXPECT_GE(stats.reaps, 1u);
  conn.Abort();
}

TEST(RingTransportTest, InterruptResolvesARingResidentRequest) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  std::atomic<int> eintr{0};
  std::thread client([&] {
    auto reply = conn.SendAndWait(GetattrFrom(77));
    if (reply.error() == EINTR) {
      eintr.fetch_add(1);
    }
  });
  while (conn.channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  // Nobody has reaped it: the SQE is still ring-resident. The killed-client
  // path resolves it without the server's help.
  EXPECT_EQ(conn.InterruptPid(77), 1u);
  client.join();
  EXPECT_EQ(eintr.load(), 1);
  EXPECT_GE(conn.stats().interrupts, 1u);
  // The dead SQE is dropped at reap time, not delivered.
  conn.Abort();
  EXPECT_TRUE(PollRequests(conn).empty());
}

TEST(RingTransportTest, DeadlineExpiresARingResidentRequest) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  // Tight virtual deadline, short real grace: the sweeper expires the
  // never-served request even though no server thread exists at all.
  conn.SetRequestDeadline(/*virtual_ns=*/50'000, /*real_grace_ms=*/5);

  auto reply = conn.SendAndWait(GetattrFrom(88));
  EXPECT_EQ(reply.error(), ETIMEDOUT);
  EXPECT_GE(conn.stats().timeouts, 1u);
  conn.Abort();
}

TEST(RingTransportTest, AbortWakesRingWaitersOnAllChannels) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  std::atomic<int> enotconn{0};
  std::vector<std::thread> clients;
  for (size_t ch = 0; ch < 4; ++ch) {
    kernel::Pid pid = PidOnChannel(conn, ch);
    clients.emplace_back([&, pid] {
      auto reply = conn.SendAndWait(GetattrFrom(pid));
      if (reply.error() == ENOTCONN) {
        enotconn.fetch_add(1);
      }
    });
  }
  for (size_t ch = 0; ch < 4; ++ch) {
    while (conn.channel_queue_depth(ch) == 0) {
      std::this_thread::yield();
    }
  }
  conn.Abort();
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(enotconn.load(), 4);
  // Post-abort: sends fail fast, the rings are drained, readers exit.
  EXPECT_EQ(conn.SendAndWait(GetattrFrom(1)).error(), ENOTCONN);
  EXPECT_TRUE(PollRequests(conn).empty());
  EXPECT_EQ(conn.lane_bytes_in_flight(), 0u);
}

TEST(RingTransportTest, MultiReapDrainsAForgetBurstInOnePass) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  constexpr size_t kBurst = 16;
  for (size_t i = 0; i < kBurst; ++i) {
    conn.SendNoReply(ForgetFrom(9));
  }
  std::vector<FuseRequest> batch = PollRequests(conn);
  EXPECT_EQ(batch.size(), kBurst);
  auto stats = conn.stats();
  EXPECT_GE(stats.max_reqs_per_reap, kBurst);
  EXPECT_GE(stats.reaped_requests, kBurst);
  EXPECT_EQ(conn.stats().forgets, kBurst);
  conn.Abort();
}

// The paper's server thread takes one request per read of /dev/fuse, and
// the cap lives in the reap itself, so a pool worker's non-blocking visit
// honours it too; the ring profile still drains the burst.
TEST(RingTransportTest, PaperProfileReapsOneRequestPerPoolVisit) {
  SimClock clock;
  CostModel costs;
  for (RingProfile profile : {RingProfile::kPaper, RingProfile::kRing}) {
    FuseConn conn(&clock, &costs, 1);
    if (profile == RingProfile::kRing) {
      ASSERT_GT(conn.ConfigureRing(64), 0u);
    }
    for (int i = 0; i < 3; ++i) {
      conn.SendNoReply(ForgetFrom(9));
    }
    EXPECT_EQ(conn.TryReadRequestBatch(0).size(), profile == RingProfile::kPaper ? 1u : 3u);
    conn.Abort();
  }
}

TEST(RingTransportTest, QueuedDepthNeverWrapsUnderConcurrentReaps) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_EQ(conn.ConfigureRing(64), 64u);

  // Every SQE is counted before it is published, so a reaper's decrement
  // never runs ahead of the submitter's increment: the depth stays within
  // the ring plus one in-flight push per submitter, and never wraps.
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 20'000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> worst{0};
  std::thread sampler([&] {
    while (!done.load()) {
      uint64_t d = conn.queued_depth();
      uint64_t w = worst.load();
      while (d > w && !worst.compare_exchange_weak(w, d)) {
      }
    }
  });
  std::atomic<int> reaped{0};
  std::thread reaper([&] {
    while (reaped.load() < kSubmitters * kPerSubmitter) {
      reaped.fetch_add(static_cast<int>(conn.TryReadRequestBatch(0).size()));
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        conn.SendNoReply(ForgetFrom(10 + t));
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  reaper.join();
  done.store(true);
  sampler.join();
  EXPECT_LE(worst.load(), 64u + kSubmitters);
  EXPECT_EQ(conn.queued_depth(), 0u);
  conn.Abort();
}

// --- mount-level: negotiation, fallback, splice composition, faults ---

class RingMountTest : public ::testing::Test {
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
    conn_ = dev->second;
    pool_ = std::make_unique<FuseServerPool>(
        FuseServerPoolOptions::Dedicated(2, &kernel_->metrics()));
    pool_->AddMount(conn_, cntrfs_.get());
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = MountFuse(kernel_.get(), *kernel_->init(), "/m", conn_, opts);
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

  void Remount(FuseMountOptions opts) {
    TearDown();
    fuse_fs_.reset();
    conn_.reset();
    cntrfs_.reset();
    proc_.reset();
    server_proc_.reset();
    kernel_.reset();
    Mount(opts);
  }

  void SeedFile(const std::string& path, const std::string& data) {
    auto fd = kernel_->Open(*kernel_->init(), path,
                            kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
    ASSERT_TRUE(fd.ok());
    size_t off = 0;
    while (off < data.size()) {
      auto n = kernel_->Write(*kernel_->init(), fd.value(), data.data() + off,
                              data.size() - off);
      ASSERT_TRUE(n.ok());
      off += n.value();
    }
    ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  }

  std::string ReadThroughMount(const std::string& path, size_t size) {
    auto fd = kernel_->Open(*proc_, path, kernel::kORdOnly);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string out(size, '\0');
    size_t off = 0;
    while (off < size) {
      auto n = kernel_->Read(*proc_, fd.value(), out.data() + off, size - off);
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || n.value() == 0) {
        break;
      }
      off += n.value();
    }
    out.resize(off);
    EXPECT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
    return out;
  }

  // One deterministic single-client workload; returns the virtual duration.
  uint64_t RunWorkload() {
    uint64_t start = kernel_->clock().NowNs();
    std::string data(256 * 1024, 'r');
    auto fd = kernel_->Open(*proc_, "/m/tmp/det.dat",
                            kernel::kORdWr | kernel::kOCreat | kernel::kOTrunc, 0644);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
    EXPECT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
    char buf[4096];
    EXPECT_TRUE(kernel_->Pread(*proc_, fd.value(), buf, sizeof(buf), 0).ok());
    EXPECT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
    EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/det.dat").ok());
    return kernel_->clock().NowNs() - start;
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::shared_ptr<FuseConn> conn_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServerPool> pool_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

TEST_F(RingMountTest, NegotiationIsOnByDefaultAndOptOutStaysLegacy) {
  Mount(FuseMountOptions::Optimized());
  EXPECT_TRUE(fuse_fs_->ring_enabled());
  EXPECT_EQ(conn_->ring_profile(), RingProfile::kRing);
  EXPECT_EQ(conn_->ring_depth(), kDefaultRingDepth);
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok());
  EXPECT_GE(conn_->stats().reaped_requests, 1u);

  // Mount-side opt-out: the flag is never offered, and the connection keeps
  // the paper profile it was born with, on rings of the mount's depth.
  FuseMountOptions off = FuseMountOptions::Optimized();
  off.ring_enabled = false;
  off.ring_depth = 128;
  Remount(off);
  EXPECT_FALSE(fuse_fs_->ring_enabled());
  EXPECT_EQ(conn_->ring_profile(), RingProfile::kPaper);
  EXPECT_EQ(conn_->ring_depth(), 128u)
      << "ring_depth is the in-flight ceiling under the paper profile too";
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok());
  auto stats = conn_->stats();
  EXPECT_GE(stats.reaped_requests, 1u) << "both profiles ride the same rings";
  EXPECT_EQ(stats.max_reqs_per_reap, 1u) << "paper-profile reaps take one request";
  EXPECT_EQ(stats.spin_parks, 0u) << "paper-profile waiters park without spinning";
}

TEST_F(RingMountTest, PaperConfigStaysOnWakeupPathBitIdentically) {
  // Paper() and Baseline() keep the paper profile, whose charges are the
  // wakeup handshake's: each workload's virtual duration is pinned to the
  // value a dedicated wakeup-handshake transport produces on the stock
  // CostModel, so the Figure 2/4 reproductions keep their numbers.
  Mount(FuseMountOptions::Paper());
  EXPECT_FALSE(fuse_fs_->ring_enabled());
  EXPECT_EQ(conn_->ring_profile(), RingProfile::kPaper);
  EXPECT_EQ(RunWorkload(), 176'950u);
  EXPECT_EQ(conn_->stats().spin_parks, 0u);

  Remount(FuseMountOptions::Baseline());
  EXPECT_FALSE(fuse_fs_->ring_enabled());
  EXPECT_EQ(conn_->ring_profile(), RingProfile::kPaper);
  EXPECT_EQ(RunWorkload(), 224'100u);
}

TEST_F(RingMountTest, SplicePayloadsRideTheRingsAndLanesDrain) {
  std::string want(512 * 1024 + 1234, '\0');
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<char>('A' + (i / 7 + i / 4096) % 23);
  }
  Mount(FuseMountOptions::Optimized());
  ASSERT_TRUE(fuse_fs_->ring_enabled());
  ASSERT_TRUE(fuse_fs_->splice_read_enabled());
  SeedFile("/data/ring-splice.dat", want);
  EXPECT_EQ(ReadThroughMount("/m/data/ring-splice.dat", want.size()), want);
  auto stats = conn_->stats();
  EXPECT_GT(stats.spliced_bytes, 0u) << "payload pages rode the lanes";
  EXPECT_GE(stats.reaps, 1u) << "requests rode the rings";
  EXPECT_EQ(conn_->lane_bytes_in_flight(), 0u) << "lanes drained after delivery";
}

TEST_F(RingMountTest, RingFaultPointsDegradeCleanly) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.request_deadline_ns = 200'000;
  opts.deadline_grace_ms = 20;
  opts.abort_after_timeouts = 2;

  for (const char* point : {"fuse.conn.sq_overflow", "fuse.ring.doorbell_lost",
                            "fuse.ring.reap"}) {
    SCOPED_TRACE(point);
    Remount(opts);
    ASSERT_TRUE(fuse_fs_->ring_enabled());
    fault::FaultSpec spec;
    spec.error = ENOBUFS;
    spec.fail_at = 1;
    spec.one_shot = true;
    kernel_->faults().Arm(point, spec);
    // Ops may see an error (sq_overflow fails the submission) or a stall
    // that self-heals (lost doorbell, poisoned reap pass) — none may hang.
    for (int i = 0; i < 4; ++i) {
      (void)kernel_->Stat(*proc_, "/m/tmp");
    }
    kernel_->faults().DisarmAll();
    EXPECT_EQ(conn_->lane_bytes_in_flight(), 0u);
    // The mount still serves.
    EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok());
  }
}

}  // namespace
}  // namespace cntr::fuse
