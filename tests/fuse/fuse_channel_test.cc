// Multi-queue /dev/fuse channel tests: sticky pid routing, FORGET ordering
// behind the caller's lookups, abort with waiters pending across channels,
// idle-worker stealing, delivered-only reply accounting, virtual channel
// occupancy across parallel lanes, and the CNTRFS node-table shards under
// concurrent LOOKUP/FORGET balance.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
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

FuseRequest ForgetFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kForget;
  req.pid = pid;
  req.forgets.push_back(FuseRequest::Forget{7, 1});
  return req;
}

TEST(FuseChannelTest, RoutingIsStickyPerPid) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  ASSERT_EQ(conn.num_channels(), 4u);

  kernel::Pid pid = PidOnChannel(conn, 2);
  // Same pid, many requests: all land on one channel.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(conn.RouteChannel(pid), 2u);
    conn.SendNoReply(ForgetFrom(pid));
  }
  EXPECT_EQ(conn.channel_queue_depth(2), 3u);
  EXPECT_EQ(conn.channel_requests(2), 3u);
  for (size_t ch : {0u, 1u, 3u}) {
    EXPECT_EQ(conn.channel_queue_depth(ch), 0u) << "channel " << ch;
  }
  conn.Abort();
}

TEST(FuseChannelTest, ForgetStaysOrderedBehindLookupOnSameChannel) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  kernel::Pid pid = PidOnChannel(conn, 1);

  std::thread client([&] {
    FuseRequest lookup;
    lookup.opcode = FuseOpcode::kLookup;
    lookup.nodeid = kFuseRootId;
    lookup.name = "child";
    lookup.pid = pid;
    auto reply = conn.SendAndWait(std::move(lookup));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  });
  // Wait for the LOOKUP to sit in the queue, then send the FORGET that
  // balances it from the same pid: FIFO on the sticky channel guarantees the
  // FORGET is dequeued after the LOOKUP (processing may overlap across
  // workers, which the full-balance forget semantics make safe).
  while (conn.channel_queue_depth(1) == 0) {
    std::this_thread::yield();
  }
  conn.SendNoReply(ForgetFrom(pid));
  ASSERT_EQ(conn.channel_queue_depth(1), 2u);

  auto first = PollRequest(conn, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->opcode, FuseOpcode::kLookup);
  EXPECT_EQ(first->channel, 1u);
  auto second = PollRequest(conn, 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->opcode, FuseOpcode::kForget);
  EXPECT_EQ(second->channel, 1u);

  conn.WriteReply(first->unique, FuseReply{});
  client.join();
  conn.Abort();
}

TEST(FuseChannelTest, AbortWakesPendingWaitersOnAllChannels) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);

  std::atomic<int> enotconn{0};
  std::vector<std::thread> clients;
  for (size_t ch = 0; ch < 4; ++ch) {
    kernel::Pid pid = PidOnChannel(conn, ch);
    clients.emplace_back([&, pid] {
      FuseRequest req;
      req.opcode = FuseOpcode::kGetattr;
      req.pid = pid;
      auto reply = conn.SendAndWait(std::move(req));
      if (reply.error() == ENOTCONN) {
        enotconn.fetch_add(1);
      }
    });
  }
  // All four requests pending (one per channel), nobody serving.
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
  // Post-abort: sends fail fast, readers drain what is queued then stop.
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  for (int i = 0; i < 4; ++i) {
    (void)PollRequest(conn, 0);  // the four aborted requests drain
  }
  EXPECT_FALSE(PollRequest(conn, 0).has_value());
}

TEST(FuseChannelTest, IdleWorkerStealsFromHotSiblingChannel) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  kernel::Pid pid = PidOnChannel(conn, 0);
  for (int i = 0; i < 3; ++i) {
    conn.SendNoReply(ForgetFrom(pid));
  }
  // A worker homed on a different channel drains the hot one.
  for (int i = 0; i < 3; ++i) {
    auto req = PollRequest(conn, /*start_channel=*/2);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->channel, 0u);
  }
  EXPECT_EQ(conn.channel_queue_depth(0), 0u);
  conn.Abort();
}

TEST(FuseChannelTest, RepliesCountOnlyWhenDelivered) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 2);
  std::thread server([&] {
    auto req = PollRequest(conn);
    conn.WriteReply(req->unique, FuseReply{});
  });
  ASSERT_TRUE(conn.SendAndWait(FuseRequest{}).ok());
  server.join();
  EXPECT_EQ(conn.stats().replies, 1u);
  // A reply whose waiter is gone (forget, aborted) is not delivered and
  // must not inflate the stat.
  conn.WriteReply((uint64_t{99} << FuseConn::kChannelBits) | 1, FuseReply{});
  EXPECT_EQ(conn.stats().replies, 1u);
  conn.Abort();
}

TEST(FuseChannelTest, ChannelCountClampsAndFreezesUnderTraffic) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  EXPECT_EQ(conn.num_channels(), 1u);
  EXPECT_EQ(conn.ConfigureChannels(0), 1u);
  EXPECT_EQ(conn.ConfigureChannels(FuseConn::kMaxChannels * 2), FuseConn::kMaxChannels);
  EXPECT_EQ(conn.ConfigureChannels(4), 4u);
  // The first request freezes the shape: its unique names its channel.
  conn.SendNoReply(ForgetFrom(1));
  EXPECT_EQ(conn.ConfigureChannels(8), 4u);
  // Drained, the connection still keeps the shape it was served with.
  ASSERT_TRUE(PollRequest(conn, conn.RouteChannel(1)).has_value());
  EXPECT_EQ(conn.queued_depth(), 0u);
  EXPECT_EQ(conn.ConfigureChannels(8), 4u);
  EXPECT_EQ(conn.num_channels(), 4u);
  conn.Abort();
}

TEST(FuseChannelTest, ContentionPremiumIsPerChannel) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 2);
  // Five workers homed i % 2: channel 0 has three readers, channel 1 two.
  conn.SetServerParallelism(5);
  EXPECT_EQ(conn.ChannelReaders(0), 3u);
  EXPECT_EQ(conn.ChannelReaders(1), 2u);

  auto measure = [&](kernel::Pid pid) {
    std::thread server([&] {
      auto req = PollRequest(conn, conn.RouteChannel(pid));
      conn.WriteReply(req->unique, FuseReply{});
    });
    FuseRequest req;
    req.pid = pid;
    uint64_t before = clock.NowNs();
    (void)conn.SendAndWait(std::move(req));
    server.join();
    return clock.NowNs() - before;
  };
  uint64_t crowded = measure(PidOnChannel(conn, 0));
  uint64_t quiet = measure(PidOnChannel(conn, 1));
  EXPECT_EQ(crowded, costs.fuse_round_trip_ns + 2 * costs.fuse_thread_contention_ns)
      << "premium must scale with the readers of the request's channel only";
  EXPECT_EQ(quiet, costs.fuse_round_trip_ns + costs.fuse_thread_contention_ns);
  conn.Abort();
}

TEST(FuseChannelTest, ChannelOccupancySerializesParallelLanes) {
  SimClock clock;
  CostModel costs;

  auto run = [&](size_t channels, kernel::Pid pid_a, kernel::Pid pid_b) {
    FuseConn conn(&clock, &costs, channels);
    std::thread server([&] {
      while (auto req = PollRequest(conn)) {
        conn.WriteReply(req->unique, FuseReply{});
      }
    });
    auto lane_a = std::make_shared<SimClock::Lane>();
    auto lane_b = std::make_shared<SimClock::Lane>();
    {
      SimClock::LaneScope scope(lane_a);
      FuseRequest req;
      req.pid = pid_a;
      EXPECT_TRUE(conn.SendAndWait(std::move(req)).ok());
    }
    {
      SimClock::LaneScope scope(lane_b);
      FuseRequest req;
      req.pid = pid_b;
      EXPECT_TRUE(conn.SendAndWait(std::move(req)).ok());
    }
    conn.Abort();
    server.join();
    return lane_b->local_ns.load();
  };

  // One channel: lane B arrives while the channel is virtually occupied by
  // lane A's request and waits it out — the single-queue plateau.
  FuseConn probe(&clock, &costs, 2);
  kernel::Pid pid_a = PidOnChannel(probe, 0);
  kernel::Pid pid_b = PidOnChannel(probe, 1);
  uint64_t shared_queue = run(1, pid_a, pid_b);
  EXPECT_GE(shared_queue, 2 * costs.fuse_round_trip_ns);
  // Two channels: the pids route to distinct queues; no occupancy wait.
  uint64_t own_queue = run(2, pid_a, pid_b);
  EXPECT_LT(own_queue, 2 * costs.fuse_round_trip_ns);
  probe.Abort();
}

// --- CNTRFS node-table shards under concurrent lookup/forget balance ---

class NodeTableStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = kernel::Kernel::Create();
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
    ASSERT_TRUE(server.ok());
    cntrfs_ = std::move(server).value();
  }

  FuseReply Lookup(uint64_t dir, const std::string& name) {
    FuseRequest req;
    req.opcode = FuseOpcode::kLookup;
    req.nodeid = dir;
    req.name = name;
    return cntrfs_->Handle(req);
  }

  void Forget(uint64_t nodeid, uint64_t nlookup) {
    FuseRequest req;
    req.opcode = FuseOpcode::kForget;
    req.forgets.push_back(FuseRequest::Forget{nodeid, nlookup});
    (void)cntrfs_->Handle(req);
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
};

TEST_F(NodeTableStressTest, ConcurrentLookupForgetBalanceReturnsToBaseline) {
  constexpr int kThreads = 8;
  constexpr int kFilesPerThread = 24;
  constexpr int kLookupsPerFile = 3;

  // Seed the tree: one directory per thread, kFilesPerThread files each.
  for (int t = 0; t < kThreads; ++t) {
    std::string dir = "/tmp/stress-" + std::to_string(t);
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), dir, 0755).ok());
    for (int f = 0; f < kFilesPerThread; ++f) {
      auto fd = kernel_->Open(*kernel_->init(), dir + "/f" + std::to_string(f),
                              kernel::kOWrOnly | kernel::kOCreat, 0644);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
    }
  }
  ASSERT_EQ(cntrfs_->NodeTableSize(), 0u);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto tmp_reply = Lookup(kFuseRootId, "tmp");
      if (tmp_reply.error != 0) {
        failed.store(true);
        return;
      }
      auto dir_reply = Lookup(tmp_reply.entry.nodeid, "stress-" + std::to_string(t));
      if (dir_reply.error != 0) {
        failed.store(true);
        return;
      }
      uint64_t dir_node = dir_reply.entry.nodeid;
      for (int f = 0; f < kFilesPerThread; ++f) {
        std::string name = "f" + std::to_string(f);
        uint64_t child = 0;
        for (int l = 0; l < kLookupsPerFile; ++l) {
          auto reply = Lookup(dir_node, name);
          if (reply.error != 0) {
            failed.store(true);
            return;
          }
          child = reply.entry.nodeid;
        }
        Forget(child, kLookupsPerFile);
      }
      Forget(dir_node, 1);
      Forget(tmp_reply.entry.nodeid, 1);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  // Every grant balanced by a forget ("tmp" collected one grant per thread
  // and one return per thread): the table is back at baseline.
  EXPECT_EQ(cntrfs_->NodeTableSize(), 0u);
  EXPECT_GT(cntrfs_->node_table_shards(), 1u);
}

TEST_F(NodeTableStressTest, HardlinksStillDeduplicateAcrossShardsByDevIno) {
  auto fd = kernel_->Open(*kernel_->init(), "/tmp/orig", kernel::kOWrOnly | kernel::kOCreat,
                          0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  ASSERT_TRUE(kernel_->Link(*kernel_->init(), "/tmp/orig", "/tmp/alias").ok());

  auto tmp = Lookup(kFuseRootId, "tmp");
  ASSERT_EQ(tmp.error, 0);
  auto a = Lookup(tmp.entry.nodeid, "orig");
  auto b = Lookup(tmp.entry.nodeid, "alias");
  ASSERT_EQ(a.error, 0);
  ASSERT_EQ(b.error, 0);
  EXPECT_EQ(a.entry.nodeid, b.entry.nodeid)
      << "one (dev, ino) must intern one nodeid regardless of shard layout";
  Forget(a.entry.nodeid, 2);
  Forget(tmp.entry.nodeid, 1);
  EXPECT_EQ(cntrfs_->NodeTableSize(), 0u);
}

}  // namespace
}  // namespace cntr::fuse
