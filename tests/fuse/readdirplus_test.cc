// Tests for the READDIRPLUS batched-metadata pipeline: a cold
// readdir-then-stat-every-child tree walk must collapse from one round trip
// per child (the compilebench-read/postmark storm, paper §5.2.2) to
// ⌈K/batch⌉ batched requests, and the attributes primed into the kernel
// caches must honour the server-granted TTLs.
#include <gtest/gtest.h>

#include <algorithm>
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

constexpr int kFiles = 256;

class ReaddirPlusTest : public ::testing::Test {
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

  // Seeds a K-entry directory directly on the host, bypassing the mount, so
  // the FUSE side has never looked any of it up (a cold tree).
  void SeedBigDir() {
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/tmp/bigdir", 0755).ok());
    for (int i = 0; i < kFiles; ++i) {
      auto fd = kernel_->Open(*kernel_->init(), "/tmp/bigdir/f" + std::to_string(i),
                              kernel::kOWrOnly | kernel::kOCreat, 0644);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
    }
  }

  // readdir + stat-every-child through the mount; returns the FUSE requests
  // the walk itself issued (directory open/close excluded).
  uint64_t ColdWalkRequests() {
    auto dfd = kernel_->Open(*proc_, "/m/tmp/bigdir", kernel::kORdOnly | kernel::kODirectory);
    EXPECT_TRUE(dfd.ok());
    uint64_t before = conn_->stats().requests;
    auto entries = kernel_->Getdents(*proc_, dfd.value());
    EXPECT_TRUE(entries.ok());
    int statted = 0;
    for (const auto& entry : entries.value()) {
      if (entry.name == "." || entry.name == "..") {
        continue;
      }
      EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/bigdir/" + entry.name).ok());
      ++statted;
    }
    EXPECT_EQ(statted, kFiles);
    uint64_t walked = conn_->stats().requests - before;
    EXPECT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
    return walked;
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
  std::shared_ptr<FuseConn> conn_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServerPool> pool_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

TEST_F(ReaddirPlusTest, ColdWalkIssuesBatchedRequests) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  ASSERT_TRUE(opts.readdirplus);
  Mount(opts);
  SeedBigDir();
  uint64_t requests = ColdWalkRequests();
  // ⌈K/batch⌉ READDIRPLUS requests cover the listing ("." and ".." ride in
  // the batches) and every subsequent stat is a primed-cache hit.
  uint64_t budget = kFiles / opts.readdirplus_batch + 1;
  EXPECT_LE(requests, budget) << "cold walk must be batched, not per-child";
  EXPECT_GT(cntrfs_->stats().readdirplus, 0u);
}

TEST_F(ReaddirPlusTest, WithoutReaddirPlusEveryChildCostsARoundTrip) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.readdirplus = false;
  Mount(opts);
  SeedBigDir();
  uint64_t requests = ColdWalkRequests();
  // READDIR + one LOOKUP per child at minimum (plus GETATTRs when the
  // attr cache is cold) — the per-child storm READDIRPLUS removes.
  EXPECT_GE(requests, static_cast<uint64_t>(kFiles) + 1);
  EXPECT_EQ(cntrfs_->stats().readdirplus, 0u);
}

TEST_F(ReaddirPlusTest, ListsSameEntriesWithAndWithoutBatching) {
  FuseMountOptions on = FuseMountOptions::Optimized();
  Mount(on);
  SeedBigDir();
  auto dfd = kernel_->Open(*proc_, "/m/tmp/bigdir", kernel::kORdOnly | kernel::kODirectory);
  ASSERT_TRUE(dfd.ok());
  auto plus = kernel_->Getdents(*proc_, dfd.value());
  ASSERT_TRUE(plus.ok());
  ASSERT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
  std::vector<std::string> names;
  for (const auto& entry : plus.value()) {
    names.push_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.size(), static_cast<size_t>(kFiles) + 2);  // files + "." + ".."
  EXPECT_TRUE(std::find(names.begin(), names.end(), ".") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "f0") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "f" + std::to_string(kFiles - 1)) !=
              names.end());
}

TEST_F(ReaddirPlusTest, PrimedAttrsExpireAfterTtl) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  Mount(opts);
  SeedBigDir();
  (void)ColdWalkRequests();

  // Within the TTL: a stat of a primed child is a pure cache hit.
  uint64_t before = conn_->stats().requests;
  ASSERT_TRUE(kernel_->Stat(*proc_, "/m/tmp/bigdir/f0").ok());
  EXPECT_EQ(conn_->stats().requests - before, 0u)
      << "stat within attr_ttl_ns must not reach the server";

  // Past the TTL the primed entry and attributes are stale: the kernel must
  // revalidate at the server again.
  kernel_->clock().Advance(2 * opts.attr_ttl_ns);
  before = conn_->stats().requests;
  ASSERT_TRUE(kernel_->Stat(*proc_, "/m/tmp/bigdir/f0").ok());
  EXPECT_GT(conn_->stats().requests - before, 0u)
      << "stat after attr_ttl_ns must revalidate through the server";
}

TEST_F(ReaddirPlusTest, ExactMultipleListingTerminatesWithoutDuplicates) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.readdirplus_batch = 4;
  Mount(opts);
  // 6 children + "." + ".." = 8 entries = exactly 2 batches; the client's
  // final empty probe must terminate the stream, not re-list and duplicate.
  ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/tmp/even", 0755).ok());
  for (int i = 0; i < 6; ++i) {
    auto fd = kernel_->Open(*kernel_->init(), "/tmp/even/f" + std::to_string(i),
                            kernel::kOWrOnly | kernel::kOCreat, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  }
  auto dfd = kernel_->Open(*proc_, "/m/tmp/even", kernel::kORdOnly | kernel::kODirectory);
  ASSERT_TRUE(dfd.ok());
  auto entries = kernel_->Getdents(*proc_, dfd.value());
  ASSERT_TRUE(entries.ok());
  ASSERT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
  std::vector<std::string> names;
  for (const auto& entry : entries.value()) {
    names.push_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end())
      << "exact-multiple walk must not duplicate entries";
}

TEST_F(ReaddirPlusTest, SnapshotSurvivesConcurrentUnlinkMidWalk) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/tmp/mut", 0755).ok());
  for (int i = 0; i < 10; ++i) {
    auto fd = kernel_->Open(*kernel_->init(), "/tmp/mut/f" + std::to_string(i),
                            kernel::kOWrOnly | kernel::kOCreat, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  }
  auto dir = kernel_->Resolve(*kernel_->init(), "/m/tmp/mut");
  ASSERT_TRUE(dir.ok());
  auto* fdir = dynamic_cast<FuseInode*>(dir->inode.get());
  ASSERT_NE(fdir, nullptr);

  // Drive the server's batch protocol directly: snapshot the first window,
  // mutate the directory, then continue the walk with the token.
  FuseRequest first;
  first.opcode = FuseOpcode::kReaddirPlus;
  first.nodeid = fdir->nodeid();
  first.size = 4;
  FuseReply batch1 = cntrfs_->Handle(first);
  ASSERT_EQ(batch1.error, 0);
  ASSERT_EQ(batch1.entries_plus.size(), 4u);
  ASSERT_NE(batch1.fh, 0u) << "full window must carry a continuation token";

  // Unlink a file that has not been served yet (host side).
  ASSERT_TRUE(kernel_->Unlink(*kernel_->init(), "/tmp/mut/f9").ok());

  std::vector<std::string> names;
  for (const auto& dent : batch1.entries_plus) {
    names.push_back(dent.dirent.name);
  }
  uint64_t token = batch1.fh;
  uint64_t cursor = batch1.entries_plus.size();
  while (true) {
    FuseRequest next;
    next.opcode = FuseOpcode::kReaddirPlus;
    next.nodeid = fdir->nodeid();
    next.fh = token;
    next.offset = cursor;
    next.size = 4;
    FuseReply batch = cntrfs_->Handle(next);
    ASSERT_EQ(batch.error, 0);
    for (const auto& dent : batch.entries_plus) {
      names.push_back(dent.dirent.name);
    }
    cursor += batch.entries_plus.size();
    token = batch.fh;
    if (batch.entries_plus.size() < 4) {
      break;
    }
  }
  // The snapshot generation is served to completion: 10 files + "." + "..",
  // no entry skipped or duplicated despite the concurrent unlink.
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.size(), 12u);
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "f9") != names.end())
      << "the unlinked entry belongs to the snapshot generation";
}

TEST_F(ReaddirPlusTest, RepeatedWalksDoNotLeakServerNodes) {
  Mount(FuseMountOptions::Optimized());
  SeedBigDir();
  // Every READDIRPLUS entry raises the server's per-node lookup count; the
  // FORGETs sent when the kernel drops the inodes must return the full
  // balance (nlookup), or nodes_ grows by K entries per walk forever.
  for (int walk = 0; walk < 3; ++walk) {
    (void)ColdWalkRequests();
    kernel_->dcache().Clear();  // drop the primed children -> queue forgets
  }
  fuse_fs_->FlushForgets();
  // The client side must not leak either: each walk's children come back
  // under fresh nodeids, so a dropped inode's table entry would never be
  // reused. Only live inodes stay (the root and the walked path's
  // directories, if anything still holds them).
  EXPECT_LE(fuse_fs_->InodeTableSize(), 3u)
      << "dropped inodes must leave the client nodeid table";
  // Forgets travel fire-and-forget; give the server threads a moment to
  // drain the queue.
  size_t nodes = cntrfs_->NodeTableSize();
  for (int spin = 0; spin < 2000 && nodes > 8; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    nodes = cntrfs_->NodeTableSize();
  }
  EXPECT_LE(nodes, 8u) << "forget balance must drain the server node table";
}

TEST_F(ReaddirPlusTest, ForgetsAreServedOffTheSharedTimeline) {
  Mount(FuseMountOptions::Optimized());
  SeedBigDir();
  // The client runs on a lane of its own, so nothing it does moves the
  // shared timeline; neither may the server work for its forgets, which
  // nobody waits on.
  SimClock::LaneScope client(std::make_shared<SimClock::Lane>());
  (void)ColdWalkRequests();
  const uint64_t shared_before = kernel_->clock().NowOnLane(nullptr);
  const uint64_t sent_before = conn_->stats().forgets;
  const uint64_t served_before = cntrfs_->stats().forgets;
  kernel_->dcache().Clear();  // drop the primed children -> BATCH_FORGETs
  fuse_fs_->FlushForgets();
  const uint64_t sent = conn_->stats().forgets - sent_before;
  ASSERT_GT(sent, 0u);
  // Fire-and-forget: wait (real time) until the pool has served them all.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cntrfs_->stats().forgets - served_before < sent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(cntrfs_->stats().forgets - served_before, sent);
  EXPECT_EQ(kernel_->clock().NowOnLane(nullptr), shared_before)
      << "FORGET handling must not charge the shared timeline";
}

TEST_F(ReaddirPlusTest, PrimedChildrenResolveToSameInodeAsLookup) {
  Mount(FuseMountOptions::Optimized());
  SeedBigDir();
  (void)ColdWalkRequests();
  // The inode materialized by READDIRPLUS priming and the one a plain path
  // resolution yields must be the same object (nodeid identity map).
  auto a = kernel_->Resolve(*proc_, "/m/tmp/bigdir/f3");
  ASSERT_TRUE(a.ok());
  kernel_->dcache().Clear();
  auto b = kernel_->Resolve(*proc_, "/m/tmp/bigdir/f3");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->inode.get(), b->inode.get());
}

// --- READDIRPLUS adaptivity: plus is batched-stat machinery, and a
// consumer that never stats should not pay for it (ROADMAP; Linux's
// readdirplus_auto heuristic).

TEST_F(ReaddirPlusTest, LsStyleConsumerFallsBackToPlainReaddir) {
  Mount(FuseMountOptions::Optimized());
  SeedBigDir();
  auto List = [&]() {
    auto dfd = kernel_->Open(*proc_, "/m/tmp/bigdir", kernel::kORdOnly | kernel::kODirectory);
    ASSERT_TRUE(dfd.ok());
    auto entries = kernel_->Getdents(*proc_, dfd.value());
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kFiles) + 2);
    ASSERT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
  };
  // First listing: no history, the sample walk uses READDIRPLUS.
  List();
  uint64_t plus_after_sample = cntrfs_->stats().readdirplus;
  EXPECT_GT(plus_after_sample, 0u);
  EXPECT_EQ(cntrfs_->stats().readdirs, 0u);
  // Nothing statted any primed child: the directory is being `ls`'d. The
  // second and third listings must ride plain READDIR — no per-child stat
  // tax on the server.
  List();
  List();
  EXPECT_EQ(cntrfs_->stats().readdirplus, plus_after_sample)
      << "pure listings must stop issuing READDIRPLUS after the unconsumed sample";
  EXPECT_GE(cntrfs_->stats().readdirs, 2u);
}

TEST_F(ReaddirPlusTest, StatConsumerKeepsReaddirPlus) {
  Mount(FuseMountOptions::Optimized());
  SeedBigDir();
  // A readdir-then-stat walk consumes the primed attrs each round: the
  // heuristic must keep READDIRPLUS on.
  for (int walk = 0; walk < 3; ++walk) {
    (void)ColdWalkRequests();
  }
  EXPECT_EQ(cntrfs_->stats().readdirs, 0u)
      << "stat-heavy walks must stay on the batched-metadata path";
  EXPECT_GT(cntrfs_->stats().readdirplus, 0u);
}

TEST_F(ReaddirPlusTest, StatTrafficReenablesSuppressedDirectory) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  Mount(opts);
  SeedBigDir();
  auto List = [&]() {
    auto dfd = kernel_->Open(*proc_, "/m/tmp/bigdir", kernel::kORdOnly | kernel::kODirectory);
    ASSERT_TRUE(dfd.ok());
    ASSERT_TRUE(kernel_->Getdents(*proc_, dfd.value()).ok());
    ASSERT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
  };
  List();  // sample walk (plus)
  List();  // unconsumed -> suppressed, plain readdir
  uint64_t plus_before = cntrfs_->stats().readdirplus;
  // Let the primed entry/attr TTLs lapse, then stat a child: the LOOKUP
  // round trip is the FUSE_I_ADVISE_RDPLUS signal — stats are happening
  // here again, so the next listing must return to READDIRPLUS.
  kernel_->clock().Advance(2 * opts.entry_ttl_ns);
  ASSERT_TRUE(kernel_->Stat(*proc_, "/m/tmp/bigdir/f0").ok());
  List();
  EXPECT_GT(cntrfs_->stats().readdirplus, plus_before)
      << "stat-shaped traffic must lift the ls-style suppression";
}

TEST_F(ReaddirPlusTest, SeekdirHandleUsesPlainReaddir) {
  Mount(FuseMountOptions::Optimized());
  SeedBigDir();
  auto dfd = kernel_->Open(*proc_, "/m/tmp/bigdir", kernel::kORdOnly | kernel::kODirectory);
  ASSERT_TRUE(dfd.ok());
  // seekdir(): repositioning the directory cursor marks this handle as a
  // seek-heavy consumer — its listings must not re-prime the whole tree.
  ASSERT_TRUE(kernel_->Lseek(*proc_, dfd.value(), 1, kernel::kSeekSet).ok());
  uint64_t plus_before = cntrfs_->stats().readdirplus;
  auto entries = kernel_->Getdents(*proc_, dfd.value());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(cntrfs_->stats().readdirplus, plus_before)
      << "a seeked handle must fall back to plain READDIR";
  EXPECT_GT(cntrfs_->stats().readdirs, 0u);
  ASSERT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
}

}  // namespace
}  // namespace cntr::fuse
