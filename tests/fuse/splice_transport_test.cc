// End-to-end tests for the zero-copy splice transport: spliced READ replies
// must be bit-identical with copy-path replies, spliced WRITEs must land
// the same bytes on the backing filesystem, payloads that do not fit the
// channel lane must fall back to the copy path (still correct), the
// per-channel opt-out must pin traffic to the copy path, and the
// spliced-vs-copied byte accounting must add up.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
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

// A recognizable per-offset pattern so any page mixup shows up as a
// mismatch, not a plausible-looking run of zeros.
std::string Pattern(size_t size) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>('A' + (i / 7 + i / 4096) % 23);
  }
  return out;
}

class SpliceTransportTest : public ::testing::Test {
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

  // Full teardown in dependency order so a test can mount a second, fresh
  // stack (everything above must release the old kernel before it dies).
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

  // Writes `data` on the host side (through /data, the disk-backed ExtFs,
  // so the server serves it from the shared page cache).
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

  std::string ReadHostSide(const std::string& path, size_t size) {
    auto fd = kernel_->Open(*kernel_->init(), path, kernel::kORdOnly);
    EXPECT_TRUE(fd.ok());
    std::string out(size, '\0');
    size_t off = 0;
    while (off < size) {
      auto n = kernel_->Read(*kernel_->init(), fd.value(), out.data() + off, size - off);
      EXPECT_TRUE(n.ok());
      if (!n.ok() || n.value() == 0) {
        break;
      }
      off += n.value();
    }
    out.resize(off);
    EXPECT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
    return out;
  }

  void WriteThroughMount(const std::string& path, const std::string& data) {
    auto fd = kernel_->Open(*proc_, path,
                            kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    size_t off = 0;
    while (off < data.size()) {
      auto n = kernel_->Write(*proc_, fd.value(), data.data() + off, data.size() - off);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      off += n.value();
    }
    ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::shared_ptr<FuseConn> conn_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServerPool> pool_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

constexpr size_t kFileSize = 512 * 1024 + 1234;  // unaligned tail on purpose

TEST_F(SpliceTransportTest, SplicedReadIsBitIdenticalWithCopyRead) {
  const std::string want = Pattern(kFileSize);
  // Copy path first.
  {
    FuseMountOptions opts = FuseMountOptions::Optimized();
    opts.splice_read = false;
    opts.splice_move = false;
    Mount(opts);
    ASSERT_FALSE(fuse_fs_->splice_read_enabled());
    SeedFile("/data/copy.dat", want);
    EXPECT_EQ(ReadThroughMount("/m/data/copy.dat", want.size()), want);
    EXPECT_EQ(conn_->stats().spliced_bytes, 0u);
  }
  // Spliced path: same bytes, and the payload actually rode the lanes.
  {
    FuseMountOptions opts = FuseMountOptions::Optimized();
    Remount(opts);
    ASSERT_TRUE(fuse_fs_->splice_read_enabled());
    ASSERT_TRUE(fuse_fs_->splice_move_enabled());
    SeedFile("/data/spliced.dat", want);
    EXPECT_EQ(ReadThroughMount("/m/data/spliced.dat", want.size()), want);
    EXPECT_GT(conn_->stats().spliced_bytes, 0u);
    EXPECT_GT(cntrfs_->stats().spliced_reads, 0u);
  }
}

TEST_F(SpliceTransportTest, RereadAfterSplicedInstallServesCachedPages) {
  const std::string want = Pattern(kFileSize);
  Mount(FuseMountOptions::Optimized());
  SeedFile("/data/warm.dat", want);
  EXPECT_EQ(ReadThroughMount("/m/data/warm.dat", want.size()), want);
  uint64_t requests_after_first = conn_->stats().requests;
  // The stolen/aliased pages are real cache entries: a re-read is served
  // from the kernel page cache with no further round trips.
  EXPECT_EQ(ReadThroughMount("/m/data/warm.dat", want.size()), want);
  EXPECT_EQ(conn_->stats().requests, requests_after_first + 2);  // open + release only
}

TEST_F(SpliceTransportTest, LaneTooSmallFallsBackToCopyAndStaysCorrect) {
  // Page-aligned size: every READ payload is a full multi-page readahead
  // window (the sub-page EOF tail of an unaligned file would fit even a
  // tiny lane). Autosizing is pinned off — this test exercises the copy
  // fallback itself; the growth path is covered in adaptive_io_test.
  const std::string want = Pattern(512 * 1024);
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.pipe_pages = 1;  // 4KB lane vs. multi-page readahead payloads: never fits
  opts.lane_autosize = false;
  Mount(opts);
  SeedFile("/data/tiny-lane.dat", want);
  EXPECT_EQ(ReadThroughMount("/m/data/tiny-lane.dat", want.size()), want);
  auto stats = conn_->stats();
  EXPECT_EQ(stats.spliced_bytes, 0u) << "no READ payload fits a one-page lane";
  EXPECT_GT(stats.copied_bytes, 0u);
  EXPECT_GT(stats.splice_fallbacks, 0u);
}

TEST_F(SpliceTransportTest, SplicedWriteThroughLandsIdenticalBytes) {
  const std::string want = Pattern(kFileSize);
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.writeback_cache = false;
  opts.splice_write = true;
  Mount(opts);
  ASSERT_TRUE(fuse_fs_->splice_write_enabled());
  WriteThroughMount("/m/data/wt.dat", want);
  EXPECT_EQ(ReadHostSide("/data/wt.dat", want.size()), want);
  EXPECT_GT(cntrfs_->stats().spliced_writes, 0u);
  EXPECT_GT(conn_->stats().spliced_bytes, 0u);
}

TEST_F(SpliceTransportTest, SplicedWritebackFlushLandsIdenticalBytes) {
  const std::string want = Pattern(kFileSize);
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.splice_write = true;
  Mount(opts);
  WriteThroughMount("/m/data/wb.dat", want);  // close flushes the writeback cache
  EXPECT_EQ(ReadHostSide("/data/wb.dat", want.size()), want);
  EXPECT_GT(cntrfs_->stats().spliced_writes, 0u);
}

TEST_F(SpliceTransportTest, WriteAfterSplicedFlushDoesNotCorruptServerCopy) {
  // The flush shares the kernel's cache pages with the server's cache
  // (alias + COW). A later kernel-side rewrite must not mutate the server's
  // already-landed bytes in place.
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.splice_write = true;
  Mount(opts);
  std::string v1(64 * 1024, '1');
  auto fd = kernel_->Open(*proc_, "/m/data/cow.dat",
                          kernel::kORdWr | kernel::kOCreat | kernel::kOTrunc, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), v1.data(), v1.size()).ok());
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());  // spliced flush
  EXPECT_EQ(ReadHostSide("/data/cow.dat", v1.size()), v1);
  // Rewrite through the mount, dirtying the same kernel pages again.
  std::string v2(64 * 1024, '2');
  ASSERT_TRUE(kernel_->Pwrite(*proc_, fd.value(), v2.data(), v2.size(), 0).ok());
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  EXPECT_EQ(ReadHostSide("/data/cow.dat", v2.size()), v2);
}

TEST_F(SpliceTransportTest, SplicedReaddirPlusListsIdentically) {
  FuseMountOptions copy_opts = FuseMountOptions::Optimized();
  copy_opts.splice_read = false;
  copy_opts.splice_move = false;
  Mount(copy_opts);
  auto SeedListing = [&]() {
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/data/listing", 0755).ok());
    for (int i = 0; i < 40; ++i) {
      SeedFile("/data/listing/f" + std::to_string(i), "x");
    }
  };
  SeedListing();
  auto ListNames = [&]() {
    auto dfd = kernel_->Open(*proc_, "/m/data/listing", kernel::kORdOnly | kernel::kODirectory);
    EXPECT_TRUE(dfd.ok());
    auto entries = kernel_->Getdents(*proc_, dfd.value());
    EXPECT_TRUE(entries.ok());
    std::vector<std::string> names;
    for (const auto& e : entries.value()) {
      names.push_back(e.name + "/" + std::to_string(e.ino) +
                      "/" + std::to_string(static_cast<int>(e.type)));
    }
    EXPECT_TRUE(kernel_->Close(*proc_, dfd.value()).ok());
    std::sort(names.begin(), names.end());
    return names;
  };
  auto copy_names = ListNames();
  EXPECT_EQ(copy_names.size(), 42u);  // 40 files + "." + ".."

  // Fresh kernel: identical tree, spliced transport. The inode numbers are
  // allocated in the same order, so the listings compare exactly.
  Remount(FuseMountOptions::Optimized());
  SeedListing();
  auto spliced_names = ListNames();
  EXPECT_EQ(spliced_names, copy_names) << "packed direntplus stream must decode identically";
  EXPECT_GT(conn_->stats().spliced_bytes, 0u) << "the listing payload rode the lane";
}

TEST_F(SpliceTransportTest, SpliceOffMountNeverTouchesLanes) {
  const std::string want = Pattern(64 * 1024);
  FuseMountOptions opts = FuseMountOptions::Baseline();
  Mount(opts);
  ASSERT_FALSE(fuse_fs_->splice_read_enabled());
  ASSERT_FALSE(fuse_fs_->splice_write_enabled());
  SeedFile("/data/off.dat", want);
  EXPECT_EQ(ReadThroughMount("/m/data/off.dat", want.size()), want);
  WriteThroughMount("/m/data/off-w.dat", want);
  EXPECT_EQ(ReadHostSide("/data/off-w.dat", want.size()), want);
  auto stats = conn_->stats();
  EXPECT_EQ(stats.spliced_bytes, 0u);
  EXPECT_EQ(stats.splice_fallbacks, 0u);
  EXPECT_EQ(cntrfs_->stats().spliced_reads, 0u);
  EXPECT_EQ(cntrfs_->stats().spliced_writes, 0u);
}

// --- the lane rule, on a raw connection ---

// The all-or-nothing claim the copy fallback relies on, F_SETPIPE_SZ's
// limits, and the release an abort may race: giving bytes back to a lane
// Abort already cleared leaves it empty instead of wrapping.
TEST(SpliceLaneTest, LedgerClaimsWholePayloadsAndReleaseClampsAtZero) {
  constexpr size_t kPage = kernel::kPageSize;
  LaneLedger lanes;
  EXPECT_EQ(lanes.Resize(kPage + 1).value(), 2 * kPage) << "rounded up to a power of two";
  EXPECT_EQ(lanes.Resize(0).error(), EINVAL);
  EXPECT_EQ(lanes.Resize(kernel::kPipeMaxCapacity + 1).error(), EPERM);
  EXPECT_FALSE(lanes.Claim(LaneLedger::kIn, 3 * kPage).has_value());
  EXPECT_EQ(lanes.held(), 0u) << "a payload no lane fits must not hold a partial claim";

  std::optional<uint32_t> lane = lanes.Claim(LaneLedger::kIn, 2 * kPage);
  ASSERT_TRUE(lane.has_value());
  EXPECT_EQ(*lane, 0u);
  EXPECT_EQ(lanes.Claim(LaneLedger::kIn, kPage), 1u) << "a full lane passes to the next";
  EXPECT_EQ(lanes.Claim(LaneLedger::kOut, 2 * kPage), 0u) << "directions hold apart";
  EXPECT_EQ(lanes.Resize(kPage).error(), EBUSY);
  EXPECT_EQ(lanes.held(), 5 * kPage);

  lanes.Clear();
  lanes.Release(LaneLedger::kIn, *lane, 2 * kPage);
  EXPECT_EQ(lanes.held(), 0u);
  EXPECT_EQ(lanes.Claim(LaneLedger::kIn, 2 * kPage), 0u) << "the cleared lane is whole again";
}

FuseRequest SplicedWrite(size_t pages) {
  FuseRequest req;
  req.opcode = FuseOpcode::kWrite;
  req.spliced = true;
  for (size_t i = 0; i < pages; ++i) {
    req.payload_pages.push_back(splice::PageRef::Alloc(kernel::kPageSize));
  }
  return req;
}

// Each of the kLanePoolSize lanes is its own pipe: a payload claims one lane
// whole, and a payload only copies when no single lane has room for it. A
// budget pooled across the lanes would admit a ninth payload here.
TEST(SpliceLaneTest, PayloadsClaimWholeLanesAndTheOverflowCopies) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);  // autosize defaults off at the conn layer
  const size_t lane_pages = conn.lane_capacity(0) / kernel::kPageSize;
  const size_t pages = lane_pages / 2 + 1;  // two never share a lane
  const uint64_t payload = pages * kernel::kPageSize;
  constexpr size_t kWriters = kLanePoolSize + 1;

  std::vector<std::thread> writers;
  for (size_t i = 0; i < kWriters; ++i) {
    writers.emplace_back([&] { EXPECT_TRUE(conn.SendAndWait(SplicedWrite(pages)).ok()); });
  }
  // Every payload is gated before its SQE is counted as queued.
  while (conn.queued_depth() < kWriters) {
    std::this_thread::yield();
  }
  FuseConn::Stats stats = conn.stats();
  EXPECT_EQ(stats.splice_fallbacks, 1u);
  EXPECT_EQ(stats.copied_bytes, payload);
  EXPECT_EQ(stats.spliced_bytes, kLanePoolSize * payload);
  EXPECT_EQ(conn.lane_bytes_in_flight(), kLanePoolSize * payload);

  size_t copied = 0;
  for (size_t served = 0; served < kWriters; ++served) {
    std::optional<FuseRequest> req = PollRequest(conn);
    ASSERT_TRUE(req.has_value());
    copied += req->spliced ? 0 : 1;
    conn.WriteReply(req->unique, FuseReply{});
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(copied, 1u);
  EXPECT_EQ(conn.lane_bytes_in_flight(), 0u) << "consuming a message frees its lane";

  // Freed lanes admit a payload as large as the lane itself.
  std::thread writer([&] { EXPECT_TRUE(conn.SendAndWait(SplicedWrite(lane_pages)).ok()); });
  std::optional<FuseRequest> req = PollRequest(conn);
  ASSERT_TRUE(req.has_value());
  EXPECT_TRUE(req->spliced);
  conn.WriteReply(req->unique, FuseReply{});
  writer.join();
  EXPECT_EQ(conn.stats().splice_fallbacks, 1u);
  EXPECT_EQ(conn.lane_bytes_in_flight(), 0u);
  conn.Abort();
}

}  // namespace
}  // namespace cntr::fuse
