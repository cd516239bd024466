// End-to-end tests for the adaptive I/O windows:
//  * FUSE_MAX_PAGES negotiation (granted, declined, legacy server),
//  * per-open-file sequential readahead ramping vs. random collapse,
//  * adaptive writeback — per-inode dirty limits, soft/hard watermarks,
//    background flusher threads, and flusher/foreground write races,
//  * splice-lane follow-through and autosizing under fallback pressure,
//  * per-channel queue-depth statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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

std::string Pattern(size_t size, char salt = 0) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>('A' + (i / 7 + i / 4096 + salt) % 23);
  }
  return out;
}

// An "old server": answers everything through CntrFS but predates
// FUSE_MAX_PAGES — it echoes INIT flags without the bit and grants nothing.
class LegacyInitHandler : public FuseHandler {
 public:
  explicit LegacyInitHandler(FuseHandler* inner) : inner_(inner) {}
  FuseReply Handle(const FuseRequest& req) override {
    FuseReply reply = inner_->Handle(req);
    if (req.opcode == FuseOpcode::kInit) {
      reply.init_flags &= ~kFuseMaxPages;
      reply.max_pages = 0;
    }
    return reply;
  }
  void OnDestroy() override { inner_->OnDestroy(); }

 private:
  FuseHandler* inner_;
};

class AdaptiveIoTest : public ::testing::Test {
 protected:
  void Mount(FuseMountOptions opts, bool legacy_server = false) {
    kernel_ = kernel::Kernel::Create();
    RegisterFuseDevice(kernel_.get());
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    ASSERT_TRUE(kernel_->Unshare(*server_proc_, kernel::kCloneNewNs).ok());
    auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
    ASSERT_TRUE(server.ok());
    cntrfs_ = std::move(server).value();
    handler_ = cntrfs_.get();
    if (legacy_server) {
      legacy_ = std::make_unique<LegacyInitHandler>(cntrfs_.get());
      handler_ = legacy_.get();
    }
    auto dev = OpenFuseDevice(kernel_.get(), *kernel_->init());
    ASSERT_TRUE(dev.ok());
    conn_ = dev->second;
    pool_ = std::make_unique<FuseServerPool>(
        FuseServerPoolOptions::Dedicated(2, &kernel_->metrics()));
    pool_->AddMount(conn_, handler_);
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

  void Remount(FuseMountOptions opts, bool legacy_server = false) {
    TearDown();
    fuse_fs_.reset();
    conn_.reset();
    legacy_.reset();
    cntrfs_.reset();
    proc_.reset();
    server_proc_.reset();
    kernel_.reset();
    Mount(opts, legacy_server);
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

  std::string ReadThroughMount(kernel::Process& proc, const std::string& path, size_t size,
                               size_t chunk = SIZE_MAX) {
    auto fd = kernel_->Open(proc, path, kernel::kORdOnly);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string out(size, '\0');
    size_t off = 0;
    while (off < size) {
      auto n = kernel_->Read(proc, fd.value(), out.data() + off,
                             std::min(chunk, size - off));
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || n.value() == 0) {
        break;
      }
      off += n.value();
    }
    out.resize(off);
    EXPECT_TRUE(kernel_->Close(proc, fd.value()).ok());
    return out;
  }

  void WriteThroughMount(kernel::Process& proc, const std::string& path,
                         const std::string& data, size_t chunk = SIZE_MAX) {
    auto fd = kernel_->Open(proc, path,
                            kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    size_t off = 0;
    while (off < data.size()) {
      auto n = kernel_->Write(proc, fd.value(), data.data() + off,
                              std::min(chunk, data.size() - off));
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      off += n.value();
    }
    ASSERT_TRUE(kernel_->Close(proc, fd.value()).ok());
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

  // Polls a condition for up to 5 real seconds (background flushers run on
  // real threads).
  bool WaitFor(const std::function<bool()>& cond) {
    for (int i = 0; i < 500; ++i) {
      if (cond()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return cond();
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::shared_ptr<FuseConn> conn_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<LegacyInitHandler> legacy_;
  FuseHandler* handler_ = nullptr;
  std::unique_ptr<FuseServerPool> pool_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

// --- FUSE_MAX_PAGES negotiation ---

TEST_F(AdaptiveIoTest, DefaultMountNegotiates1MiBWindows) {
  Mount(FuseMountOptions::Optimized());
  EXPECT_EQ(fuse_fs_->negotiated_max_pages(), kFuseMaxMaxPages);
  EXPECT_EQ(fuse_fs_->effective_max_write(), kFuseMaxMaxPages * kernel::kPageSize);
  EXPECT_EQ(fuse_fs_->readahead_ceiling_pages(), kFuseMaxMaxPages);
  // Lane follow-through: the splice lanes cover the negotiated window.
  EXPECT_GE(conn_->lane_capacity(0), kFuseMaxMaxPages * kernel::kPageSize);
}

TEST_F(AdaptiveIoTest, MaxPagesZeroKeepsLegacyWindows) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.max_pages = 0;
  Mount(opts);
  EXPECT_EQ(fuse_fs_->negotiated_max_pages(), 0u);
  EXPECT_EQ(fuse_fs_->effective_max_write(), opts.max_write);
  EXPECT_EQ(fuse_fs_->readahead_ceiling_pages(), opts.readahead_pages);
}

TEST_F(AdaptiveIoTest, OldServerRejectingFlagFallsBackTo32Pages) {
  Mount(FuseMountOptions::Optimized(), /*legacy_server=*/true);
  EXPECT_EQ(fuse_fs_->negotiated_max_pages(), 0u);
  EXPECT_EQ(fuse_fs_->effective_max_write(), 128u * 1024);
  EXPECT_EQ(fuse_fs_->readahead_ceiling_pages(), 32u);
  // And the mount still works end to end.
  const std::string want = Pattern(256 * 1024);
  SeedFile("/data/legacy.dat", want);
  EXPECT_EQ(ReadThroughMount(*proc_, "/m/data/legacy.dat", want.size()), want);
}

TEST_F(AdaptiveIoTest, MaxPagesRequestIsClampedByMountOption) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.max_pages = 64;  // ask for less than the server's 256-page cap
  Mount(opts);
  EXPECT_EQ(fuse_fs_->negotiated_max_pages(), 64u);
  EXPECT_EQ(fuse_fs_->effective_max_write(), 64u * kernel::kPageSize);
}

// --- readahead ramping ---

TEST_F(AdaptiveIoTest, SequentialReadRampsToFarFewerRequests) {
  const size_t kSize = 4u << 20;  // 1024 pages
  const std::string want = Pattern(kSize);

  // Fixed legacy windows: ~1024/32 = 32 READ round trips.
  FuseMountOptions fixed = FuseMountOptions::Optimized();
  fixed.max_pages = 0;
  Mount(fixed);
  SeedFile("/data/seq.dat", want);
  EXPECT_EQ(ReadThroughMount(*proc_, "/m/data/seq.dat", kSize, 1 << 20), want);
  uint64_t fixed_reads = cntrfs_->stats().reads;
  EXPECT_GE(fixed_reads, 30u);

  // Adaptive: 8,16,32,...,256-page windows — an order of magnitude fewer.
  Remount(FuseMountOptions::Optimized());
  SeedFile("/data/seq.dat", want);
  EXPECT_EQ(ReadThroughMount(*proc_, "/m/data/seq.dat", kSize, 1 << 20), want);
  uint64_t adaptive_reads = cntrfs_->stats().reads;
  EXPECT_LT(adaptive_reads, fixed_reads / 2)
      << "sequential ramp should collapse the READ count";
  EXPECT_LE(adaptive_reads, 12u);
}

TEST_F(AdaptiveIoTest, RandomAccessCollapsesTheWindow) {
  // With the 1MiB ceiling negotiated, a fixed-at-ceiling reader would fill
  // 256 pages per random miss (32 misses -> 32MiB of fills on each side).
  // The ramp must collapse to kMinWindowPages instead, so the fills stay
  // within a few hundred KiB total.
  const size_t kSize = 16u << 20;
  const std::string want = Pattern(kSize);
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(fuse_fs_->readahead_ceiling_pages(), kFuseMaxMaxPages);
  SeedFile("/data/rand.dat", want);
  kernel_->page_cache().DropAllClean();
  uint64_t resident_before = kernel_->page_cache().ResidentBytes();
  uint64_t reads_before = cntrfs_->stats().reads;

  auto fd = kernel_->Open(*proc_, "/m/data/rand.dat", kernel::kORdOnly);
  ASSERT_TRUE(fd.ok());
  char buf[4096];
  // Scattered single-page reads, strides far apart, never at page 0.
  constexpr int kReads = 32;
  for (int i = 1; i <= kReads; ++i) {
    uint64_t off = (static_cast<uint64_t>(i) * 499) % (kSize / 4096) * 4096;
    auto n = kernel_->Pread(*proc_, fd.value(), buf, sizeof(buf), off);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(std::string(buf, n.value()), want.substr(off, n.value()));
  }
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());

  // Each miss filled only a collapsed window (kernel and server side), not
  // the 256-page ceiling.
  uint64_t growth = kernel_->page_cache().ResidentBytes() - resident_before;
  EXPECT_LE(growth, uint64_t{kReads} * 4 * kernel::kPageSize)
      << "random misses must not fill ceiling-sized windows";
  // And each random read stayed one READ round trip.
  EXPECT_LE(cntrfs_->stats().reads - reads_before, uint64_t{kReads} + 2);
}

// --- adaptive writeback ---

TEST_F(AdaptiveIoTest, PerInodeLimitTriggersBackgroundFlush) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 1;
  opts.per_inode_dirty_bytes = 64 * 1024;
  opts.dirty_soft_bytes = 1ull << 40;  // only the per-inode limit can trip
  opts.dirty_hard_bytes = 1ull << 40;
  Mount(opts);
  ASSERT_EQ(fuse_fs_->flusher_thread_count(), 1u);

  const std::string want = Pattern(1 << 20);
  auto fd = kernel_->Open(*proc_, "/m/data/bg.dat",
                          kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
  ASSERT_TRUE(fd.ok());
  size_t off = 0;
  while (off < want.size()) {
    auto n = kernel_->Write(*proc_, fd.value(), want.data() + off,
                            std::min<size_t>(64 * 1024, want.size() - off));
    ASSERT_TRUE(n.ok());
    off += n.value();
  }
  // The background flusher drains the file without close/fsync.
  EXPECT_TRUE(WaitFor([&] { return fuse_fs_->background_flushes() > 0; }));
  EXPECT_TRUE(WaitFor([&] { return cntrfs_->stats().writes > 0; }));
  EXPECT_EQ(fuse_fs_->foreground_throttles(), 0u) << "writer must not stall";
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  EXPECT_EQ(ReadHostSide("/data/bg.dat", want.size()), want);
}

TEST_F(AdaptiveIoTest, HardWatermarkWithoutFlushersDrainsSynchronously) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 0;  // legacy configuration
  opts.dirty_soft_bytes = 64 * 1024;
  opts.dirty_hard_bytes = 128 * 1024;
  opts.per_inode_dirty_bytes = 1ull << 40;
  Mount(opts);
  ASSERT_EQ(fuse_fs_->flusher_thread_count(), 0u);

  const std::string want = Pattern(1 << 20);
  WriteThroughMount(*proc_, "/m/data/hard.dat", want, 64 * 1024);
  EXPECT_GT(fuse_fs_->foreground_throttles(), 0u);
  EXPECT_LE(fuse_fs_->dirty_bytes(), opts.dirty_hard_bytes);
  EXPECT_EQ(ReadHostSide("/data/hard.dat", want.size()), want);
}

TEST_F(AdaptiveIoTest, HardWatermarkWithFlushersThrottlesBounded) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 2;
  opts.dirty_soft_bytes = 128 * 1024;
  opts.dirty_hard_bytes = 256 * 1024;
  opts.per_inode_dirty_bytes = 64 * 1024;
  Mount(opts);

  const std::string want = Pattern(4 << 20);
  WriteThroughMount(*proc_, "/m/data/throttle.dat", want, 64 * 1024);
  EXPECT_EQ(ReadHostSide("/data/throttle.dat", want.size()), want);
}

TEST_F(AdaptiveIoTest, TruncateReturnsDroppedDirtyBytesToTheWatermarks) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 0;
  opts.dirty_soft_bytes = 1ull << 40;
  opts.dirty_hard_bytes = 1ull << 40;  // nothing flushes during the test
  Mount(opts);

  const std::string want = Pattern(1 << 20);
  auto fd = kernel_->Open(*proc_, "/m/data/trunc.dat",
                          kernel::kORdWr | kernel::kOCreat | kernel::kOTrunc, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), want.data(), want.size()).ok());
  EXPECT_GE(fuse_fs_->dirty_bytes(), want.size());
  // Truncation drops the dirty pages without a flush; the accounting must
  // follow or the watermarks ratchet upward forever.
  ASSERT_TRUE(kernel_->Ftruncate(*proc_, fd.value(), 0).ok());
  EXPECT_EQ(fuse_fs_->dirty_bytes(), 0u);
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
}

TEST_F(AdaptiveIoTest, SoftWatermarkDrainsIdleDirtyInodesToo) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 1;
  opts.per_inode_dirty_bytes = 1ull << 40;  // only the watermark can trip
  opts.dirty_soft_bytes = 256 * 1024;
  opts.dirty_hard_bytes = 1ull << 40;
  Mount(opts);

  // File A goes dirty and idle, below the watermark on its own.
  const std::string a = Pattern(128 * 1024, 1);
  auto fda = kernel_->Open(*proc_, "/m/data/idle.dat",
                           kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
  ASSERT_TRUE(fda.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fda.value(), a.data(), a.size()).ok());

  // File B pushes the pool over the soft watermark: the flushers must
  // drain the whole registered dirty set, idle A included.
  const std::string b = Pattern(256 * 1024, 2);
  auto fdb = kernel_->Open(*proc_, "/m/data/busy.dat",
                           kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
  ASSERT_TRUE(fdb.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fdb.value(), b.data(), b.size()).ok());

  EXPECT_TRUE(WaitFor([&] { return fuse_fs_->dirty_bytes() < opts.dirty_soft_bytes; }));
  // A's bytes reached the server without fsync/close on A.
  EXPECT_TRUE(WaitFor([&] { return ReadHostSide("/data/idle.dat", a.size()) == a; }));
  ASSERT_TRUE(kernel_->Close(*proc_, fda.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fdb.value()).ok());
}

TEST_F(AdaptiveIoTest, RewriteRacingBackgroundFlushKeepsLatestBytes) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 2;
  opts.per_inode_dirty_bytes = 32 * 1024;  // flushes constantly mid-write
  Mount(opts);

  const size_t kSize = 512 * 1024;
  const std::string v1 = Pattern(kSize, 1);
  const std::string v2 = Pattern(kSize, 2);
  auto fd = kernel_->Open(*proc_, "/m/data/race.dat",
                          kernel::kORdWr | kernel::kOCreat | kernel::kOTrunc, 0644);
  ASSERT_TRUE(fd.ok());
  // Write v1, then immediately overwrite with v2 while the background
  // flusher is racing through v1's dirty pages. Generation-checked
  // writeback must never let a v1 flush mark a v2 page clean.
  for (const std::string* v : {&v1, &v2}) {
    size_t off = 0;
    while (off < v->size()) {
      auto n = kernel_->Pwrite(*proc_, fd.value(), v->data() + off,
                               std::min<size_t>(16 * 1024, v->size() - off), off);
      ASSERT_TRUE(n.ok());
      off += n.value();
    }
  }
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  EXPECT_EQ(ReadHostSide("/data/race.dat", v2.size()), v2);
}

TEST_F(AdaptiveIoTest, ConcurrentWritersAndFlushersLandExactBytes) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.flusher_threads = 2;
  opts.per_inode_dirty_bytes = 64 * 1024;
  opts.dirty_soft_bytes = 256 * 1024;
  opts.dirty_hard_bytes = 512 * 1024;
  Mount(opts);

  constexpr int kWriters = 4;
  constexpr size_t kFileSize = 512 * 1024;
  std::vector<kernel::ProcessPtr> procs;
  for (int i = 0; i < kWriters; ++i) {
    procs.push_back(kernel_->Fork(*kernel_->init(), "writer" + std::to_string(i)));
  }
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&, i] {
      const std::string data = Pattern(kFileSize, static_cast<char>(i));
      std::string path = "/m/data/w" + std::to_string(i) + ".dat";
      auto fd = kernel_->Open(*procs[i], path,
                              kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
      if (!fd.ok()) {
        failures.fetch_add(1);
        return;
      }
      size_t off = 0;
      while (off < data.size()) {
        auto n = kernel_->Write(*procs[i], fd.value(), data.data() + off,
                                std::min<size_t>(16 * 1024, data.size() - off));
        if (!n.ok()) {
          failures.fetch_add(1);
          return;
        }
        off += n.value();
      }
      if (!kernel_->Fsync(*procs[i], fd.value()).ok() ||
          !kernel_->Close(*procs[i], fd.value()).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kWriters; ++i) {
    const std::string want = Pattern(kFileSize, static_cast<char>(i));
    EXPECT_EQ(ReadHostSide("/data/w" + std::to_string(i) + ".dat", kFileSize), want)
        << "writer " << i;
  }
}

// --- lane autosizing ---

TEST_F(AdaptiveIoTest, OversizedPayloadGrowsLanesAndSplices) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  conn.SetLaneAutosize(true);
  size_t before = conn.lane_capacity(0);

  std::thread server([&] {
    auto req = PollRequest(conn);
    ASSERT_TRUE(req.has_value());
    // The payload must have ridden the lane, not the copy path.
    EXPECT_TRUE(req->spliced);
    EXPECT_TRUE(req->data.empty());
    conn.WriteReply(req->unique, FuseReply{});
  });

  FuseRequest req;
  req.opcode = FuseOpcode::kWrite;
  req.spliced = true;
  const size_t kPages = 2 * (before / kernel::kPageSize);  // 2x the lane
  for (size_t i = 0; i < kPages; ++i) {
    req.payload_pages.push_back(splice::PageRef::Alloc(kernel::kPageSize));
  }
  ASSERT_TRUE(conn.SendAndWait(std::move(req)).ok());
  server.join();

  auto stats = conn.stats();
  EXPECT_EQ(stats.lane_growths, 1u);
  EXPECT_EQ(stats.splice_fallbacks, 0u);
  EXPECT_GT(stats.spliced_bytes, 0u);
  EXPECT_GE(conn.lane_capacity(0), kPages * kernel::kPageSize);
  conn.Abort();
}

TEST_F(AdaptiveIoTest, AutosizeOffKeepsLanesFixed) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);  // autosize defaults off at the conn layer
  size_t before = conn.lane_capacity(0);

  std::thread server([&] {
    auto req = PollRequest(conn);
    ASSERT_TRUE(req.has_value());
    EXPECT_FALSE(req->spliced);  // flattened to the copy path
    conn.WriteReply(req->unique, FuseReply{});
  });
  FuseRequest req;
  req.opcode = FuseOpcode::kWrite;
  req.spliced = true;
  for (size_t i = 0; i < 2 * (before / kernel::kPageSize); ++i) {
    req.payload_pages.push_back(splice::PageRef::Alloc(kernel::kPageSize));
  }
  ASSERT_TRUE(conn.SendAndWait(std::move(req)).ok());
  server.join();
  EXPECT_EQ(conn.stats().lane_growths, 0u);
  EXPECT_GT(conn.stats().splice_fallbacks, 0u);
  EXPECT_EQ(conn.lane_capacity(0), before);
  conn.Abort();
}

TEST_F(AdaptiveIoTest, TinyPipePagesGrowsAtMountToCoverNegotiatedWindow) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.pipe_pages = 1;  // 4KiB — the negotiated 1MiB window would never fit
  Mount(opts);
  EXPECT_GE(conn_->lane_capacity(0),
            static_cast<size_t>(fuse_fs_->readahead_ceiling_pages()) * kernel::kPageSize);
  const std::string want = Pattern(512 * 1024);
  SeedFile("/data/grown.dat", want);
  EXPECT_EQ(ReadThroughMount(*proc_, "/m/data/grown.dat", want.size()), want);
  EXPECT_GT(conn_->stats().spliced_bytes, 0u) << "big windows must still splice";
}

// --- queue-depth stats ---

TEST_F(AdaptiveIoTest, QueueDepthStatsTrackEnqueuedRequests) {
  Mount(FuseMountOptions::Optimized());
  const std::string want = Pattern(64 * 1024);
  SeedFile("/data/depth.dat", want);
  EXPECT_EQ(ReadThroughMount(*proc_, "/m/data/depth.dat", want.size()), want);
  EXPECT_GE(conn_->stats().max_queue_depth, 1u);
  uint64_t per_channel_max = 0;
  for (size_t i = 0; i < conn_->num_channels(); ++i) {
    per_channel_max = std::max(per_channel_max, conn_->channel_max_queue_depth(i));
  }
  EXPECT_EQ(per_channel_max, conn_->stats().max_queue_depth);
}

}  // namespace
}  // namespace cntr::fuse
