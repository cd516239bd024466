// Splice subsystem semantics: page-steal vs. copy fallback at the page
// cache boundary, tee refcounting (shared pages are never mutated in
// place), pipe resize limits (the F_SETPIPE_SZ analogue), the vmsplice /
// tee / pipe-to-pipe splice syscalls, and the PipeBuffer partial-write
// audit — a write that queued >0 bytes under backpressure reports the short
// count, never EAGAIN/EPIPE.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "src/kernel/kernel.h"
#include "src/kernel/page_cache.h"
#include "src/kernel/pipe.h"
#include "src/splice/page_ref.h"
#include "src/splice/splice.h"

namespace cntr::kernel {
namespace {

class SpliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = Kernel::Create();
    proc_ = kernel_->Fork(*kernel_->init(), "splice");
  }

  std::pair<Fd, Fd> MakePipe() {
    auto pipe = kernel_->Pipe(*proc_);
    EXPECT_TRUE(pipe.ok());
    return pipe.value();
  }

  std::unique_ptr<Kernel> kernel_;
  ProcessPtr proc_;
};

// --- PipeBuffer partial-write audit (regression tests) ---

TEST_F(SpliceTest, NonblockShortWriteReturnsBytesWrittenNotEagain) {
  PipeBuffer buf(nullptr, /*capacity=*/4096);
  buf.AddReader();
  buf.AddWriter();
  std::string payload(8192, 'x');
  auto n = buf.Write(payload.data(), payload.size(), /*nonblock=*/true);
  ASSERT_TRUE(n.ok()) << "a short write with >0 bytes queued must not be EAGAIN";
  EXPECT_EQ(n.value(), 4096u);
  // Nothing fits now: only a write that queued zero bytes may fail EAGAIN.
  EXPECT_EQ(buf.Write(payload.data(), payload.size(), true).error(), EAGAIN);
}

TEST_F(SpliceTest, WriteAfterReaderVanishesReportsShortCount) {
  PipeBuffer buf(nullptr, /*capacity=*/4096);
  buf.AddReader();
  buf.AddWriter();
  std::string payload(8192, 'y');
  std::thread writer([&] {
    auto n = buf.Write(payload.data(), payload.size(), /*nonblock=*/false);
    // 4096 bytes queued, then the reader vanished: short count, not EPIPE.
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 4096u);
  });
  while (buf.Available() < 4096) {
    std::this_thread::yield();
  }
  buf.DropReader();  // writer is blocked on a full ring with 4096 queued
  writer.join();
  // With no readers and nothing queued by this call: EPIPE.
  EXPECT_EQ(buf.Write(payload.data(), 1, true).error(), EPIPE);
}

TEST_F(SpliceTest, BlockedWriterResumesWhenReaderDrains) {
  PipeBuffer buf(nullptr, /*capacity=*/4096);
  buf.AddReader();
  buf.AddWriter();
  std::string payload(6000, 'z');
  std::thread writer([&] {
    auto n = buf.Write(payload.data(), payload.size(), /*nonblock=*/false);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 6000u);
  });
  while (buf.Available() < 4096) {
    std::this_thread::yield();
  }
  char sink[4096];
  ASSERT_TRUE(buf.Read(sink, sizeof(sink), false).ok());
  writer.join();
  EXPECT_EQ(buf.Available(), 6000u - 4096u);
}

// --- pipe resize (F_SETPIPE_SZ analogue) ---

TEST_F(SpliceTest, SetCapacityRoundsUpToPowerOfTwo) {
  PipeBuffer buf(nullptr, 65536);
  auto cap = buf.SetCapacity(5000);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(cap.value(), 8192u);
  EXPECT_EQ(buf.capacity(), 8192u);
}

TEST_F(SpliceTest, SetCapacityRefusesBelowBufferedData) {
  PipeBuffer buf(nullptr, 65536);
  buf.AddReader();
  buf.AddWriter();
  std::string payload(10000, 'a');
  ASSERT_TRUE(buf.Write(payload.data(), payload.size(), false).ok());
  EXPECT_EQ(buf.SetCapacity(4096).error(), EBUSY);
  EXPECT_EQ(buf.capacity(), 65536u);
}

TEST_F(SpliceTest, SetCapacityEnforcesUnprivilegedMax) {
  PipeBuffer buf(nullptr, 65536);
  EXPECT_EQ(buf.SetCapacity(kPipeMaxCapacity + 1).error(), EPERM);
  auto cap = buf.SetCapacity(kPipeMaxCapacity);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(cap.value(), kPipeMaxCapacity);
}

TEST_F(SpliceTest, PipeSizeSyscallsRoundTrip) {
  auto [rfd, wfd] = MakePipe();
  auto got = kernel_->GetPipeSize(*proc_, rfd);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 65536u);
  // Either end names the same ring.
  auto set = kernel_->SetPipeSize(*proc_, wfd, 128 * 1024);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value(), 128u * 1024u);
  got = kernel_->GetPipeSize(*proc_, rfd);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 128u * 1024u);
  EXPECT_EQ(kernel_->SetPipeSize(*proc_, rfd, 2 << 20).error(), EPERM);
}

// --- segment machinery: push/pop, splitting, tee refcounting ---

TEST_F(SpliceTest, PopSegmentsSplitsAtByteBudget) {
  PipeBuffer buf(nullptr, 65536);
  buf.AddReader();
  buf.AddWriter();
  std::vector<PipeSegment> segs;
  segs.push_back(PipeSegment::Of(splice::PageRef::Copy("aaaa", 4)));
  segs.push_back(PipeSegment::Of(splice::PageRef::Copy("bbbbbbbb", 8)));
  ASSERT_TRUE(buf.PushSegments(std::move(segs), false).ok());
  auto head = buf.PopSegments(/*max_bytes=*/6, false);
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(head->size(), 2u);
  EXPECT_EQ(std::string((*head)[0].data(), (*head)[0].size()), "aaaa");
  EXPECT_EQ(std::string((*head)[1].data(), (*head)[1].size()), "bb");
  // The split tail stayed queued and shares the second page.
  EXPECT_EQ(buf.Available(), 6u);
  char rest[16];
  auto n = buf.Read(rest, sizeof(rest), true);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(rest, n.value()), "bbbbbb");
}

TEST_F(SpliceTest, TeeDuplicatesWithoutConsumingAndNeverMutatesSharedPages) {
  auto [rfd_a, wfd_a] = MakePipe();
  auto [rfd_b, wfd_b] = MakePipe();
  ASSERT_TRUE(kernel_->Write(*proc_, wfd_a, "shared payload", 14).ok());
  auto teed = kernel_->Tee(*proc_, rfd_a, wfd_b, 1 << 16);
  ASSERT_TRUE(teed.ok());
  EXPECT_EQ(teed.value(), 14u);
  EXPECT_GT(kernel_->splice_engine().stats().teed_pages, 0u);
  // The source still has its bytes; appending to it after the tee must not
  // leak into the duplicate (the shared tail page is copy-protected).
  ASSERT_TRUE(kernel_->Write(*proc_, wfd_a, "+MORE", 5).ok());
  char a[64];
  auto na = kernel_->Read(*proc_, rfd_a, a, sizeof(a));
  ASSERT_TRUE(na.ok());
  EXPECT_EQ(std::string(a, na.value()), "shared payload+MORE");
  char b[64];
  auto nb = kernel_->Read(*proc_, rfd_b, b, sizeof(b));
  ASSERT_TRUE(nb.ok());
  EXPECT_EQ(std::string(b, nb.value()), "shared payload");
}

TEST_F(SpliceTest, VmspliceThenPipeToPipeSpliceMovesBytes) {
  auto [rfd_a, wfd_a] = MakePipe();
  auto [rfd_b, wfd_b] = MakePipe();
  std::string payload(3 * kPageSize + 17, 'v');
  auto in = kernel_->Vmsplice(*proc_, wfd_a, payload.data(), payload.size(), /*gift=*/true);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.value(), payload.size());
  auto moved = kernel_->Splice(*proc_, rfd_a, wfd_b, 1 << 20);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), payload.size());
  std::string out(payload.size(), '\0');
  size_t got = 0;
  while (got < out.size()) {
    auto n = kernel_->Read(*proc_, rfd_b, out.data() + got, out.size() - got);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(n.value(), 0u);
    got += n.value();
  }
  EXPECT_EQ(out, payload);
  EXPECT_GT(kernel_->splice_engine().stats().spliced_pages, 0u);
}

TEST_F(SpliceTest, SpliceToFullPipeLeavesUnmovedBytesInSource) {
  auto [rfd_a, wfd_a] = MakePipe();
  auto [rfd_b, wfd_b] = MakePipe();
  ASSERT_TRUE(kernel_->SetPipeSize(*proc_, wfd_b, kPageSize).ok());
  // Nonblocking destination: the splice can only move what fits.
  auto bfile = kernel_->GetFile(*proc_, wfd_b);
  ASSERT_TRUE(bfile.ok());
  (*bfile)->set_flags((*bfile)->flags() | kONonblock);
  std::string payload(3 * kPageSize, 'q');
  ASSERT_TRUE(kernel_->Vmsplice(*proc_, wfd_a, payload.data(), payload.size(), true).ok());
  auto moved = kernel_->Splice(*proc_, rfd_a, wfd_b, 1 << 20);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), static_cast<size_t>(kPageSize)) << "only one page fits";
  // splice(2) must not lose the unmoved tail: it stays readable from the
  // source pipe.
  std::string rest(2 * kPageSize, '\0');
  size_t got = 0;
  while (got < rest.size()) {
    auto n = kernel_->Read(*proc_, rfd_a, rest.data() + got, rest.size() - got);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(n.value(), 0u);
    got += n.value();
  }
  EXPECT_EQ(rest, std::string(2 * kPageSize, 'q'));
}

TEST_F(SpliceTest, VmspliceNeedsPipeWriteEnd) {
  auto [rfd, wfd] = MakePipe();
  char byte = 'x';
  EXPECT_EQ(kernel_->Vmsplice(*proc_, rfd, &byte, 1).error(), EBADF);
  (void)wfd;
}

// --- page cache reference surface: steal, alias, copy fallback, COW ---

TEST_F(SpliceTest, StorePageRefStealsUniqueRefs) {
  auto& pool = kernel_->page_cache();
  int owner = 0;
  splice::PageRef ref = splice::PageRef::Copy("unique page", 11);
  ref.len = kPageSize;  // full page (zero-padded by Alloc inside Copy)
  auto res = pool.StorePageRef(&owner, 0, ref, /*dirty=*/false, /*allow_alias=*/false);
  EXPECT_EQ(res.mode, PageCachePool::StoreRefMode::kStolen);
  char out[kPageSize];
  ASSERT_TRUE(pool.PeekPage(&owner, 0, out));
  EXPECT_EQ(std::memcmp(out, ref.data(), kPageSize), 0);
  EXPECT_GT(pool.stats().ref_steals, 0u);
}

TEST_F(SpliceTest, StorePageRefSharedRefAliasesOrCopiesPerPolicy) {
  auto& pool = kernel_->page_cache();
  int owner_a = 0;
  int owner_b = 0;
  splice::PageRef ref = splice::PageRef::Alloc(kPageSize);
  std::memcpy(ref.mutable_data(), "shared", 6);
  splice::PageRef keep = ref;  // second holder: no longer unique
  auto aliased = pool.StorePageRef(&owner_a, 0, ref, false, /*allow_alias=*/true);
  EXPECT_EQ(aliased.mode, PageCachePool::StoreRefMode::kAliased);
  auto copied = pool.StorePageRef(&owner_b, 0, ref, false, /*allow_alias=*/false);
  EXPECT_EQ(copied.mode, PageCachePool::StoreRefMode::kCopied);
  char out[kPageSize];
  ASSERT_TRUE(pool.PeekPage(&owner_a, 0, out));
  EXPECT_EQ(std::memcmp(out, keep.data(), kPageSize), 0);
  ASSERT_TRUE(pool.PeekPage(&owner_b, 0, out));
  EXPECT_EQ(std::memcmp(out, keep.data(), kPageSize), 0);
}

TEST_F(SpliceTest, ShortRefAlwaysCopies) {
  auto& pool = kernel_->page_cache();
  int owner = 0;
  splice::PageRef ref = splice::PageRef::Copy("tail", 4);  // len < kPageSize
  auto res = pool.StorePageRef(&owner, 0, ref, false, /*allow_alias=*/true);
  EXPECT_EQ(res.mode, PageCachePool::StoreRefMode::kCopied);
}

TEST_F(SpliceTest, WritesToSharedPagesCopyOnWrite) {
  auto& pool = kernel_->page_cache();
  int owner = 0;
  char page[kPageSize];
  std::memset(page, 'o', kPageSize);
  pool.StorePage(&owner, 0, page, /*dirty=*/false);
  auto ref = pool.GetPageRef(&owner, 0);
  ASSERT_TRUE(ref.has_value());
  // Overwrite the cached page while the splice ref is outstanding: the
  // cache must un-share first, so the in-flight ref keeps the old bytes.
  std::memset(page, 'n', kPageSize);
  pool.StorePage(&owner, 0, page, /*dirty=*/false);
  EXPECT_EQ(ref->data()[0], 'o') << "spliced-out payload must not see later writes";
  char out[kPageSize];
  ASSERT_TRUE(pool.PeekPage(&owner, 0, out));
  EXPECT_EQ(out[0], 'n');
  EXPECT_GT(pool.stats().cow_breaks, 0u);
}

TEST_F(SpliceTest, UpdatePageCopiesOnWriteToo) {
  auto& pool = kernel_->page_cache();
  int owner = 0;
  char page[kPageSize];
  std::memset(page, 'o', kPageSize);
  pool.StorePage(&owner, 0, page, false);
  auto ref = pool.GetPageRef(&owner, 0);
  ASSERT_TRUE(ref.has_value());
  char patch[4] = {'n', 'n', 'n', 'n'};
  EXPECT_EQ(pool.UpdatePage(&owner, 0, 0, 4, patch, false),
            PageCachePool::UpdateResult::kUpdated);
  EXPECT_EQ(ref->data()[0], 'o');
  char out[kPageSize];
  ASSERT_TRUE(pool.PeekPage(&owner, 0, out));
  EXPECT_EQ(out[0], 'n');
  EXPECT_EQ(out[4], 'o');
}

TEST_F(SpliceTest, StealPageRemovesSourceEntry) {
  auto& pool = kernel_->page_cache();
  int owner = 0;
  char page[kPageSize];
  std::memset(page, 's', kPageSize);
  pool.StorePage(&owner, 0, page, /*dirty=*/false);
  auto stolen = pool.StealPage(&owner, 0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->unique()) << "a stolen page has no other owners";
  EXPECT_FALSE(pool.HasPage(&owner, 0)) << "the donor cache entry is gone";
  EXPECT_EQ(stolen->data()[0], 's');
}

TEST_F(SpliceTest, StealPageRefusesDirtyPages) {
  auto& pool = kernel_->page_cache();
  int owner = 0;
  char page[kPageSize];
  std::memset(page, 'd', kPageSize);
  pool.StorePage(&owner, 0, page, /*dirty=*/true);
  EXPECT_FALSE(pool.StealPage(&owner, 0).has_value()) << "writeback pins dirty pages";
  pool.MarkClean(&owner, 0);
  EXPECT_TRUE(pool.StealPage(&owner, 0).has_value());
}

// tmpfs files are sparse: a page-ref read (the spliced CNTRFS READ path)
// across the stored prefix and the hole past it delivers the prefix, then
// zeros up to the file size, and bytes cut by a shrink stay cut.
TEST_F(SpliceTest, TmpfsHoleReadsAsZeroPageRefs) {
  auto fd = kernel_->Open(*proc_, "/tmp/sparse", kORdWr | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "head", 4).ok());
  const uint64_t size = 3 * kPageSize + 100;
  ASSERT_TRUE(kernel_->Ftruncate(*proc_, fd.value(), size).ok());
  auto file = kernel_->GetFile(*proc_, fd.value());
  ASSERT_TRUE(file.ok());
  auto read_refs = [&](size_t count, uint64_t off) {
    auto refs = (*file)->ReadPageRefs(count, off);
    EXPECT_TRUE(refs.ok()) << refs.status().ToString();
    std::string out;
    for (const splice::PageRef& ref : refs.value()) {
      out.append(ref.data(), ref.len);
    }
    return out;
  };

  std::string got = read_refs(8 * kPageSize, 0);
  ASSERT_EQ(got.size(), size);
  EXPECT_EQ(got.substr(0, 4), "head");
  EXPECT_EQ(got.find_first_not_of('\0', 4), std::string::npos);
  got = read_refs(kPageSize, 2 * kPageSize);  // starts inside the hole
  EXPECT_EQ(got, std::string(kPageSize, '\0'));

  ASSERT_TRUE(kernel_->Ftruncate(*proc_, fd.value(), 2).ok());
  ASSERT_TRUE(kernel_->Ftruncate(*proc_, fd.value(), size).ok());
  got = read_refs(8 * kPageSize, 0);
  ASSERT_EQ(got.size(), size);
  EXPECT_EQ(got.substr(0, 4), std::string("he\0\0", 4));
  EXPECT_EQ(got.find_first_not_of('\0', 2), std::string::npos);
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
}

TEST_F(SpliceTest, PushSegmentsRequireAllIsAtomic) {
  PipeBuffer buf(nullptr, /*capacity=*/2 * kPageSize);
  buf.AddReader();
  buf.AddWriter();
  std::vector<PipeSegment> three;
  for (int i = 0; i < 3; ++i) {
    three.push_back(PipeSegment::Of(splice::PageRef::Alloc(kPageSize)));
  }
  EXPECT_EQ(buf.PushSegments(std::move(three), /*nonblock=*/true, /*require_all=*/true).error(),
            EAGAIN);
  EXPECT_EQ(buf.Available(), 0u) << "an all-or-nothing push must not queue a partial payload";
  std::vector<PipeSegment> two;
  for (int i = 0; i < 2; ++i) {
    two.push_back(PipeSegment::Of(splice::PageRef::Alloc(kPageSize)));
  }
  auto pushed = buf.PushSegments(std::move(two), true, true);
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(pushed.value(), 2u * kPageSize);
}

}  // namespace
}  // namespace cntr::kernel
