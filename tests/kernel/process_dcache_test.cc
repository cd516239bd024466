// Unit tests for the process/fd-table layer and the dentry cache — the
// pieces whose behaviour drives CNTR's lookup-cost story.
#include <gtest/gtest.h>

#include <new>

#include "src/kernel/dcache.h"
#include "src/kernel/kernel.h"

namespace cntr::kernel {
namespace {

TEST(FdTableTest, InstallAllocatesLowestFreeFd) {
  FdTable table;
  auto file = std::make_shared<FileDescription>(nullptr, kORdOnly);
  auto a = table.Install(file, false);
  auto b = table.Install(file, false);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), 0);
  EXPECT_EQ(b.value(), 1);
  ASSERT_TRUE(table.Take(a.value()).ok());
  auto c = table.Install(file, false);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), 0) << "freed fd must be reused first";
}

TEST(FdTableTest, EnforcesNofileLimit) {
  FdTable table(/*max_fds=*/4);
  auto file = std::make_shared<FileDescription>(nullptr, kORdOnly);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.Install(file, false).ok());
  }
  EXPECT_EQ(table.Install(file, false).error(), EMFILE);
}

TEST(FdTableTest, CopyFromSharesDescriptions) {
  FdTable parent;
  auto file = std::make_shared<FileDescription>(nullptr, kORdOnly);
  auto fd = parent.Install(file, false);
  ASSERT_TRUE(fd.ok());
  FdTable child;
  child.CopyFrom(parent);
  auto got = child.Get(fd.value());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), file.get()) << "fork shares open file descriptions";
}

TEST(ProcessTest, PidVisibilityAcrossNamespaces) {
  auto kernel = Kernel::Create();
  auto outer = kernel->Fork(*kernel->init(), "outer");
  ASSERT_TRUE(kernel->Unshare(*outer, kCloneNewPid).ok());
  auto inner = kernel->Fork(*outer, "inner");

  // From the root namespace both processes are visible with global pids.
  EXPECT_EQ(inner->PidInNs(*kernel->init()->pid_ns), inner->global_pid());
  // From the nested namespace, inner has a small pid and init is invisible.
  EXPECT_EQ(inner->PidInNs(*outer->pid_ns), 2);
  EXPECT_EQ(kernel->init()->PidInNs(*outer->pid_ns), 0);
}

TEST(DentryCacheTest, HitReturnsInsertedChild) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics);
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());
  dcache.Insert(root.get(), "etc", etc.value(), UINT64_MAX);
  EXPECT_EQ(dcache.Lookup(root.get(), "etc").get(), etc.value().get());
  EXPECT_EQ(dcache.Lookup(root.get(), "usr"), nullptr);
  EXPECT_GT(dcache.stats().hits, 0u);
}

TEST(DentryCacheTest, FiniteTtlExpires) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics);
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());
  dcache.Insert(root.get(), "etc", etc.value(), /*ttl=*/1000);
  EXPECT_NE(dcache.Lookup(root.get(), "etc"), nullptr);
  clock.Advance(2000);
  EXPECT_EQ(dcache.Lookup(root.get(), "etc"), nullptr) << "FUSE-style TTL must expire";
  EXPECT_GT(dcache.stats().expiries, 0u);
}

TEST(DentryCacheTest, NegativeEntriesAnswerEnoentUntilTtl) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics);
  auto root = kernel->root_fs()->root();

  EXPECT_FALSE(dcache.LookupEntry(root.get(), "ghost").has_value()) << "cold: a true miss";
  dcache.InsertNegative(root.get(), "ghost", /*ttl=*/1000);
  auto cached = dcache.LookupEntry(root.get(), "ghost");
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, nullptr) << "negative hit: known absent, no round trip";
  EXPECT_EQ(dcache.stats().negative_hits, 1u);
  clock.Advance(2000);
  EXPECT_FALSE(dcache.LookupEntry(root.get(), "ghost").has_value())
      << "negative entries expire with the entry TTL like positive ones";
}

TEST(DentryCacheTest, PositiveInsertOverwritesNegative) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics);
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());

  dcache.InsertNegative(root.get(), "etc", /*ttl=*/1'000'000'000);
  dcache.Insert(root.get(), "etc", etc.value(), UINT64_MAX);
  auto cached = dcache.LookupEntry(root.get(), "etc");
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->get(), etc.value().get()) << "a local create must bury the negative";

  dcache.InsertNegative(root.get(), "gone", /*ttl=*/1'000'000'000);
  dcache.Invalidate(root.get(), "gone");
  EXPECT_FALSE(dcache.LookupEntry(root.get(), "gone").has_value());
}

TEST(DentryCacheTest, InvalidationRemovesEntries) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics);
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());
  dcache.Insert(root.get(), "etc", etc.value(), UINT64_MAX);
  dcache.Invalidate(root.get(), "etc");
  EXPECT_EQ(dcache.Lookup(root.get(), "etc"), nullptr);
}

TEST(DentryCacheTest, NativeLookupsAreCachedAcrossCalls) {
  // End to end: the second resolution of the same path must not call into
  // the filesystem again (dcache hit), which is why native lookups are
  // cheap and FUSE's finite TTL is the paper's bottleneck.
  auto kernel = Kernel::Create();
  auto proc = kernel->init();
  ASSERT_TRUE(kernel->Mkdir(*proc, "/tmp/cached").ok());
  ASSERT_TRUE(kernel->Stat(*proc, "/tmp/cached").ok());
  auto before = kernel->dcache().stats();
  ASSERT_TRUE(kernel->Stat(*proc, "/tmp/cached").ok());
  auto after = kernel->dcache().stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(DentryCacheTest, ShardedLruEvictsAtMaxEntries) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  // Two lock stripes of 64 entries each; the cache must stay bounded and
  // evict least-recently-used entries per shard once it fills.
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics, /*max_entries=*/128, /*num_shards=*/2);
  ASSERT_EQ(dcache.num_shards(), 2u);
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());
  for (int i = 0; i < 300; ++i) {
    dcache.Insert(root.get(), "entry-" + std::to_string(i), etc.value(), UINT64_MAX);
  }
  EXPECT_LE(dcache.size(), 128u) << "cache must stay bounded at max_entries";
  EXPECT_GT(dcache.stats().evictions, 0u);
  // The most recent insert sits at its shard's LRU front and must survive.
  EXPECT_NE(dcache.Lookup(root.get(), "entry-299"), nullptr);
  // The LRU touch on lookup keeps hot entries alive: re-look-up a survivor,
  // then insert more; the touched entry must outlive untouched neighbours.
  InodePtr hot = dcache.Lookup(root.get(), "entry-298");
  if (hot != nullptr) {
    for (int i = 300; i < 330; ++i) {
      dcache.Insert(root.get(), "entry-" + std::to_string(i), etc.value(), UINT64_MAX);
      (void)dcache.Lookup(root.get(), "entry-298");
    }
    EXPECT_NE(dcache.Lookup(root.get(), "entry-298"), nullptr);
  }
}

TEST(DentryCacheTest, InvalidateDirSweepsEveryShard) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics, /*max_entries=*/1024, /*num_shards=*/4);
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());
  for (int i = 0; i < 64; ++i) {
    dcache.Insert(root.get(), "sweep-" + std::to_string(i), etc.value(), UINT64_MAX);
  }
  dcache.InvalidateDir(root.get());
  EXPECT_EQ(dcache.size(), 0u);
  EXPECT_EQ(dcache.Lookup(root.get(), "sweep-0"), nullptr);
}

// A bare directory inode: all the dentry cache needs of a parent.
class StubDir : public Inode {
 public:
  using Inode::Inode;
  StatusOr<InodeAttr> Getattr() override { return InodeAttr{}; }
};

// Nothing removes a dead directory's entries, and the allocator hands its
// storage to the next inode. A directory of another mount that lands there
// must not inherit them: entries are keyed by Inode::id(), never reused.
TEST(DentryCacheTest, ReusedDirectoryAddressDoesNotInheritEntries) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics);
  auto etc = kernel->root_fs()->root()->Lookup("etc");
  ASSERT_TRUE(etc.ok());

  alignas(StubDir) unsigned char storage[sizeof(StubDir)];
  auto* a = new (storage) StubDir(nullptr, 2);
  dcache.Insert(a, "fleet", etc.value(), UINT64_MAX);
  EXPECT_NE(dcache.Lookup(a, "fleet"), nullptr);
  a->~StubDir();

  auto* b = new (storage) StubDir(kernel->root_fs().get(), 2);
  ASSERT_EQ(static_cast<void*>(b), static_cast<void*>(a));
  EXPECT_EQ(dcache.Lookup(b, "fleet"), nullptr)
      << "a directory at a dead one's address answered with the dead one's child";
  b->~StubDir();
}

// The entry gauge is bookkeeping at every insert and removal site; each
// path must keep it equal to a sweep of the shards.
TEST(DentryCacheTest, EntryGaugeTracksEveryRemovalPath) {
  SimClock clock;
  CostModel costs;
  auto kernel = Kernel::Create();  // outlives the cache: entries pin inodes
  obs::MetricsRegistry metrics;
  DentryCache dcache(&clock, &costs, metrics, /*max_entries=*/32, /*num_shards=*/2);
  const obs::Gauge* entries = metrics.GetGauge("cntr_dcache_entries");
  auto expect_gauge = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(static_cast<size_t>(entries->Value()), dcache.size());
  };
  auto root = kernel->root_fs()->root();
  auto etc = root->Lookup("etc");
  ASSERT_TRUE(etc.ok());
  const Inode* dir = root.get();
  const Inode* sub = etc.value().get();

  for (int i = 0; i < 48; ++i) {
    dcache.Insert(dir, "n" + std::to_string(i), etc.value(), UINT64_MAX);
  }
  EXPECT_GT(dcache.stats().evictions, 0u);
  expect_gauge("insert past capacity");

  dcache.Insert(dir, "n47", etc.value(), UINT64_MAX);
  expect_gauge("overwrite in place");

  dcache.InsertNegative(dir, "absent", /*ttl_ns=*/1000);
  dcache.InsertNegative(sub, "absent", UINT64_MAX);
  for (int i = 0; i < 4; ++i) {
    dcache.Insert(sub, "s" + std::to_string(i), etc.value(), /*ttl_ns=*/1000);
  }
  expect_gauge("InsertNegative");

  clock.Advance(2000);
  EXPECT_FALSE(dcache.LookupEntry(dir, "absent").has_value());
  EXPECT_FALSE(dcache.LookupEntry(sub, "s3").has_value());
  EXPECT_GT(dcache.stats().expiries, 0u);
  expect_gauge("TTL expiry");

  dcache.Invalidate(dir, "n47");
  dcache.Invalidate(dir, "never-cached");
  expect_gauge("Invalidate");

  dcache.InvalidateDir(sub);
  expect_gauge("InvalidateDir");

  dcache.Clear();
  expect_gauge("Clear");
  EXPECT_EQ(entries->Value(), 0);
}

TEST(CapSetTest, RoundTripsThroughRaw) {
  CapSet caps{Capability::kChown, Capability::kSysAdmin};
  CapSet restored = CapSet::FromRaw(caps.raw());
  EXPECT_TRUE(restored.Has(Capability::kChown));
  EXPECT_TRUE(restored.Has(Capability::kSysAdmin));
  EXPECT_FALSE(restored.Has(Capability::kSysPtrace));
  restored.Remove(Capability::kSysAdmin);
  EXPECT_FALSE(restored.Has(Capability::kSysAdmin));
  EXPECT_EQ(CapSet::Full().Intersect(CapSet::Empty()).raw(), 0u);
}

TEST(UserNamespaceTest, NestedMapsCompose) {
  UserNamespace outer;
  outer.SetUidMap({{0, 100000, 1000}});
  EXPECT_EQ(outer.MapUidToHost(5), 100005u);
  EXPECT_EQ(outer.MapUidFromHost(100005), 5u);
  EXPECT_EQ(outer.MapUidToHost(5000), kOverflowUid) << "outside every range";
}

}  // namespace
}  // namespace cntr::kernel
