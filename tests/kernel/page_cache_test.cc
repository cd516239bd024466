// Unit tests for the shared page-cache pool: LRU eviction, dirty pinning,
// per-owner accounting, and extent coalescing — the machinery behind the
// paper's caching results.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "src/kernel/page_cache.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace cntr::kernel {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  SimClock clock_;
  CostModel costs_;
  obs::MetricsRegistry metrics_;
};

TEST_F(PageCacheTest, StoreAndReadBack) {
  PageCachePool pool(&clock_, &costs_, metrics_, 1 << 20);
  char page[kPageSize];
  std::memset(page, 'x', sizeof(page));
  pool.StorePage(this, 0, page, false);
  char out[kPageSize] = {};
  ASSERT_TRUE(pool.ReadPage(this, 0, out));
  EXPECT_EQ(out[100], 'x');
  EXPECT_FALSE(pool.ReadPage(this, 1, out));
}

TEST_F(PageCacheTest, OwnersAreIsolated) {
  PageCachePool pool(&clock_, &costs_, metrics_, 1 << 20);
  char page[kPageSize] = {};
  int owner_a = 0;
  int owner_b = 0;
  pool.StorePage(&owner_a, 0, page, false);
  char out[kPageSize];
  EXPECT_TRUE(pool.ReadPage(&owner_a, 0, out));
  EXPECT_FALSE(pool.ReadPage(&owner_b, 0, out));
}

TEST_F(PageCacheTest, CapacityEvictsCleanLru) {
  PageCachePool pool(&clock_, &costs_, metrics_, 4 * kPageSize);
  char page[kPageSize] = {};
  for (uint64_t i = 0; i < 8; ++i) {
    pool.StorePage(this, i, page, false);
  }
  EXPECT_LE(pool.ResidentBytes(), 4 * kPageSize);
  char out[kPageSize];
  // The most recent pages survive; the oldest were evicted.
  EXPECT_TRUE(pool.ReadPage(this, 7, out));
  EXPECT_FALSE(pool.ReadPage(this, 0, out));
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST_F(PageCacheTest, DirtyPagesArePinned) {
  PageCachePool pool(&clock_, &costs_, metrics_, 4 * kPageSize);
  char page[kPageSize] = {};
  for (uint64_t i = 0; i < 3; ++i) {
    pool.StorePage(this, i, page, /*dirty=*/true);
  }
  for (uint64_t i = 3; i < 10; ++i) {
    pool.StorePage(this, i, page, /*dirty=*/false);
  }
  char out[kPageSize];
  // All dirty pages must still be resident despite the capacity pressure.
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.ReadPage(this, i, out)) << i;
  }
  EXPECT_EQ(pool.DirtyBytes(this), 3 * kPageSize);
}

TEST_F(PageCacheTest, MarkCleanAllowsEviction) {
  PageCachePool pool(&clock_, &costs_, metrics_, 2 * kPageSize);
  char page[kPageSize] = {};
  pool.StorePage(this, 0, page, true);
  EXPECT_EQ(pool.TotalDirtyBytes(), kPageSize);
  pool.MarkClean(this, 0);
  EXPECT_EQ(pool.TotalDirtyBytes(), 0u);
  pool.StorePage(this, 1, page, false);
  pool.StorePage(this, 2, page, false);
  char out[kPageSize];
  EXPECT_FALSE(pool.ReadPage(this, 0, out));  // evicted after cleaning
}

TEST_F(PageCacheTest, UpdatePageReportsDirtyTransition) {
  PageCachePool pool(&clock_, &costs_, metrics_, 1 << 20);
  char page[kPageSize] = {};
  EXPECT_EQ(pool.UpdatePage(this, 0, 0, 4, "abcd", true),
            PageCachePool::UpdateResult::kNotResident);
  pool.StorePage(this, 0, page, false);
  EXPECT_EQ(pool.UpdatePage(this, 0, 0, 4, "abcd", true),
            PageCachePool::UpdateResult::kNewlyDirty);
  EXPECT_EQ(pool.UpdatePage(this, 0, 4, 4, "efgh", true),
            PageCachePool::UpdateResult::kUpdated);
  char out[kPageSize];
  ASSERT_TRUE(pool.ReadPage(this, 0, out));
  EXPECT_EQ(std::string(out, 8), "abcdefgh");
}

TEST_F(PageCacheTest, TruncateDropsTailAndZeroesBoundary) {
  PageCachePool pool(&clock_, &costs_, metrics_, 1 << 20);
  char page[kPageSize];
  std::memset(page, 'z', sizeof(page));
  pool.StorePage(this, 0, page, true);
  pool.StorePage(this, 1, page, true);
  pool.TruncatePages(this, kPageSize / 2);
  char out[kPageSize];
  EXPECT_FALSE(pool.PeekPage(this, 1, out));  // dropped
  ASSERT_TRUE(pool.PeekPage(this, 0, out));
  EXPECT_EQ(out[kPageSize / 2 - 1], 'z');
  EXPECT_EQ(out[kPageSize / 2], '\0');  // zeroed past the new size
}

TEST_F(PageCacheTest, DirtyPagesSortedForWriteback) {
  PageCachePool pool(&clock_, &costs_, metrics_, 1 << 20);
  char page[kPageSize] = {};
  for (uint64_t idx : {7u, 2u, 9u, 3u}) {
    pool.StorePage(this, idx, page, true);
  }
  auto dirty = pool.DirtyPages(this);
  EXPECT_EQ(dirty, (std::vector<uint64_t>{2, 3, 7, 9}));
}

TEST_F(PageCacheTest, DropAllCleanKeepsDirty) {
  PageCachePool pool(&clock_, &costs_, metrics_, 1 << 20);
  char page[kPageSize] = {};
  pool.StorePage(this, 0, page, true);
  pool.StorePage(this, 1, page, false);
  pool.DropAllClean();
  char out[kPageSize];
  EXPECT_TRUE(pool.PeekPage(this, 0, out));
  EXPECT_FALSE(pool.PeekPage(this, 1, out));
}

// The resident and dirty gauges are bookkeeping at every insert, erase and
// dirty-bit site; each removal path must keep them equal to a sweep of the
// shards.
TEST_F(PageCacheTest, ResidentGaugeTracksEveryRemovalPath) {
  PageCachePool pool(&clock_, &costs_, metrics_, 16 * kPageSize, /*num_shards=*/2);
  const obs::Gauge* resident = metrics_.GetGauge("cntr_page_cache_resident_bytes");
  const obs::Gauge* dirty = metrics_.GetGauge("cntr_page_cache_dirty_bytes");
  int a = 0;
  int b = 0;
  auto expect_gauges = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(static_cast<uint64_t>(resident->Value()), pool.ResidentBytes());
    uint64_t dirty_pages = pool.DirtyPages(&a).size() + pool.DirtyPages(&b).size();
    EXPECT_EQ(static_cast<uint64_t>(dirty->Value()), dirty_pages * kPageSize);
    EXPECT_EQ(pool.TotalDirtyBytes(), dirty_pages * kPageSize);
  };
  char page[kPageSize] = {};

  for (uint64_t i = 0; i < 32; ++i) {
    pool.StorePage(&a, i, page, /*dirty=*/false);
  }
  for (uint64_t i = 0; i < 4; ++i) {
    pool.StorePage(&b, i, page, /*dirty=*/true);
  }
  pool.StorePage(&b, 0, page, /*dirty=*/true);  // overwrite: no double count
  EXPECT_GT(pool.stats().evictions, 0u);
  expect_gauges("store past capacity");

  splice::PageRef shared = splice::PageRef::Alloc(kPageSize);
  splice::PageRef keep = shared;  // a second holder, so the clean install aliases
  pool.StorePageRef(&a, 100, shared, /*dirty=*/false, /*allow_alias=*/true);
  pool.StorePageRef(&b, 100, splice::PageRef::Alloc(kPageSize), /*dirty=*/true,
                    /*allow_alias=*/false);
  expect_gauges("StorePageRef clean and dirty");

  ASSERT_TRUE(pool.StealPage(&a, 100).has_value());
  expect_gauges("StealPage");

  pool.Drop(&b, 0);
  pool.Drop(&a, 31);
  expect_gauges("Drop");

  pool.TruncatePages(&b, 2 * kPageSize);
  expect_gauges("TruncatePages");

  ASSERT_TRUE(pool.MarkClean(&b, 1));
  pool.DropAllClean();
  expect_gauges("MarkClean + DropAllClean");
  EXPECT_EQ(pool.ResidentBytes(), 0u) << "b's last page was cleaned, so nothing is pinned";

  pool.StorePage(&b, 7, page, /*dirty=*/true);
  pool.StorePage(&b, 8, page, /*dirty=*/false);
  pool.DropAll(&b);
  expect_gauges("DropAll");
  EXPECT_EQ(resident->Value(), 0);
}

TEST(CountExtentsTest, CoalescesRuns) {
  EXPECT_EQ(CountExtents({}), 0u);
  EXPECT_EQ(CountExtents({5}), 1u);
  EXPECT_EQ(CountExtents({1, 2, 3}), 1u);
  EXPECT_EQ(CountExtents({1, 2, 4, 5, 9}), 3u);
}

// Property sweep: after any interleaving of stores and updates, a read
// always returns the most recent content.
class PageCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCachePropertyTest, LastWriteWins) {
  SimClock clock;
  CostModel costs;
  obs::MetricsRegistry metrics;
  PageCachePool pool(&clock, &costs, metrics, 1 << 22);
  Rng rng(GetParam());
  // Shadow model: expected content per page.
  std::map<uint64_t, std::array<char, kPageSize>> shadow;
  int owner = 0;
  for (int step = 0; step < 500; ++step) {
    uint64_t idx = rng.Below(16);
    char fill = static_cast<char>('a' + rng.Below(26));
    if (rng.Chance(1, 2) || shadow.count(idx) == 0) {
      std::array<char, kPageSize> page;
      page.fill(fill);
      pool.StorePage(&owner, idx, page.data(), rng.Chance(1, 3));
      shadow[idx] = page;
    } else {
      uint32_t off = static_cast<uint32_t>(rng.Below(kPageSize - 16));
      char patch[16];
      std::memset(patch, fill, sizeof(patch));
      if (pool.UpdatePage(&owner, idx, off, 16, patch, true) !=
          PageCachePool::UpdateResult::kNotResident) {
        std::memcpy(shadow[idx].data() + off, patch, 16);
      }
    }
  }
  for (const auto& [idx, expected] : shadow) {
    char out[kPageSize];
    if (pool.PeekPage(&owner, idx, out)) {
      EXPECT_EQ(std::memcmp(out, expected.data(), kPageSize), 0) << "page " << idx;
    }
  }
}

// Property sweep over the per-owner index: several owners whose pages land
// on all 16 shards, next to a clean ballast owner that fills the cache past
// capacity so inserts evict. After every step the pool must agree with a
// reference model on each owner's resident pages, its sorted dirty pages
// and dirty bytes, the dirty bytes TruncatePages/DropAll report, the
// contents of the owner just touched, and the resident/dirty gauges.
TEST_P(PageCachePropertyTest, PerOwnerIndexMatchesReferenceModel) {
  constexpr int kOwners = 6;
  constexpr uint64_t kIdxSpan = 40;
  constexpr uint64_t kBallastPages = 1100;
  SimClock clock;
  CostModel costs;
  obs::MetricsRegistry metrics;
  PageCachePool pool(&clock, &costs, metrics, 1024 * kPageSize);
  ASSERT_EQ(pool.num_shards(), 16u);
  const obs::Gauge* resident = metrics.GetGauge("cntr_page_cache_resident_bytes");
  const obs::Gauge* dirty_gauge = metrics.GetGauge("cntr_page_cache_dirty_bytes");
  Rng rng(GetParam());

  struct ModelPage {
    std::array<char, kPageSize> data;
    bool dirty = false;
  };
  std::array<int, kOwners> owners{};
  std::array<std::map<uint64_t, ModelPage>, kOwners> model;
  int ballast_owner = 0;
  std::set<uint64_t> ballast;
  {
    char zero[kPageSize] = {};
    for (uint64_t i = 0; i < kBallastPages; ++i) {
      pool.StorePage(&ballast_owner, i, zero, /*dirty=*/false);
      ballast.insert(i);
    }
    std::erase_if(ballast, [&](uint64_t i) { return !pool.HasPage(&ballast_owner, i); });
    ASSERT_EQ(kBallastPages - ballast.size(), pool.stats().evictions);
  }
  auto expect_contents = [&](int m) {
    for (const auto& [i, page] : model[m]) {
      char out[kPageSize];
      ASSERT_TRUE(pool.PeekPage(&owners[m], i, out)) << "owner " << m << " page " << i;
      EXPECT_EQ(std::memcmp(out, page.data.data(), kPageSize), 0)
          << "owner " << m << " page " << i;
    }
  };

  size_t owner_evictions = 0;
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " step " << step);
    int o = static_cast<int>(rng.Below(kOwners));
    const void* owner = &owners[o];
    uint64_t idx = rng.Below(kIdxSpan);
    char fill = static_cast<char>('a' + rng.Below(26));
    auto& pages = model[o];
    auto mit = pages.find(idx);
    // Now and then make the ballast hot, so the owners' cold clean pages
    // get evicted too, not only ballast.
    if (step % 16 == 0) {
      char sink[kPageSize];
      for (uint64_t i : ballast) {
        ASSERT_TRUE(pool.ReadPage(&ballast_owner, i, sink));
      }
    }
    uint64_t evictions_before = pool.stats().evictions;
    switch (rng.Below(12)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // StorePage
        bool dirty = rng.Chance(1, 2);
        std::array<char, kPageSize> data;
        data.fill(fill);
        bool newly_dirty = dirty && (mit == pages.end() || !mit->second.dirty);
        EXPECT_EQ(pool.StorePage(owner, idx, data.data(), dirty), newly_dirty);
        ModelPage& page = pages[idx];
        page.data = data;
        page.dirty = page.dirty || dirty;
        break;
      }
      case 4:
      case 5: {  // UpdatePage
        bool mark_dirty = rng.Chance(2, 3);
        uint32_t off = static_cast<uint32_t>(rng.Below(kPageSize - 64));
        uint32_t len = static_cast<uint32_t>(1 + rng.Below(64));
        char patch[64];
        std::memset(patch, fill, sizeof(patch));
        auto res = pool.UpdatePage(owner, idx, off, len, patch, mark_dirty);
        if (mit == pages.end()) {
          EXPECT_EQ(res, PageCachePool::UpdateResult::kNotResident);
          break;
        }
        std::memcpy(mit->second.data.data() + off, patch, len);
        if (mark_dirty && !mit->second.dirty) {
          EXPECT_EQ(res, PageCachePool::UpdateResult::kNewlyDirty);
          mit->second.dirty = true;
        } else {
          EXPECT_EQ(res, PageCachePool::UpdateResult::kUpdated);
        }
        break;
      }
      case 6:
      case 7: {  // MarkClean
        bool was_dirty = mit != pages.end() && mit->second.dirty;
        EXPECT_EQ(pool.MarkClean(owner, idx), was_dirty);
        if (was_dirty) {
          mit->second.dirty = false;
        }
        break;
      }
      case 8: {  // StealPage: a clean page leaves the cache as a reference
        auto ref = pool.StealPage(owner, idx);
        if (mit == pages.end() || mit->second.dirty) {
          EXPECT_FALSE(ref.has_value());
          break;
        }
        ASSERT_TRUE(ref.has_value());
        EXPECT_EQ(std::memcmp(ref->data(), mit->second.data.data(), kPageSize), 0);
        pages.erase(mit);
        break;
      }
      case 9:
      case 10: {  // TruncatePages
        uint64_t new_size = rng.Below(kIdxSpan * kPageSize);
        auto boundary = pages.find(new_size / kPageSize);
        if (new_size % kPageSize != 0 && boundary != pages.end()) {
          uint64_t keep = new_size % kPageSize;
          std::memset(boundary->second.data.data() + keep, 0, kPageSize - keep);
        }
        uint64_t dropped_dirty = 0;
        auto it = pages.lower_bound((new_size + kPageSize - 1) / kPageSize);
        while (it != pages.end()) {
          dropped_dirty += it->second.dirty ? kPageSize : 0;
          it = pages.erase(it);
        }
        EXPECT_EQ(pool.TruncatePages(owner, new_size), dropped_dirty);
        break;
      }
      default: {  // DropAll
        uint64_t dirty = 0;
        for (const auto& [i, page] : pages) {
          dirty += page.dirty ? kPageSize : 0;
        }
        EXPECT_EQ(pool.DropAll(owner), dirty);
        pages.clear();
        break;
      }
    }

    // Inserts may have evicted clean pages; dirty pages never leave on
    // their own. Every page that vanished must be one counted eviction, so
    // no operation dropped a page it should not have.
    size_t evicted = std::erase_if(ballast, [&](uint64_t i) {
      return !pool.HasPage(&ballast_owner, i);
    });
    for (int m = 0; m < kOwners; ++m) {
      size_t n = std::erase_if(model[m], [&](const auto& entry) {
        return !entry.second.dirty && !pool.HasPage(&owners[m], entry.first);
      });
      evicted += n;
      owner_evictions += n;
    }
    EXPECT_EQ(evicted, pool.stats().evictions - evictions_before);

    uint64_t total_pages = ballast.size();
    uint64_t total_dirty = 0;
    for (int m = 0; m < kOwners; ++m) {
      std::vector<uint64_t> expect_dirty;
      for (uint64_t i = 0; i < kIdxSpan; ++i) {
        auto it = model[m].find(i);
        EXPECT_EQ(pool.HasPage(&owners[m], i), it != model[m].end())
            << "owner " << m << " page " << i;
        if (it != model[m].end() && it->second.dirty) {
          expect_dirty.push_back(i);
        }
      }
      EXPECT_EQ(pool.DirtyPages(&owners[m]), expect_dirty) << "owner " << m;
      EXPECT_EQ(pool.DirtyBytes(&owners[m]), expect_dirty.size() * kPageSize) << "owner " << m;
      total_pages += model[m].size();
      total_dirty += expect_dirty.size();
    }
    expect_contents(o);
    EXPECT_EQ(pool.ResidentBytes(), total_pages * kPageSize);
    EXPECT_EQ(static_cast<uint64_t>(resident->Value()), total_pages * kPageSize);
    EXPECT_EQ(static_cast<uint64_t>(dirty_gauge->Value()), total_dirty * kPageSize);
    EXPECT_EQ(pool.TotalDirtyBytes(), total_dirty * kPageSize);
    if (::testing::Test::HasFailure()) {
      return;  // the first divergence is the one worth reading
    }
  }
  for (int m = 0; m < kOwners; ++m) {
    expect_contents(m);
  }
  EXPECT_GT(owner_evictions, 0u) << "the sweep must evict the owners' pages too";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCachePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace cntr::kernel
