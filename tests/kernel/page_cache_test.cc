// Unit tests for the shared page-cache pool: LRU eviction, dirty pinning,
// per-owner accounting, and extent coalescing — the machinery behind the
// paper's caching results — plus model checks of the exact eviction order
// and stress of the flat index, single-threaded and under a 4-thread race.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
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

// Eviction order, pinned exactly: a pool small enough to be one shard, a
// seeded mix of the calls that move pages in, out and along the LRU, and
// after every step the pool's resident set must equal an ordered-list
// model's. In the model the most recent page is at the front; inserts and
// touches (ReadPage, GetPageRef, UpdatePage, StorePage or StorePageRef over
// a resident page) put a page there; the insert-if-absent calls neither
// overwrite nor touch a resident page; and a store past capacity scans up
// to 129 pages from the cold end for the first clean victim, stopping
// (overshoot) when there is none. The dirty share shifts by phase, so runs
// of dirty pages longer than the scan pile up at the cold end and drain.
TEST_P(PageCachePropertyTest, EvictionOrderMatchesLruModel) {
  constexpr int kOwners = 4;
  constexpr uint64_t kIdxSpan = 128;
  constexpr uint64_t kCapacityPages = 24;
  constexpr size_t kScanBound = 129;
  SimClock clock;
  CostModel costs;
  obs::MetricsRegistry metrics;
  PageCachePool pool(&clock, &costs, metrics, kCapacityPages * kPageSize);
  ASSERT_EQ(pool.num_shards(), 1u);
  Rng rng(GetParam());

  struct Entry {
    int owner;
    uint64_t idx;
    bool dirty;
  };
  std::list<Entry> lru;  // front = most recent
  std::map<std::pair<int, uint64_t>, std::list<Entry>::iterator> where;
  uint64_t model_evictions = 0;
  size_t longest_cold_dirty_run = 0;
  auto erase = [&](std::list<Entry>::iterator it) {
    where.erase({it->owner, it->idx});
    lru.erase(it);
  };
  auto evict = [&] {
    while (lru.size() > kCapacityPages) {
      auto victim = lru.end();
      size_t scanned = 0;
      for (auto it = lru.end(); it != lru.begin() && scanned < kScanBound; ++scanned) {
        if (!(--it)->dirty) {
          victim = it;
          break;
        }
      }
      if (victim == lru.end()) {
        return;
      }
      erase(victim);
      ++model_evictions;
    }
  };
  // A full-page store; returns whether it dirtied a clean or absent page.
  auto store = [&](int o, uint64_t i, bool dirty) {
    auto found = where.find({o, i});
    bool newly_dirty = dirty;
    if (found == where.end()) {
      lru.push_front({o, i, dirty});
      where[{o, i}] = lru.begin();
    } else {
      newly_dirty = dirty && !found->second->dirty;
      found->second->dirty = found->second->dirty || dirty;
      lru.splice(lru.begin(), lru, found->second);
    }
    evict();
    return newly_dirty;
  };
  auto insert_if_absent = [&](int o, uint64_t i) {
    if (where.count({o, i}) != 0) {
      return false;
    }
    store(o, i, /*dirty=*/false);
    return true;
  };

  std::array<int, kOwners> owners{};
  char page[kPageSize] = {};
  for (int step = 0; step < 4800; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " step " << step);
    uint64_t dirty_pct = std::array<uint64_t, 3>{95, 40, 10}[(step / 800) % 3];
    int o = static_cast<int>(rng.Below(kOwners));
    const void* owner = &owners[o];
    uint64_t idx = rng.Below(kIdxSpan);
    auto found = where.find({o, idx});
    bool resident = found != where.end();
    switch (rng.Below(16)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        bool dirty = rng.Below(100) < dirty_pct;
        bool newly_dirty = store(o, idx, dirty);
        EXPECT_EQ(pool.StorePage(owner, idx, page, dirty), newly_dirty);
        break;
      }
      case 4: {
        bool dirty = rng.Below(100) < dirty_pct;
        bool allow_alias = rng.Chance(1, 2);
        splice::PageRef ref = splice::PageRef::Alloc(kPageSize);
        // Half the time a second holder makes the ref shared (alias or copy).
        splice::PageRef other_holder = rng.Chance(1, 2) ? ref : splice::PageRef{};
        bool newly_dirty = store(o, idx, dirty);
        EXPECT_EQ(pool.StorePageRef(owner, idx, ref, dirty, allow_alias).newly_dirty,
                  newly_dirty);
        break;
      }
      case 5:
      case 6: {
        char out[kPageSize];
        EXPECT_EQ(pool.ReadPage(owner, idx, out), resident);
        if (resident) {
          lru.splice(lru.begin(), lru, found->second);
        }
        break;
      }
      case 7:
      case 8: {
        EXPECT_EQ(pool.GetPageRef(owner, idx).has_value(), resident);
        if (resident) {
          lru.splice(lru.begin(), lru, found->second);
        }
        break;
      }
      case 9: {
        bool mark_dirty = rng.Below(100) < dirty_pct;
        auto expected = PageCachePool::UpdateResult::kNotResident;
        if (resident) {
          expected = mark_dirty && !found->second->dirty ? PageCachePool::UpdateResult::kNewlyDirty
                                                         : PageCachePool::UpdateResult::kUpdated;
          found->second->dirty = found->second->dirty || mark_dirty;
          lru.splice(lru.begin(), lru, found->second);
        }
        EXPECT_EQ(pool.UpdatePage(owner, idx, 0, 8, "abcdefgh", mark_dirty), expected);
        break;
      }
      case 10: {
        bool inserted = insert_if_absent(o, idx);
        if (rng.Chance(1, 2)) {
          auto frame = std::make_shared<char[]>(kPageSize);
          EXPECT_EQ(pool.InsertIfAbsent(owner, idx, std::move(frame)), inserted);
        } else {
          splice::PageRef ref = splice::PageRef::Alloc(kPageSize);
          EXPECT_EQ(pool.InsertRefIfAbsent(owner, idx, ref, /*allow_alias=*/true).has_value(),
                    inserted);
        }
        break;
      }
      case 11: {
        bool was_dirty = resident && found->second->dirty;
        EXPECT_EQ(pool.MarkClean(owner, idx), was_dirty);
        if (was_dirty) {
          found->second->dirty = false;
        }
        break;
      }
      case 12:
      case 13:
        pool.Drop(owner, idx);
        if (resident) {
          erase(found->second);
        }
        break;
      case 14: {  // a truncate that usually cuts only the top few pages
        uint64_t new_size = (kIdxSpan - rng.Below(12)) * kPageSize - rng.Below(kPageSize);
        uint64_t first = (new_size + kPageSize - 1) / kPageSize;
        for (uint64_t i = first; i < kIdxSpan; ++i) {
          if (auto it = where.find({o, i}); it != where.end()) {
            erase(it->second);
          }
        }
        pool.TruncatePages(owner, new_size);
        break;
      }
      default:
        if (rng.Chance(1, 16)) {
          pool.DropAll(owner);
          for (uint64_t i = 0; i < kIdxSpan; ++i) {
            if (auto it = where.find({o, i}); it != where.end()) {
              erase(it->second);
            }
          }
        }
        break;
    }

    size_t cold_dirty_run = 0;
    for (auto it = lru.rbegin(); it != lru.rend() && it->dirty; ++it) {
      ++cold_dirty_run;
    }
    longest_cold_dirty_run = std::max(longest_cold_dirty_run, cold_dirty_run);
    for (int m = 0; m < kOwners; ++m) {
      std::vector<uint64_t> expect_dirty;
      for (uint64_t i = 0; i < kIdxSpan; ++i) {
        auto it = where.find({m, i});
        EXPECT_EQ(pool.HasPage(&owners[m], i), it != where.end())
            << "owner " << m << " page " << i;
        if (it != where.end() && it->second->dirty) {
          expect_dirty.push_back(i);
        }
      }
      EXPECT_EQ(pool.DirtyPages(&owners[m]), expect_dirty) << "owner " << m;
    }
    EXPECT_EQ(pool.stats().evictions, model_evictions);
    EXPECT_EQ(pool.ResidentBytes(), lru.size() * kPageSize);
    if (::testing::Test::HasFailure()) {
      return;  // the first divergence is the one worth reading
    }
  }
  EXPECT_GT(longest_cold_dirty_run, kScanBound)
      << "the sweep must pin more dirty pages at the cold end than one scan covers";
  for (const int& owner : owners) {
    pool.DropAll(&owner);
  }
  EXPECT_EQ(pool.IndexEntries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCachePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// Index stress, single-threaded: one shard holding many owners' dense page
// ranges, so the table grows through several doublings and erases land in
// the middle of long probe runs (backward-shift deletion must keep every
// later key of the run findable). Checked against a model every few hundred
// steps: residency and contents of every key, each owner's sorted dirty
// pages, the gauges, and one index entry per page plus one slice head per
// owner with pages.
TEST(PageCacheStressTest, CollisionHeavyIndexMatchesModel) {
  constexpr int kOwners = 48;
  constexpr uint64_t kIdxSpan = 128;
  SimClock clock;
  CostModel costs;
  obs::MetricsRegistry metrics;
  PageCachePool pool(&clock, &costs, metrics, uint64_t{1} << 30, /*num_shards=*/1);
  ASSERT_EQ(pool.num_shards(), 1u);
  const obs::Gauge* resident = metrics.GetGauge("cntr_page_cache_resident_bytes");
  const obs::Gauge* dirty_gauge = metrics.GetGauge("cntr_page_cache_dirty_bytes");
  Rng rng(7);

  struct ModelPage {
    char fill;
    bool dirty;
  };
  std::array<char, kOwners> owners{};
  std::array<std::map<uint64_t, ModelPage>, kOwners> model;
  auto check = [&] {
    uint64_t pages = 0;
    uint64_t dirty = 0;
    size_t owners_with_pages = 0;
    char out[kPageSize];
    for (int m = 0; m < kOwners; ++m) {
      std::vector<uint64_t> expect_dirty;
      for (uint64_t i = 0; i < kIdxSpan; ++i) {
        auto it = model[m].find(i);
        bool present = pool.PeekPage(&owners[m], i, out);
        ASSERT_EQ(present, it != model[m].end()) << "owner " << m << " page " << i;
        if (present) {
          ASSERT_EQ(out[0], it->second.fill) << "owner " << m << " page " << i;
          ASSERT_EQ(out[kPageSize - 1], it->second.fill) << "owner " << m << " page " << i;
          if (it->second.dirty) {
            expect_dirty.push_back(i);
          }
        }
      }
      ASSERT_EQ(pool.DirtyPages(&owners[m]), expect_dirty) << "owner " << m;
      pages += model[m].size();
      dirty += expect_dirty.size();
      owners_with_pages += model[m].empty() ? 0 : 1;
    }
    ASSERT_EQ(pool.IndexEntries(), pages + owners_with_pages);
    ASSERT_EQ(pool.ResidentBytes(), pages * kPageSize);
    ASSERT_EQ(static_cast<uint64_t>(resident->Value()), pages * kPageSize);
    ASSERT_EQ(static_cast<uint64_t>(dirty_gauge->Value()), dirty * kPageSize);
  };

  // Fill every owner densely (table growth), then churn: stores, drops from
  // the middle of runs, dirty flips, truncates and whole-owner drops.
  char page[kPageSize];
  for (uint64_t i = 0; i < kIdxSpan; ++i) {
    for (int m = 0; m < kOwners; ++m) {
      char fill = static_cast<char>('a' + (m + i) % 26);
      std::memset(page, fill, kPageSize);
      pool.StorePage(&owners[m], i, page, /*dirty=*/(i % 3 == 0));
      model[m][i] = ModelPage{fill, i % 3 == 0};
    }
  }
  ASSERT_NO_FATAL_FAILURE(check());
  for (int step = 0; step < 20000; ++step) {
    int m = static_cast<int>(rng.Below(kOwners));
    uint64_t i = rng.Below(kIdxSpan);
    auto& pages = model[m];
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {
        char fill = static_cast<char>('A' + rng.Below(26));
        bool dirty = rng.Chance(1, 3);
        std::memset(page, fill, kPageSize);
        pool.StorePage(&owners[m], i, page, dirty);
        ModelPage& p = pages[i];  // value-initialized (clean) when new
        p.fill = fill;
        p.dirty = p.dirty || dirty;
        break;
      }
      case 3:
      case 4:
      case 5:
        pool.Drop(&owners[m], i);
        pages.erase(i);
        break;
      case 6:
        if (pool.MarkClean(&owners[m], i)) {
          pages[i].dirty = false;
        }
        break;
      case 7: {
        auto frame = std::make_shared<char[]>(kPageSize);
        std::memset(frame.get(), 'z', kPageSize);
        if (pool.InsertIfAbsent(&owners[m], i, std::move(frame))) {
          ASSERT_EQ(pages.count(i), 0u);
          pages[i] = ModelPage{'z', false};
        }
        break;
      }
      case 8:
        if (rng.Chance(1, 4)) {
          uint64_t cut = rng.Below(kIdxSpan);
          pool.TruncatePages(&owners[m], cut * kPageSize);
          pages.erase(pages.lower_bound(cut), pages.end());
        }
        break;
      default:
        if (rng.Chance(1, 20)) {
          pool.DropAll(&owners[m]);
          pages.clear();
        }
        break;
    }
    if (step % 500 == 499) {
      ASSERT_NO_FATAL_FAILURE(check()) << "step " << step;
    }
  }
  for (int m = 0; m < kOwners; ++m) {
    pool.DropAll(&owners[m]);
    model[m].clear();
  }
  ASSERT_NO_FATAL_FAILURE(check());
  EXPECT_EQ(pool.IndexEntries(), 0u) << "a node outlived its page";
}

// Index stress, concurrent: four threads store, take references, truncate
// and drop overlapping owners on a 4-shard pool kept under eviction
// pressure. Every call takes the shard locks, so at quiescence the gauges
// must equal a sweep of the cache, and dropping every owner must leave no
// index entry behind.
TEST(PageCacheStressTest, ConcurrentOwnersKeepGaugesExact) {
  constexpr int kThreads = 4;
  constexpr int kOwners = 6;
  constexpr uint64_t kIdxSpan = 256;
  SimClock clock;
  CostModel costs;
  obs::MetricsRegistry metrics;
  PageCachePool pool(&clock, &costs, metrics, 256 * kPageSize);
  ASSERT_EQ(pool.num_shards(), 4u);
  const obs::Gauge* resident = metrics.GetGauge("cntr_page_cache_resident_bytes");
  const obs::Gauge* dirty_gauge = metrics.GetGauge("cntr_page_cache_dirty_bytes");
  std::array<char, kOwners> owners{};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      char page[kPageSize] = {};
      for (int step = 0; step < 20000; ++step) {
        const void* owner = &owners[rng.Below(kOwners)];
        uint64_t idx = rng.Below(kIdxSpan);
        switch (rng.Below(200)) {
          case 0:
            pool.DropAll(owner);
            break;
          case 1:
            pool.TruncatePages(owner, rng.Below(kIdxSpan * kPageSize));
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            pool.MarkClean(owner, idx);
            break;
          default:
            if (rng.Chance(1, 2)) {
              pool.StorePage(owner, idx, page, /*dirty=*/rng.Chance(1, 4));
            } else if (auto ref = pool.GetPageRef(owner, idx)) {
              pool.StorePageRef(owner, (idx + 1) % kIdxSpan, *ref, /*dirty=*/false,
                                /*allow_alias=*/true);
            }
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  uint64_t dirty_pages = 0;
  uint64_t dirty_bytes = 0;
  for (const char& owner : owners) {
    dirty_pages += pool.DirtyPages(&owner).size();
    dirty_bytes += pool.DirtyBytes(&owner);
  }
  EXPECT_GT(pool.stats().evictions, 0u) << "the race must run under eviction pressure";
  EXPECT_EQ(static_cast<uint64_t>(resident->Value()), pool.ResidentBytes());
  EXPECT_EQ(static_cast<uint64_t>(dirty_gauge->Value()), dirty_pages * kPageSize);
  EXPECT_EQ(dirty_bytes, dirty_pages * kPageSize);
  EXPECT_EQ(pool.TotalDirtyBytes(), dirty_pages * kPageSize);
  for (const char& owner : owners) {
    pool.DropAll(&owner);
  }
  EXPECT_EQ(resident->Value(), 0);
  EXPECT_EQ(dirty_gauge->Value(), 0);
  EXPECT_EQ(pool.IndexEntries(), 0u) << "a node outlived its page";
}

}  // namespace
}  // namespace cntr::kernel
