#include "src/kernel/page_cache.h"

#include <algorithm>
#include <cstring>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

namespace {
constexpr int64_t kPageBytes = kPageSize;
}  // namespace

PageCachePool::PageCachePool(SimClock* clock, const CostModel* costs,
                             obs::MetricsRegistry& metrics, uint64_t capacity_bytes,
                             size_t num_shards)
    : clock_(clock),
      costs_(costs),
      capacity_bytes_(capacity_bytes),
      shards_(ClampShardCount(num_shards, capacity_bytes / kPageSize)),
      hits_(metrics.GetCounter("cntr_page_cache_hits")),
      misses_(metrics.GetCounter("cntr_page_cache_misses")),
      evictions_(metrics.GetCounter("cntr_page_cache_evictions")),
      ref_steals_(metrics.GetCounter("cntr_page_cache_ref_steals")),
      ref_aliases_(metrics.GetCounter("cntr_page_cache_ref_aliases")),
      ref_copies_(metrics.GetCounter("cntr_page_cache_ref_copies")),
      cow_breaks_(metrics.GetCounter("cntr_page_cache_cow_breaks")),
      resident_bytes_(metrics.GetGauge("cntr_page_cache_resident_bytes")),
      dirty_bytes_(metrics.GetGauge("cntr_page_cache_dirty_bytes")) {
  capacity_per_shard_ = std::max<uint64_t>(kPageSize, capacity_bytes_ / shards_.size());
  // Per-stripe lockdep subclass: index-ordered same-class nesting (e.g. a
  // full-pool sweep) stays legal while out-of-order pairs still report.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].mu.set_subclass(static_cast<uint32_t>(i + 1));
  }
}

bool PageCachePool::ReadPage(CacheOwner owner, uint64_t idx, char* out) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  Page* page = FindLocked(shard, key);
  if (page == nullptr) {
    misses_->Add();
    return false;
  }
  hits_->Add();
  clock_->Advance(costs_->page_cache_hit_ns);
  std::memcpy(out, page->data.get(), kPageSize);
  TouchLocked(shard, *page);
  return true;
}

bool PageCachePool::HasPage(CacheOwner owner, uint64_t idx) const {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  return FindLocked(shard, key) != nullptr;
}

bool PageCachePool::StorePage(CacheOwner owner, uint64_t idx, const char* data, bool dirty) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  Page* page = FindLocked(shard, key);
  if (page == nullptr) {
    auto fresh = std::make_shared<char[]>(kPageSize);
    std::memcpy(fresh.get(), data, kPageSize);
    InsertLocked(shard, key, std::move(fresh), dirty);
  } else {
    EnsureExclusiveLocked(*page, /*preserve_content=*/false);
    std::memcpy(page->data.get(), data, kPageSize);
    bool was_dirty = page->dirty;
    page->dirty = page->dirty || dirty;
    if (dirty) {
      ++page->gen;
    }
    TouchLocked(shard, *page);
    if (was_dirty) {
      dirty = false;  // already accounted
    } else if (dirty) {
      ++shard.owners[owner].dirty;
      dirty_bytes_->Add(kPageBytes);
    }
  }
  EvictIfNeededLocked(shard);
  return dirty;
}

PageCachePool::UpdateResult PageCachePool::UpdatePage(CacheOwner owner, uint64_t idx,
                                                      uint32_t off, uint32_t len,
                                                      const char* src, bool mark_dirty) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  Page* page = FindLocked(shard, key);
  if (page == nullptr) {
    return UpdateResult::kNotResident;
  }
  EnsureExclusiveLocked(*page, /*preserve_content=*/true);
  std::memcpy(page->data.get() + off, src, len);
  TouchLocked(shard, *page);
  if (mark_dirty) {
    ++page->gen;
  }
  if (mark_dirty && !page->dirty) {
    page->dirty = true;
    ++shard.owners[owner].dirty;
    dirty_bytes_->Add(kPageBytes);
    return UpdateResult::kNewlyDirty;
  }
  return UpdateResult::kUpdated;
}

uint64_t PageCachePool::TruncatePages(CacheOwner owner, uint64_t new_size) {
  uint64_t first_dropped = (new_size + kPageSize - 1) / kPageSize;
  // Zero the partial tail of the boundary page.
  if (new_size % kPageSize != 0) {
    Key key{owner, new_size / kPageSize};
    Shard& shard = ShardFor(key);
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    if (Page* page = FindLocked(shard, key)) {
      uint32_t keep = static_cast<uint32_t>(new_size % kPageSize);
      EnsureExclusiveLocked(*page, /*preserve_content=*/true);
      std::memset(page->data.get() + keep, 0, kPageSize - keep);
    }
  }
  // Drop whole pages past the new end (the owner's pages are spread over
  // every shard, so each stripe's slice of the owner is visited).
  uint64_t dirty_pages = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    dirty_pages += DropFromLocked(shard, owner, first_dropped);
  }
  return dirty_pages * kPageSize;
}

bool PageCachePool::MarkClean(CacheOwner owner, uint64_t idx) {
  return MarkCleanIfGen(owner, idx, UINT64_MAX);
}

bool PageCachePool::MarkCleanIfGen(CacheOwner owner, uint64_t idx, uint64_t gen) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto oit = shard.owners.find(owner);
  if (oit == shard.owners.end()) {
    return false;
  }
  auto pit = oit->second.pages.find(idx);
  if (pit == oit->second.pages.end() || !pit->second.dirty) {
    return false;
  }
  if (gen != UINT64_MAX && pit->second.gen != gen) {
    return false;  // re-dirtied since the flusher's snapshot: stays dirty
  }
  pit->second.dirty = false;
  --oit->second.dirty;
  dirty_bytes_->Add(-kPageBytes);
  return true;
}

void PageCachePool::Drop(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto oit = shard.owners.find(owner);
  if (oit == shard.owners.end()) {
    return;
  }
  auto pit = oit->second.pages.find(idx);
  if (pit != oit->second.pages.end()) {
    EraseLocked(shard, oit, pit);
  }
}

uint64_t PageCachePool::DropAll(CacheOwner owner) {
  uint64_t dirty_pages = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    dirty_pages += DropFromLocked(shard, owner, 0);
  }
  return dirty_pages * kPageSize;
}

void PageCachePool::DropAllClean() {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (auto oit = shard.owners.begin(); oit != shard.owners.end();) {
      auto& pages = oit->second.pages;
      for (auto pit = pages.begin(); pit != pages.end();) {
        if (!pit->second.dirty) {
          shard.lru.erase(pit->second.lru_it);
          pit = pages.erase(pit);
          resident_bytes_->Add(-kPageBytes);
        } else {
          ++pit;
        }
      }
      oit = pages.empty() ? shard.owners.erase(oit) : std::next(oit);
    }
  }
}

std::vector<uint64_t> PageCachePool::DirtyPages(CacheOwner owner) const {
  std::vector<uint64_t> out;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto oit = shard.owners.find(owner);
    if (oit == shard.owners.end() || oit->second.dirty == 0) {
      continue;
    }
    out.reserve(out.size() + oit->second.dirty);
    for (const auto& [idx, page] : oit->second.pages) {
      if (page.dirty) {
        out.push_back(idx);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PageCachePool::PeekPage(CacheOwner owner, uint64_t idx, char* out,
                             uint64_t* gen_out) const {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  const Page* page = FindLocked(shard, key);
  if (page == nullptr) {
    return false;
  }
  std::memcpy(out, page->data.get(), kPageSize);
  if (gen_out != nullptr) {
    *gen_out = page->gen;
  }
  return true;
}

uint64_t PageCachePool::DirtyBytes(CacheOwner owner) const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto oit = shard.owners.find(owner);
    if (oit != shard.owners.end()) {
      total += oit->second.dirty * kPageSize;
    }
  }
  return total;
}

uint64_t PageCachePool::ResidentBytes() const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (const auto& [owner, slice] : shard.owners) {
      total += slice.pages.size() * kPageSize;
    }
  }
  return total;
}

std::optional<splice::PageRef> PageCachePool::GetPageRef(CacheOwner owner, uint64_t idx,
                                                         uint64_t* gen_out) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  Page* page = FindLocked(shard, key);
  if (page == nullptr) {
    misses_->Add();
    return std::nullopt;
  }
  hits_->Add();
  // The remap out of the cache, not a copy: splice rate, not hit+copy.
  clock_->Advance(costs_->splice_page_ns);
  TouchLocked(shard, *page);
  splice::PageRef ref;
  ref.page = page->data;
  ref.len = kPageSize;
  if (gen_out != nullptr) {
    *gen_out = page->gen;
  }
  return ref;
}

PageCachePool::StoreRefResult PageCachePool::StorePageRef(CacheOwner owner, uint64_t idx,
                                                          const splice::PageRef& ref, bool dirty,
                                                          bool allow_alias) {
  StoreRefResult result;
  std::shared_ptr<char[]> install;
  if (ref.valid() && ref.len == kPageSize && ref.unique()) {
    install = ref.page;
    result.mode = StoreRefMode::kStolen;
    ref_steals_->Add();
  } else if (ref.valid() && ref.len == kPageSize && allow_alias) {
    install = ref.page;
    result.mode = StoreRefMode::kAliased;
    ref_aliases_->Add();
  } else {
    // Copy fallback: short page, or shared without alias permission.
    install = std::make_shared<char[]>(kPageSize);
    if (ref.valid()) {
      std::memcpy(install.get(), ref.data(), ref.len);
    }
    result.mode = StoreRefMode::kCopied;
    ref_copies_->Add();
  }

  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  Page* page = FindLocked(shard, key);
  bool count_dirty = dirty;
  if (page == nullptr) {
    InsertLocked(shard, key, std::move(install), dirty);
  } else {
    page->data = std::move(install);
    bool was_dirty = page->dirty;
    page->dirty = page->dirty || dirty;
    if (dirty) {
      ++page->gen;
    }
    TouchLocked(shard, *page);
    if (was_dirty) {
      count_dirty = false;  // already accounted
    } else if (dirty) {
      ++shard.owners[owner].dirty;
      dirty_bytes_->Add(kPageBytes);
    }
  }
  EvictIfNeededLocked(shard);
  result.newly_dirty = count_dirty;
  return result;
}

std::optional<splice::PageRef> PageCachePool::StealPage(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto oit = shard.owners.find(owner);
  if (oit == shard.owners.end()) {
    return std::nullopt;
  }
  auto pit = oit->second.pages.find(idx);
  if (pit == oit->second.pages.end() || pit->second.dirty) {
    return std::nullopt;  // absent, or pinned by writeback
  }
  splice::PageRef ref;
  ref.page = std::move(pit->second.data);
  ref.len = kPageSize;
  EraseLocked(shard, oit, pit);
  ref_steals_->Add();
  clock_->Advance(costs_->splice_page_ns);
  return ref;
}

PageCachePool::Page* PageCachePool::FindLocked(Shard& shard, const Key& key) {
  auto oit = shard.owners.find(key.owner);
  if (oit == shard.owners.end()) {
    return nullptr;
  }
  auto pit = oit->second.pages.find(key.idx);
  return pit == oit->second.pages.end() ? nullptr : &pit->second;
}

void PageCachePool::InsertLocked(Shard& shard, const Key& key, std::shared_ptr<char[]> data,
                                 bool dirty) {
  OwnerPages& slice = shard.owners[key.owner];
  Page& page = slice.pages[key.idx];
  page.data = std::move(data);
  page.dirty = dirty;
  page.gen = dirty ? 1 : 0;
  shard.lru.push_front(key);
  page.lru_it = shard.lru.begin();
  resident_bytes_->Add(kPageBytes);
  if (dirty) {
    ++slice.dirty;
    dirty_bytes_->Add(kPageBytes);
  }
}

void PageCachePool::EraseLocked(Shard& shard, OwnerMap::iterator oit,
                                std::map<uint64_t, Page>::iterator pit) {
  if (pit->second.dirty) {
    --oit->second.dirty;
    dirty_bytes_->Add(-kPageBytes);
  }
  shard.lru.erase(pit->second.lru_it);
  oit->second.pages.erase(pit);
  resident_bytes_->Add(-kPageBytes);
  if (oit->second.pages.empty()) {
    shard.owners.erase(oit);
  }
}

uint64_t PageCachePool::DropFromLocked(Shard& shard, CacheOwner owner, uint64_t first) {
  auto oit = shard.owners.find(owner);
  if (oit == shard.owners.end()) {
    return 0;
  }
  auto& pages = oit->second.pages;
  uint64_t dropped = 0;
  uint64_t dirty = 0;
  auto from = pages.lower_bound(first);
  for (auto pit = from; pit != pages.end(); ++pit) {
    shard.lru.erase(pit->second.lru_it);
    ++dropped;
    dirty += pit->second.dirty ? 1 : 0;
  }
  pages.erase(from, pages.end());
  resident_bytes_->Add(-static_cast<int64_t>(dropped) * kPageBytes);
  dirty_bytes_->Add(-static_cast<int64_t>(dirty) * kPageBytes);
  oit->second.dirty -= dirty;
  if (pages.empty()) {
    shard.owners.erase(oit);
  }
  return dirty;
}

void PageCachePool::EnsureExclusiveLocked(Page& page, bool preserve_content) {
  if (page.data.use_count() <= 1) {
    return;
  }
  // An outside splice reference holds this buffer: writing in place would
  // mutate payload already handed out. Break the sharing with a private
  // copy — the real cost of a failed page reuse.
  auto fresh = std::make_shared<char[]>(kPageSize);
  if (preserve_content) {
    std::memcpy(fresh.get(), page.data.get(), kPageSize);
  }
  page.data = std::move(fresh);
  cow_breaks_->Add();
  clock_->Advance(costs_->copy_page_ns);
}

void PageCachePool::TouchLocked(Shard& shard, Page& page) {
  shard.lru.splice(shard.lru.begin(), shard.lru, page.lru_it);
  page.lru_it = shard.lru.begin();
}

void PageCachePool::EvictIfNeededLocked(Shard& shard) {
  while (shard.lru.size() * kPageSize > capacity_per_shard_) {
    // Scan from the cold end for a clean victim; dirty pages are pinned.
    auto victim = shard.lru.end();
    bool found = false;
    size_t scanned = 0;
    for (auto it = std::prev(shard.lru.end());; --it) {
      Page* page = FindLocked(shard, *it);
      if (page != nullptr && !page->dirty) {
        victim = it;
        found = true;
        break;
      }
      if (++scanned > 128 || it == shard.lru.begin()) {
        break;  // all-cold pages dirty: allow transient overshoot
      }
    }
    if (!found) {
      return;
    }
    auto oit = shard.owners.find(victim->owner);
    EraseLocked(shard, oit, oit->second.pages.find(victim->idx));
    evictions_->Add();
  }
}

uint32_t CountExtents(const std::vector<uint64_t>& sorted_pages) {
  if (sorted_pages.empty()) {
    return 0;
  }
  uint32_t extents = 1;
  for (size_t i = 1; i < sorted_pages.size(); ++i) {
    if (sorted_pages[i] != sorted_pages[i - 1] + 1) {
      ++extents;
    }
  }
  return extents;
}

}  // namespace cntr::kernel
