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
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    misses_->Add();
    return false;
  }
  hits_->Add();
  clock_->Advance(costs_->page_cache_hit_ns);
  std::memcpy(out, it->second.data.get(), kPageSize);
  TouchLocked(shard, it->second, it->first);
  return true;
}

bool PageCachePool::HasPage(CacheOwner owner, uint64_t idx) const {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  return shard.pages.count(key) != 0;
}

bool PageCachePool::StorePage(CacheOwner owner, uint64_t idx, const char* data, bool dirty) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    Page page;
    page.data = std::make_shared<char[]>(kPageSize);
    std::memcpy(page.data.get(), data, kPageSize);
    shard.lru.push_front(key);
    page.lru_it = shard.lru.begin();
    page.dirty = dirty;
    page.gen = dirty ? 1 : 0;
    shard.pages.emplace(key, std::move(page));
    resident_bytes_->Add(kPageBytes);
  } else {
    EnsureExclusiveLocked(it->second, /*preserve_content=*/false);
    std::memcpy(it->second.data.get(), data, kPageSize);
    bool was_dirty = it->second.dirty;
    it->second.dirty = it->second.dirty || dirty;
    if (dirty) {
      ++it->second.gen;
    }
    TouchLocked(shard, it->second, key);
    if (was_dirty) {
      dirty = false;  // already accounted
    }
  }
  if (dirty) {
    shard.dirty[owner][idx] = true;
    dirty_bytes_->Add(kPageBytes);
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
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    return UpdateResult::kNotResident;
  }
  EnsureExclusiveLocked(it->second, /*preserve_content=*/true);
  std::memcpy(it->second.data.get() + off, src, len);
  TouchLocked(shard, it->second, it->first);
  if (mark_dirty) {
    ++it->second.gen;
  }
  if (mark_dirty && !it->second.dirty) {
    it->second.dirty = true;
    shard.dirty[owner][idx] = true;
    dirty_bytes_->Add(kPageBytes);
    return UpdateResult::kNewlyDirty;
  }
  return UpdateResult::kUpdated;
}

void PageCachePool::TruncatePages(CacheOwner owner, uint64_t new_size) {
  uint64_t first_dropped = (new_size + kPageSize - 1) / kPageSize;
  // Zero the partial tail of the boundary page.
  if (new_size % kPageSize != 0) {
    Key key{owner, new_size / kPageSize};
    Shard& shard = ShardFor(key);
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto it = shard.pages.find(key);
    if (it != shard.pages.end()) {
      uint32_t keep = static_cast<uint32_t>(new_size % kPageSize);
      EnsureExclusiveLocked(it->second, /*preserve_content=*/true);
      std::memset(it->second.data.get() + keep, 0, kPageSize - keep);
    }
  }
  // Drop whole pages past the new end (the owner's pages are spread over
  // every shard, so all stripes are visited).
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto dit = shard.dirty.find(owner);
    for (auto it = shard.pages.begin(); it != shard.pages.end();) {
      if (it->first.owner == owner && it->first.idx >= first_dropped) {
        if (it->second.dirty) {
          dirty_bytes_->Add(-kPageBytes);
          if (dit != shard.dirty.end()) {
            dit->second.erase(it->first.idx);
          }
        }
        shard.lru.erase(it->second.lru_it);
        it = shard.pages.erase(it);
        resident_bytes_->Add(-kPageBytes);
      } else {
        ++it;
      }
    }
  }
}

bool PageCachePool::MarkClean(CacheOwner owner, uint64_t idx) {
  return MarkCleanIfGen(owner, idx, UINT64_MAX);
}

bool PageCachePool::MarkCleanIfGen(CacheOwner owner, uint64_t idx, uint64_t gen) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end() || !it->second.dirty) {
    return false;
  }
  if (gen != UINT64_MAX && it->second.gen != gen) {
    return false;  // re-dirtied since the flusher's snapshot: stays dirty
  }
  it->second.dirty = false;
  dirty_bytes_->Add(-kPageBytes);
  auto dit = shard.dirty.find(owner);
  if (dit != shard.dirty.end()) {
    dit->second.erase(idx);
  }
  return true;
}

void PageCachePool::Drop(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    return;
  }
  if (it->second.dirty) {
    dirty_bytes_->Add(-kPageBytes);
    auto dit = shard.dirty.find(owner);
    if (dit != shard.dirty.end()) {
      dit->second.erase(idx);
    }
  }
  shard.lru.erase(it->second.lru_it);
  shard.pages.erase(it);
  resident_bytes_->Add(-kPageBytes);
}

void PageCachePool::DropAll(CacheOwner owner) {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (auto it = shard.pages.begin(); it != shard.pages.end();) {
      if (it->first.owner == owner) {
        if (it->second.dirty) {
          dirty_bytes_->Add(-kPageBytes);
        }
        shard.lru.erase(it->second.lru_it);
        it = shard.pages.erase(it);
        resident_bytes_->Add(-kPageBytes);
      } else {
        ++it;
      }
    }
    shard.dirty.erase(owner);
  }
}

void PageCachePool::DropAllClean() {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (auto it = shard.pages.begin(); it != shard.pages.end();) {
      if (!it->second.dirty) {
        shard.lru.erase(it->second.lru_it);
        it = shard.pages.erase(it);
        resident_bytes_->Add(-kPageBytes);
      } else {
        ++it;
      }
    }
  }
}

std::vector<uint64_t> PageCachePool::DirtyPages(CacheOwner owner) const {
  std::vector<uint64_t> out;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto dit = shard.dirty.find(owner);
    if (dit == shard.dirty.end()) {
      continue;
    }
    out.reserve(out.size() + dit->second.size());
    for (const auto& [idx, _] : dit->second) {
      out.push_back(idx);
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
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    return false;
  }
  std::memcpy(out, it->second.data.get(), kPageSize);
  if (gen_out != nullptr) {
    *gen_out = it->second.gen;
  }
  return true;
}

uint64_t PageCachePool::DirtyBytes(CacheOwner owner) const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto dit = shard.dirty.find(owner);
    if (dit != shard.dirty.end()) {
      total += dit->second.size() * kPageSize;
    }
  }
  return total;
}

uint64_t PageCachePool::ResidentBytes() const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    total += shard.pages.size() * kPageSize;
  }
  return total;
}

std::optional<splice::PageRef> PageCachePool::GetPageRef(CacheOwner owner, uint64_t idx,
                                                         uint64_t* gen_out) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    misses_->Add();
    return std::nullopt;
  }
  hits_->Add();
  // The remap out of the cache, not a copy: splice rate, not hit+copy.
  clock_->Advance(costs_->splice_page_ns);
  TouchLocked(shard, it->second, it->first);
  splice::PageRef ref;
  ref.page = it->second.data;
  ref.len = kPageSize;
  if (gen_out != nullptr) {
    *gen_out = it->second.gen;
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
  auto it = shard.pages.find(key);
  bool count_dirty = dirty;
  if (it == shard.pages.end()) {
    Page page;
    page.data = std::move(install);
    shard.lru.push_front(key);
    page.lru_it = shard.lru.begin();
    page.dirty = dirty;
    page.gen = dirty ? 1 : 0;
    shard.pages.emplace(key, std::move(page));
    resident_bytes_->Add(kPageBytes);
  } else {
    it->second.data = std::move(install);
    bool was_dirty = it->second.dirty;
    it->second.dirty = it->second.dirty || dirty;
    if (dirty) {
      ++it->second.gen;
    }
    TouchLocked(shard, it->second, key);
    if (was_dirty) {
      count_dirty = false;  // already accounted
    }
  }
  if (count_dirty) {
    shard.dirty[owner][idx] = true;
    dirty_bytes_->Add(kPageBytes);
  }
  EvictIfNeededLocked(shard);
  result.newly_dirty = count_dirty;
  return result;
}

std::optional<splice::PageRef> PageCachePool::StealPage(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end() || it->second.dirty) {
    return std::nullopt;  // absent, or pinned by writeback
  }
  splice::PageRef ref;
  ref.page = std::move(it->second.data);
  ref.len = kPageSize;
  shard.lru.erase(it->second.lru_it);
  shard.pages.erase(it);
  resident_bytes_->Add(-kPageBytes);
  ref_steals_->Add();
  clock_->Advance(costs_->splice_page_ns);
  return ref;
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

void PageCachePool::TouchLocked(Shard& shard, Page& page, const Key& /*key*/) {
  shard.lru.splice(shard.lru.begin(), shard.lru, page.lru_it);
  page.lru_it = shard.lru.begin();
}

void PageCachePool::EvictIfNeededLocked(Shard& shard) {
  while (shard.pages.size() * kPageSize > capacity_per_shard_ && !shard.lru.empty()) {
    // Scan from the cold end for a clean victim; dirty pages are pinned.
    auto victim = shard.lru.end();
    bool found = false;
    size_t scanned = 0;
    for (auto it = std::prev(shard.lru.end());; --it) {
      auto pit = shard.pages.find(*it);
      if (pit != shard.pages.end() && !pit->second.dirty) {
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
    shard.pages.erase(*victim);
    shard.lru.erase(victim);
    evictions_->Add();
    resident_bytes_->Add(-kPageBytes);
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
