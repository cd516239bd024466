#include "src/kernel/dcache.h"

#include <algorithm>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

DentryCache::DentryCache(SimClock* clock, const CostModel* costs, obs::MetricsRegistry& metrics,
                         size_t max_entries, size_t num_shards)
    : clock_(clock),
      costs_(costs),
      shards_(ClampShardCount(num_shards, max_entries)),
      hits_(metrics.GetCounter("cntr_dcache_hits")),
      misses_(metrics.GetCounter("cntr_dcache_misses")),
      expiries_(metrics.GetCounter("cntr_dcache_expiries")),
      evictions_(metrics.GetCounter("cntr_dcache_evictions")),
      negative_hits_(metrics.GetCounter("cntr_dcache_negative_hits")),
      entries_(metrics.GetGauge("cntr_dcache_entries")) {
  max_per_shard_ = std::max<size_t>(1, max_entries / shards_.size());
  // Per-stripe lockdep subclass (see PageCachePool): shard index i gets
  // subclass i+1 so stripe 0 is distinct from the class's base node.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].mu.set_subclass(static_cast<uint32_t>(i + 1));
  }
}

std::optional<InodePtr> DentryCache::LookupEntry(const Inode* dir, const std::string& name) {
  Key key{dir->id(), name};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_->Add();
    return std::nullopt;
  }
  if (it->second.expiry_ns != UINT64_MAX && clock_->NowNs() >= it->second.expiry_ns) {
    shard.lru.erase(it->second.lru_it);
    shard.entries.erase(it);
    entries_->Add(-1);
    expiries_->Add();
    misses_->Add();
    return std::nullopt;
  }
  if (it->second.child == nullptr) {
    negative_hits_->Add();
  } else {
    hits_->Add();
  }
  clock_->Advance(costs_->dcache_hit_ns);
  // LRU touch.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.child;
}

void DentryCache::Insert(const Inode* dir, const std::string& name, InodePtr child,
                         uint64_t ttl_ns) {
  Key key{dir->id(), name};
  Shard& shard = ShardFor(key);
  uint64_t expiry = ttl_ns == UINT64_MAX ? UINT64_MAX : clock_->NowNs() + ttl_ns;
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    it->second.child = std::move(child);
    it->second.expiry_ns = expiry;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  if (shard.entries.size() >= max_per_shard_ && !shard.lru.empty()) {
    // Evict the shard's least-recently-used entry, like Linux's LRU dentry
    // shrinker (scoped to the stripe, so eviction never takes other locks).
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    entries_->Add(-1);
    evictions_->Add();
  }
  shard.lru.push_front(key);
  shard.entries.emplace(std::move(key), Entry{std::move(child), expiry, shard.lru.begin()});
  entries_->Add(1);
}

void DentryCache::Invalidate(const Inode* dir, const std::string& name) {
  Key key{dir->id(), name};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.lru.erase(it->second.lru_it);
    shard.entries.erase(it);
    entries_->Add(-1);
  }
}

void DentryCache::InvalidateDir(const Inode* dir) {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.dir == dir->id()) {
        shard.lru.erase(it->second.lru_it);
        it = shard.entries.erase(it);
        entries_->Add(-1);
      } else {
        ++it;
      }
    }
  }
}

void DentryCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    entries_->Add(-static_cast<int64_t>(shard.entries.size()));
    shard.entries.clear();
    shard.lru.clear();
  }
}

size_t DentryCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace cntr::kernel
