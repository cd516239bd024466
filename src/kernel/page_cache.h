// A capacity-limited, LRU page cache shared by every filesystem in one
// simulated kernel.
//
// Both the native path (ExtFs over the disk model) and the FUSE path cache
// pages here, so the paper's double-buffering effect — CntrFS keeps one copy
// in the FUSE mount's cache and a second in the server's filesystem cache,
// halving effective cache capacity (§5.2.2, IOzone) — emerges naturally from
// the shared capacity.
//
// Concurrency: the pool is lock-striped into shards keyed by (owner, page
// index) hash, each with its own mutex, page index and LRU list, so parallel
// readers/writers (the Figure 4 multithreading path) do not serialize on a
// single pool mutex. Capacity and eviction are likewise per shard.
//
// Per-owner index: inside a shard, pages are filed by owner — each owner
// maps to its pages in index order plus its dirty-page count, the slice of
// Linux's per-inode address_space that lives in this stripe. Single-page
// operations cost one owner lookup plus O(log owner's pages in the shard).
// The per-owner operations (DropAll, TruncatePages, DirtyPages, DirtyBytes)
// visit each shard once and touch only that owner's pages, so dropping an
// inode costs O(shards + its own pages), not O(every resident page). Only
// DropAllClean and ResidentBytes sweep the whole cache.
//
// Eviction policy: clean pages are evicted LRU; dirty pages are pinned until
// their owner flushes them (owners flush on fsync, on dirty thresholds, and
// on release), at which point they become clean and evictable. The pool may
// transiently exceed capacity if everything is dirty, exactly like a kernel
// under writeback pressure.
//
// Counters and the resident/dirty byte gauges live in the kernel's metrics
// registry (cntr_page_cache_*); stats() and TotalDirtyBytes() read them back.
#ifndef CNTR_SRC_KERNEL_PAGE_CACHE_H_
#define CNTR_SRC_KERNEL_PAGE_CACHE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/kernel/types.h"
#include "src/obs/metrics.h"
#include "src/splice/page_ref.h"
#include "src/util/hash.h"
#include "src/util/sim_clock.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

// Identifies the cache space of one file: owners are file objects (MemFs
// inodes, FUSE inodes); any stable pointer works.
using CacheOwner = const void*;

class PageCachePool {
 public:
  PageCachePool(SimClock* clock, const CostModel* costs, obs::MetricsRegistry& metrics,
                uint64_t capacity_bytes, size_t num_shards = 16);

  // Copies a cached page into `out` (kPageSize bytes). Returns false on miss.
  // Charges the page-cache-hit cost on hit.
  bool ReadPage(CacheOwner owner, uint64_t idx, char* out);

  // True if the page is resident (no cost charged, no LRU touch).
  bool HasPage(CacheOwner owner, uint64_t idx) const;

  // Inserts or overwrites a whole page. May evict clean LRU pages.
  // Returns true if the page transitioned clean->dirty (or was inserted
  // dirty), so owners can keep exact dirty-byte accounting.
  bool StorePage(CacheOwner owner, uint64_t idx, const char* data, bool dirty);

  enum class UpdateResult { kNotResident, kUpdated, kNewlyDirty };
  // Updates [off, off+len) of a page if resident; marks dirty when asked.
  UpdateResult UpdatePage(CacheOwner owner, uint64_t idx, uint32_t off, uint32_t len,
                          const char* src, bool mark_dirty);

  // Zeroes the tail of the file's last page beyond `size` and drops whole
  // pages past it (truncate support). Returns the dirty bytes dropped, so
  // owners can return them to their writeback accounting.
  uint64_t TruncatePages(CacheOwner owner, uint64_t new_size);

  // Clears the dirty bit; returns true if the page was dirty (so owners can
  // keep exact dirty-byte accounting even when two flushers race).
  bool MarkClean(CacheOwner owner, uint64_t idx);
  // Generation-checked variant for concurrent writeback: clears the dirty
  // bit only if the page has not been re-dirtied since the snapshot whose
  // generation the flusher carries — a write that lands between PeekPage and
  // MarkClean keeps the page dirty instead of being silently lost.
  bool MarkCleanIfGen(CacheOwner owner, uint64_t idx, uint64_t gen);
  void Drop(CacheOwner owner, uint64_t idx);
  // Drops every page of one owner; returns the dirty bytes dropped (counted
  // under the shard locks, so a page dirtied concurrently is either dropped
  // and counted or left resident).
  uint64_t DropAll(CacheOwner owner);
  // Drops every clean page of every owner (echo 3 > drop_caches); dirty
  // pages stay pinned.
  void DropAllClean();

  // Dirty page indexes of one owner, sorted ascending (for extent-coalesced
  // writeback).
  std::vector<uint64_t> DirtyPages(CacheOwner owner) const;

  // Copies page content (must be resident) without LRU/cost effects; used by
  // writeback to read dirty data. `gen_out`, when non-null, receives the
  // page's dirty generation for a later MarkCleanIfGen.
  bool PeekPage(CacheOwner owner, uint64_t idx, char* out, uint64_t* gen_out = nullptr) const;

  // --- splice surface: zero-copy page references ---
  //
  // Cached pages are shared-owned, so a resident page can leave the cache as
  // a reference (splice file->pipe) and a pipe page can enter it as one
  // (splice pipe->cache). Any holder outside the cache makes the page
  // read-only for the cache too: the mutating paths (StorePage, UpdatePage,
  // TruncatePages) break the sharing with a copy first (COW), so a spliced
  // reference never observes later writes.

  // Returns a shared reference to a resident page (LRU touch, hit/miss
  // accounting, splice cost — the remap is what a splice() out of the cache
  // pays instead of page_cache_hit + copy). nullopt on miss.
  // `gen_out` as in PeekPage (for generation-checked writeback).
  std::optional<splice::PageRef> GetPageRef(CacheOwner owner, uint64_t idx,
                                            uint64_t* gen_out = nullptr);

  // Installs a full-page reference. No cost is charged here — the caller
  // charges per the returned mode (steal/alias at splice rate, copy
  // fallback at copy rate).
  //  * kStolen:  the reference was the sole owner — the page is adopted
  //              outright (the page-steal move of SPLICE_F_MOVE).
  //  * kAliased: the reference is shared and `allow_alias` was set — the
  //              cache installs the shared page read-only; a later write
  //              through either owner copies first (COW).
  //  * kCopied:  shared without `allow_alias`, or a short page: fallback to
  //              a private copy.
  enum class StoreRefMode { kStolen, kAliased, kCopied };
  struct StoreRefResult {
    StoreRefMode mode = StoreRefMode::kCopied;
    bool newly_dirty = false;  // same meaning as StorePage's return
  };
  StoreRefResult StorePageRef(CacheOwner owner, uint64_t idx, const splice::PageRef& ref,
                              bool dirty, bool allow_alias);

  // Removes a resident page from the cache and hands it out as a reference
  // (the donor half of a page-steal: the source cache entry is gone, like
  // page_cache_pipe_buf_try_steal). Dirty pages refuse (writeback owns
  // them). nullopt on miss or dirty.
  std::optional<splice::PageRef> StealPage(CacheOwner owner, uint64_t idx);

  uint64_t DirtyBytes(CacheOwner owner) const;
  // One gauge load: writeback-threshold checks poll it on the write path.
  uint64_t TotalDirtyBytes() const { return static_cast<uint64_t>(dirty_bytes_->Value()); }
  // Sweeps every shard (the reference the resident-bytes gauge must match).
  uint64_t ResidentBytes() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }

  // A view over the registry counters: reading it never contends with the
  // I/O hot path.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    // Splice-surface traffic: how pages moved across the cache boundary.
    uint64_t ref_steals = 0;    // unique refs adopted without copy
    uint64_t ref_aliases = 0;   // shared refs installed read-only
    uint64_t ref_copies = 0;    // copy fallbacks (shared or short page)
    uint64_t cow_breaks = 0;    // writes that had to un-share a page first
  };
  Stats stats() const {
    Stats s;
    s.hits = hits_->Value();
    s.misses = misses_->Value();
    s.evictions = evictions_->Value();
    s.ref_steals = ref_steals_->Value();
    s.ref_aliases = ref_aliases_->Value();
    s.ref_copies = ref_copies_->Value();
    s.cow_breaks = cow_breaks_->Value();
    return s;
  }

 private:
  struct Key {
    CacheOwner owner;
    uint64_t idx;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashCombine(HashMix64(reinterpret_cast<uintptr_t>(k.owner)),
                         static_cast<size_t>(k.idx));
    }
  };
  struct Page {
    // Shared so splice references can alias the cached buffer; mutators
    // must go through EnsureExclusiveLocked (COW) first.
    std::shared_ptr<char[]> data;
    bool dirty = false;
    // Bumped every time dirty content lands on the page; lets concurrent
    // writeback detect re-dirtying between snapshot and MarkCleanIfGen.
    uint64_t gen = 0;
    std::list<Key>::iterator lru_it;
  };

  // One owner's pages in one shard, in index order, and how many of them
  // are dirty.
  struct OwnerPages {
    std::map<uint64_t, Page> pages;
    size_t dirty = 0;
  };
  using OwnerMap = std::unordered_map<CacheOwner, OwnerPages>;

  // One lock stripe with its own per-owner index, LRU list and capacity
  // slice; padded so neighbouring shard locks do not false-share.
  struct alignas(64) Shard {
    mutable analysis::CheckedMutex mu{"kernel.pagecache.shard"};
    // An owner's entry goes away with its last page in this shard.
    OwnerMap owners;
    std::list<Key> lru;  // front = most recent; one entry per resident page
  };

  Shard& ShardFor(const Key& key) const {
    return shards_[KeyHash()(key) % shards_.size()];
  }

  // The resident page for `key`, or null.
  static Page* FindLocked(Shard& shard, const Key& key);
  // Files a new page under `key` at the LRU head and accounts it.
  void InsertLocked(Shard& shard, const Key& key, std::shared_ptr<char[]> data, bool dirty);
  // Removes one page (LRU entry, gauges, the owner's dirty count, and the
  // owner's entry once it is empty).
  void EraseLocked(Shard& shard, OwnerMap::iterator oit, std::map<uint64_t, Page>::iterator pit);
  // Drops `owner`'s pages with index >= `first` from one shard; returns how
  // many of them were dirty.
  uint64_t DropFromLocked(Shard& shard, CacheOwner owner, uint64_t first);
  void TouchLocked(Shard& shard, Page& page);
  void EvictIfNeededLocked(Shard& shard);
  // Un-shares a page before mutation (COW break); charges a page copy when
  // outside references exist. `preserve_content` copies the old bytes into
  // the fresh page (partial updates need them; full overwrites do not).
  void EnsureExclusiveLocked(Page& page, bool preserve_content);

  SimClock* clock_;
  const CostModel* costs_;
  uint64_t capacity_bytes_;
  uint64_t capacity_per_shard_;
  mutable std::vector<Shard> shards_;

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* ref_steals_;
  obs::Counter* ref_aliases_;
  obs::Counter* ref_copies_;
  obs::Counter* cow_breaks_;
  // Pool-wide totals, updated under the shard lock wherever a page enters
  // or leaves the cache (resident) or flips its dirty bit (dirty).
  obs::Gauge* resident_bytes_;
  obs::Gauge* dirty_bytes_;
};

// Coalesces a sorted list of page indexes into contiguous extents; returns
// the number of extents. Disk and FUSE writeback cost one operation per
// extent, which is what makes batched writeback cheaper than scattered
// synchronous writes.
uint32_t CountExtents(const std::vector<uint64_t>& sorted_pages);

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_PAGE_CACHE_H_
