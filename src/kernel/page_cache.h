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
// index) hash, each with its own mutex, index, LRU list and capacity slice,
// so parallel readers/writers (the Figure 4 multithreading path) do not
// serialize on a single pool mutex.
//
// Flat index: each shard keeps one open-addressing table keyed by
// (owner, index) -> page node (linear probing, backward-shift deletion, at
// most half full). A slot holds the node number and the upper half of the
// key's hash, so a probe run compares slots until the tag matches and then
// reads one node: a lookup is one probe run, with no per-owner map in
// front of it. Page nodes live in a per-shard array and are recycled
// through a free list; their links are intrusive:
//  * the shard LRU is a ring through each node, so eviction takes the cold
//    end's node directly and erases it by its stored tag;
//  * an owner's pages in the shard form a ring through a slice head node,
//    filed in the same table under (owner, kSliceIdx); the head also holds
//    the slice's dirty-page count;
//  * the slice's dirty pages form a second ring through the head, so
//    DirtyPages costs O(dirty pages), not O(resident pages).
// The per-owner operations (DropAll, TruncatePages, DirtyPages, DirtyBytes)
// probe each shard's slice head once and touch only that owner's pages, so
// dropping an inode costs O(shards + its own pages). Only DropAllClean and
// ResidentBytes sweep the whole cache. InsertIfAbsent and
// InsertRefIfAbsent let read fills install a clean page with one call
// instead of a HasPage probe followed by a store.
//
// What the index does not change: the shard choice (KeyHash % shards), each
// shard's LRU order (inserts and touches go to the front), the eviction
// scan (up to 129 entries from the cold end for a clean victim), the
// capacity per shard, and every SimClock charge, counter and gauge update
// sit where they did with the earlier map-based index. Which page is
// resident, and what each call costs in virtual time, is therefore the same
// for any sequence of calls; only the host time spent finding pages moved.
//
// Frames and loans: a page's frame is either the cache's own buffer or a
// loan of a disk block (splice::LendFrame). Disk-backed reads install loans
// (MemInode::FillFromDiskLocked: no page allocation, no copy), and a loan
// may travel on through splice references into another owner's pages. The
// cache never writes through a loan: EnsureExclusiveLocked copies a loan
// out before a write. The copy-on-write charge (copy_page_ns,
// cntr_page_cache_cow_breaks) keys on the cache-side use_count() alone — a
// loan's count covers the holders of the view, not the disk's block — so
// it falls exactly where it fell when every disk read filled a private
// copy, and the silent copy-out of an unshared loan is not charged.
//
// Writeback hand-off: HandOffPage gives the disk a dirty page's frame for
// it to keep as the page's block when the cache alone holds the frame (no
// splice reference) and the frame is not itself a loan; the node keeps a
// loan of the same buffer, with no LRU touch, charge or counter. Any other
// page leaves as a private copy. Either way the disk gets a frame nobody
// writes again.
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
#include <memory>
#include <mutex>
#include <optional>
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

// A fresh page buffer, not zeroed: the caller fills all kPageSize bytes
// (a disk read, a reply payload) before the cache adopts it.
inline std::shared_ptr<char[]> NewPageFrame() {
  return std::make_shared_for_overwrite<char[]>(kPageSize);
}

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

  // Insert-if-absent for clean fills (readahead from disk, a FUSE READ
  // reply): installs `frame`, a full page the caller filled and holds alone
  // or a loan of a disk block, as a clean page at the LRU head. When the
  // page is already resident — possibly newer, possibly dirty — it is left
  // as it is (no LRU touch) and false is returned. May evict clean LRU pages; no cost is
  // charged and no counter moves.
  bool InsertIfAbsent(CacheOwner owner, uint64_t idx, std::shared_ptr<char[]> frame);

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

  // Writeback hand-off (see the header): a full-page frame of a resident
  // page for the disk to keep as its block — the page's own frame when the
  // cache alone holds it, is not a loan and `whole` is set (the node then
  // keeps a loan of it), else a private copy. No LRU touch, charge or
  // counter; nullptr on a miss.
  std::shared_ptr<char[]> HandOffPage(CacheOwner owner, uint64_t idx, bool whole);

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
  // StorePageRef's clean insert-if-absent form (a spliced READ reply): a
  // resident page is left as it is and nullopt is returned, with no ref
  // counter moved; otherwise the ref installs clean as StorePageRef would.
  std::optional<StoreRefMode> InsertRefIfAbsent(CacheOwner owner, uint64_t idx,
                                                const splice::PageRef& ref, bool allow_alias);

  // Removes a resident page from the cache and hands it out as a reference
  // (the donor half of a page-steal: the source cache entry is gone, like
  // page_cache_pipe_buf_try_steal). Dirty pages refuse (writeback owns
  // them). nullopt on miss or dirty.
  std::optional<splice::PageRef> StealPage(CacheOwner owner, uint64_t idx);

  uint64_t DirtyBytes(CacheOwner owner) const;
  // One gauge load: writeback-threshold checks poll it on the write path.
  uint64_t TotalDirtyBytes() const { return static_cast<uint64_t>(dirty_bytes_->Value()); }
  // Walks every shard's LRU ring (the reference the resident-bytes gauge
  // must match).
  uint64_t ResidentBytes() const;
  // Occupied index slots over every shard: resident pages plus one slice
  // head per (owner, shard) with pages there. Reads 0 once every owner is
  // dropped, so tests can tell that no node outlived its page.
  size_t IndexEntries() const;
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
  // Node numbers index a shard's node array. Node 0 is the sentinel of the
  // shard's LRU ring and never a page, so 0 also marks an empty slot, an
  // empty free list and "no node".
  using NodeId = uint32_t;
  static constexpr NodeId kNone = 0;
  // The index a slice head is filed under; page indexes (byte offsets /
  // kPageSize) never reach it.
  static constexpr uint64_t kSliceIdx = UINT64_MAX;

  struct Link {
    NodeId prev = kNone;
    NodeId next = kNone;
  };
  // A resident page, or the head of an owner's slice (key.idx == kSliceIdx).
  struct Node {
    Key key{};
    // Shared so splice references can alias the cached buffer; mutators
    // must go through EnsureExclusiveLocked (COW) first. Null on slice
    // heads and free nodes.
    std::shared_ptr<char[]> data;
    // Bumped every time dirty content lands on the page; lets concurrent
    // writeback detect re-dirtying between snapshot and MarkCleanIfGen.
    uint64_t gen = 0;
    Link lru;    // pages: the shard's LRU ring; free nodes: lru.next chains the free list
    Link slice;  // pages: the owner's slice ring, through its head (the sentinel)
    Link dirty_ring;  // dirty pages: the slice's dirty ring, through its head
    uint32_t tag = 0;          // the key's slot tag (see Slot)
    NodeId head = kNone;       // pages: their slice head
    uint32_t dirty_pages = 0;  // slice heads: dirty pages in the slice
    bool dirty = false;
  };
  // One index slot. `tag` is the upper half of the key's hash: a probe
  // compares it before reading the node, and tag >> Shard::shift is the
  // slot where the key's probe run starts (its home).
  struct Slot {
    NodeId node = kNone;
    uint32_t tag = 0;
  };
  static constexpr uint32_t kMinSlotBits = 3;

  // One lock stripe with its own index, LRU ring and capacity slice; padded
  // so neighbouring shard locks do not false-share.
  struct alignas(64) Shard {
    mutable analysis::CheckedMutex mu{"kernel.pagecache.shard"};
    std::vector<Slot> slots = std::vector<Slot>(size_t{1} << kMinSlotBits);  // at most half full
    uint32_t shift = 32 - kMinSlotBits;  // 32 - log2(slots.size())
    size_t used = 0;                     // occupied slots: pages and slice heads
    std::vector<Node> nodes = std::vector<Node>(1);  // [0]: LRU sentinel, next = most recent
    NodeId free = kNone;                 // recycled nodes
    size_t resident = 0;                 // pages (slice heads are not resident)
  };

  // The key's shard; `tag` receives its slot tag.
  Shard& ShardFor(const Key& key, uint32_t* tag) const {
    uint64_t hash = KeyHash()(key);
    *tag = static_cast<uint32_t>(hash >> 32);
    return shards_[hash % shards_.size()];
  }
  // An owner's slice-head key and its slot tag: the head is filed in every
  // shard the owner has pages in, whatever shard the key would hash to, so
  // a call that visits every shard computes this once.
  struct SliceKey {
    Key key;
    uint32_t tag;
  };
  static SliceKey SliceKeyOf(CacheOwner owner);

  // The node filed under `key`, or kNone: one probe run.
  static NodeId FindLocked(const Shard& shard, const Key& key, uint32_t tag);
  // The owner's slice head in this shard, or kNone.
  static NodeId FindSliceLocked(const Shard& shard, const SliceKey& slice) {
    return FindLocked(shard, slice.key, slice.tag);
  }
  // Files a new page under `key` at the LRU head and accounts it; the
  // owner's first page in the shard also files its slice head.
  void InsertLocked(Shard& shard, const Key& key, uint32_t tag, std::shared_ptr<char[]> data,
                    bool dirty);
  // Removes one page (its links, slot, node and gauges), and its slice head
  // with the slice's last page.
  void EraseLocked(Shard& shard, NodeId id);
  // Flip a page's dirty bit: the slice's dirty ring and count, and the
  // dirty gauge.
  void MarkDirtyLocked(Shard& shard, NodeId id);
  void MarkCleanLocked(Shard& shard, NodeId id);
  // A resident page was rewritten: bumps its generation when `dirty`,
  // marks it dirty and touches it. Returns true on a clean->dirty flip.
  bool RewriteLocked(Shard& shard, NodeId id, bool dirty);
  // Drops `owner`'s pages with index >= `first` from one shard; returns how
  // many of them were dirty.
  uint64_t DropFromLocked(Shard& shard, const SliceKey& slice, uint64_t first);
  static void TouchLocked(Shard& shard, NodeId id);
  void EvictIfNeededLocked(Shard& shard);
  // Un-shares a page before mutation (COW break); charges a page copy when
  // outside references exist, and copies an unshared loan out uncharged.
  // `preserve_content` copies the old bytes into the fresh page (partial
  // updates need them; full overwrites do not).
  void EnsureExclusiveLocked(Node& page, bool preserve_content);
  // The buffer an install of `ref` adopts: the ref's own page when stolen
  // or aliased, else a zero-padded copy. Sets `mode` and counts it.
  std::shared_ptr<char[]> AdoptRef(const splice::PageRef& ref, bool allow_alias,
                                   StoreRefMode* mode);

  // Index plumbing: node recycling, and slot insert (growing the table
  // before it passes half full) and backward-shift delete.
  static NodeId AllocNodeLocked(Shard& shard);
  static void FreeNodeLocked(Shard& shard, NodeId id);
  static size_t FreeSlotLocked(const Shard& shard, uint32_t tag);
  static void PlaceLocked(Shard& shard, uint32_t tag, NodeId id);
  static void UnplaceLocked(Shard& shard, uint32_t tag, NodeId id);

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
