#include "src/kernel/page_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/analysis/lockdep.h"

namespace cntr::kernel {

namespace {
constexpr int64_t kPageBytes = kPageSize;

// Intrusive ring plumbing over a shard's node array; `field` picks the ring
// (LRU, slice or dirty), each closed by a sentinel node.
template <typename Nodes, typename Field>
void LinkAfter(Nodes& nodes, Field field, uint32_t at, uint32_t id) {
  uint32_t next = (nodes[at].*field).next;
  (nodes[id].*field).prev = at;
  (nodes[id].*field).next = next;
  (nodes[next].*field).prev = id;
  (nodes[at].*field).next = id;
}

template <typename Nodes, typename Field>
void Unlink(Nodes& nodes, Field field, uint32_t id) {
  auto link = nodes[id].*field;
  (nodes[link.prev].*field).next = link.next;
  (nodes[link.next].*field).prev = link.prev;
}
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
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone) {
    misses_->Add();
    return false;
  }
  hits_->Add();
  clock_->Advance(costs_->page_cache_hit_ns);
  std::memcpy(out, shard.nodes[id].data.get(), kPageSize);
  TouchLocked(shard, id);
  return true;
}

bool PageCachePool::HasPage(CacheOwner owner, uint64_t idx) const {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  return FindLocked(shard, key, tag) != kNone;
}

bool PageCachePool::StorePage(CacheOwner owner, uint64_t idx, const char* data, bool dirty) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  bool newly_dirty = dirty;
  if (id == kNone) {
    std::shared_ptr<char[]> fresh = NewPageFrame();
    std::memcpy(fresh.get(), data, kPageSize);
    InsertLocked(shard, key, tag, std::move(fresh), dirty);
  } else {
    Node& page = shard.nodes[id];
    EnsureExclusiveLocked(page, /*preserve_content=*/false);
    std::memcpy(page.data.get(), data, kPageSize);
    newly_dirty = RewriteLocked(shard, id, dirty);
  }
  EvictIfNeededLocked(shard);
  return newly_dirty;
}

bool PageCachePool::InsertIfAbsent(CacheOwner owner, uint64_t idx,
                                   std::shared_ptr<char[]> frame) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  if (FindLocked(shard, key, tag) != kNone) {
    return false;  // never clobber a resident (possibly newer, possibly dirty) page
  }
  InsertLocked(shard, key, tag, std::move(frame), /*dirty=*/false);
  EvictIfNeededLocked(shard);
  return true;
}

PageCachePool::UpdateResult PageCachePool::UpdatePage(CacheOwner owner, uint64_t idx,
                                                      uint32_t off, uint32_t len,
                                                      const char* src, bool mark_dirty) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone) {
    return UpdateResult::kNotResident;
  }
  Node& page = shard.nodes[id];
  EnsureExclusiveLocked(page, /*preserve_content=*/true);
  std::memcpy(page.data.get() + off, src, len);
  TouchLocked(shard, id);
  if (mark_dirty) {
    ++page.gen;
  }
  if (mark_dirty && !page.dirty) {
    MarkDirtyLocked(shard, id);
    return UpdateResult::kNewlyDirty;
  }
  return UpdateResult::kUpdated;
}

uint64_t PageCachePool::TruncatePages(CacheOwner owner, uint64_t new_size) {
  uint64_t first_dropped = (new_size + kPageSize - 1) / kPageSize;
  // Zero the partial tail of the boundary page.
  if (new_size % kPageSize != 0) {
    Key key{owner, new_size / kPageSize};
    uint32_t tag = 0;
    Shard& shard = ShardFor(key, &tag);
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    if (NodeId id = FindLocked(shard, key, tag); id != kNone) {
      Node& page = shard.nodes[id];
      uint32_t keep = static_cast<uint32_t>(new_size % kPageSize);
      EnsureExclusiveLocked(page, /*preserve_content=*/true);
      std::memset(page.data.get() + keep, 0, kPageSize - keep);
    }
  }
  // Drop whole pages past the new end (the owner's pages are spread over
  // every shard, so each stripe's slice of the owner is visited).
  SliceKey slice = SliceKeyOf(owner);
  uint64_t dirty_pages = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    dirty_pages += DropFromLocked(shard, slice, first_dropped);
  }
  return dirty_pages * kPageSize;
}

bool PageCachePool::MarkClean(CacheOwner owner, uint64_t idx) {
  return MarkCleanIfGen(owner, idx, UINT64_MAX);
}

bool PageCachePool::MarkCleanIfGen(CacheOwner owner, uint64_t idx, uint64_t gen) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone || !shard.nodes[id].dirty) {
    return false;
  }
  if (gen != UINT64_MAX && shard.nodes[id].gen != gen) {
    return false;  // re-dirtied since the flusher's snapshot: stays dirty
  }
  MarkCleanLocked(shard, id);
  return true;
}

void PageCachePool::Drop(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  if (NodeId id = FindLocked(shard, key, tag); id != kNone) {
    EraseLocked(shard, id);
  }
}

uint64_t PageCachePool::DropAll(CacheOwner owner) {
  SliceKey slice = SliceKeyOf(owner);
  uint64_t dirty_pages = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    dirty_pages += DropFromLocked(shard, slice, 0);
  }
  return dirty_pages * kPageSize;
}

void PageCachePool::DropAllClean() {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (NodeId id = shard.nodes[kNone].lru.next; id != kNone;) {
      NodeId next = shard.nodes[id].lru.next;
      if (!shard.nodes[id].dirty) {
        EraseLocked(shard, id);
      }
      id = next;
    }
  }
}

std::vector<uint64_t> PageCachePool::DirtyPages(CacheOwner owner) const {
  SliceKey slice = SliceKeyOf(owner);
  std::vector<uint64_t> out;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    NodeId head = FindSliceLocked(shard, slice);
    if (head == kNone || shard.nodes[head].dirty_pages == 0) {
      continue;
    }
    out.reserve(out.size() + shard.nodes[head].dirty_pages);
    for (NodeId id = shard.nodes[head].dirty_ring.next; id != head;
         id = shard.nodes[id].dirty_ring.next) {
      out.push_back(shard.nodes[id].key.idx);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::shared_ptr<char[]> PageCachePool::HandOffPage(CacheOwner owner, uint64_t idx, bool whole) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone) {
    return nullptr;
  }
  std::shared_ptr<char[]>& data = shard.nodes[id].data;
  if (whole && data.use_count() == 1 && !splice::IsLoan(data)) {
    std::shared_ptr<char[]> frame = data;
    data = splice::LendFrame(frame);
    return frame;
  }
  std::shared_ptr<char[]> copy = NewPageFrame();
  std::memcpy(copy.get(), data.get(), kPageSize);
  return copy;
}

bool PageCachePool::PeekPage(CacheOwner owner, uint64_t idx, char* out,
                             uint64_t* gen_out) const {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone) {
    return false;
  }
  std::memcpy(out, shard.nodes[id].data.get(), kPageSize);
  if (gen_out != nullptr) {
    *gen_out = shard.nodes[id].gen;
  }
  return true;
}

uint64_t PageCachePool::DirtyBytes(CacheOwner owner) const {
  SliceKey slice = SliceKeyOf(owner);
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    if (NodeId head = FindSliceLocked(shard, slice); head != kNone) {
      total += uint64_t{shard.nodes[head].dirty_pages} * kPageSize;
    }
  }
  return total;
}

uint64_t PageCachePool::ResidentBytes() const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (NodeId id = shard.nodes[kNone].lru.next; id != kNone; id = shard.nodes[id].lru.next) {
      total += kPageSize;
    }
  }
  return total;
}

size_t PageCachePool::IndexEntries() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    total += shard.used;
  }
  return total;
}

std::optional<splice::PageRef> PageCachePool::GetPageRef(CacheOwner owner, uint64_t idx,
                                                         uint64_t* gen_out) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone) {
    misses_->Add();
    return std::nullopt;
  }
  hits_->Add();
  // The remap out of the cache, not a copy: splice rate, not hit+copy.
  clock_->Advance(costs_->splice_page_ns);
  TouchLocked(shard, id);
  splice::PageRef ref;
  ref.page = shard.nodes[id].data;
  ref.len = kPageSize;
  if (gen_out != nullptr) {
    *gen_out = shard.nodes[id].gen;
  }
  return ref;
}

std::shared_ptr<char[]> PageCachePool::AdoptRef(const splice::PageRef& ref, bool allow_alias,
                                                StoreRefMode* mode) {
  if (ref.valid() && ref.len == kPageSize && ref.unique()) {
    *mode = StoreRefMode::kStolen;
    ref_steals_->Add();
    return ref.page;
  }
  if (ref.valid() && ref.len == kPageSize && allow_alias) {
    *mode = StoreRefMode::kAliased;
    ref_aliases_->Add();
    return ref.page;
  }
  // Copy fallback: short page, or shared without alias permission.
  std::shared_ptr<char[]> copy = NewPageFrame();
  uint32_t len = ref.valid() ? ref.len : 0;
  if (len > 0) {
    std::memcpy(copy.get(), ref.data(), len);
  }
  std::memset(copy.get() + len, 0, kPageSize - len);
  *mode = StoreRefMode::kCopied;
  ref_copies_->Add();
  return copy;
}

PageCachePool::StoreRefResult PageCachePool::StorePageRef(CacheOwner owner, uint64_t idx,
                                                          const splice::PageRef& ref, bool dirty,
                                                          bool allow_alias) {
  StoreRefResult result;
  std::shared_ptr<char[]> install = AdoptRef(ref, allow_alias, &result.mode);

  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  result.newly_dirty = dirty;
  if (id == kNone) {
    InsertLocked(shard, key, tag, std::move(install), dirty);
  } else {
    shard.nodes[id].data = std::move(install);
    result.newly_dirty = RewriteLocked(shard, id, dirty);
  }
  EvictIfNeededLocked(shard);
  return result;
}

std::optional<PageCachePool::StoreRefMode> PageCachePool::InsertRefIfAbsent(
    CacheOwner owner, uint64_t idx, const splice::PageRef& ref, bool allow_alias) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  if (FindLocked(shard, key, tag) != kNone) {
    return std::nullopt;
  }
  StoreRefMode mode = StoreRefMode::kCopied;
  InsertLocked(shard, key, tag, AdoptRef(ref, allow_alias, &mode), /*dirty=*/false);
  EvictIfNeededLocked(shard);
  return mode;
}

std::optional<splice::PageRef> PageCachePool::StealPage(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  uint32_t tag = 0;
  Shard& shard = ShardFor(key, &tag);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  NodeId id = FindLocked(shard, key, tag);
  if (id == kNone || shard.nodes[id].dirty) {
    return std::nullopt;  // absent, or pinned by writeback
  }
  splice::PageRef ref;
  ref.page = std::move(shard.nodes[id].data);
  ref.len = kPageSize;
  EraseLocked(shard, id);
  ref_steals_->Add();
  clock_->Advance(costs_->splice_page_ns);
  return ref;
}

PageCachePool::NodeId PageCachePool::FindLocked(const Shard& shard, const Key& key,
                                                uint32_t tag) {
  size_t mask = shard.slots.size() - 1;
  for (size_t pos = tag >> shard.shift;; pos = (pos + 1) & mask) {
    const Slot& slot = shard.slots[pos];
    if (slot.node == kNone) {
      return kNone;
    }
    if (slot.tag == tag) {
      const Key& at = shard.nodes[slot.node].key;
      if (at.owner == key.owner && at.idx == key.idx) {
        return slot.node;
      }
    }
  }
}

PageCachePool::SliceKey PageCachePool::SliceKeyOf(CacheOwner owner) {
  Key key{owner, kSliceIdx};
  return SliceKey{key, static_cast<uint32_t>(static_cast<uint64_t>(KeyHash()(key)) >> 32)};
}

void PageCachePool::InsertLocked(Shard& shard, const Key& key, uint32_t tag,
                                 std::shared_ptr<char[]> data, bool dirty) {
  SliceKey slice = SliceKeyOf(key.owner);
  NodeId head = FindSliceLocked(shard, slice);
  if (head == kNone) {
    head = AllocNodeLocked(shard);
    Node& node = shard.nodes[head];
    node.key = slice.key;
    node.tag = slice.tag;
    node.slice = {head, head};
    node.dirty_ring = {head, head};
    PlaceLocked(shard, slice.tag, head);
  }
  NodeId id = AllocNodeLocked(shard);
  Node& page = shard.nodes[id];  // no node allocation below: the reference stays valid
  page.key = key;
  page.tag = tag;
  page.data = std::move(data);
  page.gen = dirty ? 1 : 0;
  page.head = head;
  LinkAfter(shard.nodes, &Node::lru, kNone, id);
  LinkAfter(shard.nodes, &Node::slice, head, id);
  PlaceLocked(shard, tag, id);
  ++shard.resident;
  resident_bytes_->Add(kPageBytes);
  if (dirty) {
    MarkDirtyLocked(shard, id);
  }
}

void PageCachePool::EraseLocked(Shard& shard, NodeId id) {
  if (shard.nodes[id].dirty) {
    MarkCleanLocked(shard, id);
  }
  NodeId head = shard.nodes[id].head;
  Unlink(shard.nodes, &Node::lru, id);
  Unlink(shard.nodes, &Node::slice, id);
  UnplaceLocked(shard, shard.nodes[id].tag, id);
  FreeNodeLocked(shard, id);
  --shard.resident;
  resident_bytes_->Add(-kPageBytes);
  if (shard.nodes[head].slice.next == head) {  // the owner's last page in this shard
    UnplaceLocked(shard, shard.nodes[head].tag, head);
    FreeNodeLocked(shard, head);
  }
}

void PageCachePool::MarkDirtyLocked(Shard& shard, NodeId id) {
  Node& page = shard.nodes[id];
  page.dirty = true;
  LinkAfter(shard.nodes, &Node::dirty_ring, page.head, id);
  ++shard.nodes[page.head].dirty_pages;
  dirty_bytes_->Add(kPageBytes);
}

void PageCachePool::MarkCleanLocked(Shard& shard, NodeId id) {
  Node& page = shard.nodes[id];
  page.dirty = false;
  Unlink(shard.nodes, &Node::dirty_ring, id);
  --shard.nodes[page.head].dirty_pages;
  dirty_bytes_->Add(-kPageBytes);
}

bool PageCachePool::RewriteLocked(Shard& shard, NodeId id, bool dirty) {
  Node& page = shard.nodes[id];
  if (dirty) {
    ++page.gen;
  }
  TouchLocked(shard, id);
  if (!dirty || page.dirty) {
    return false;  // clean store, or already accounted
  }
  MarkDirtyLocked(shard, id);
  return true;
}

uint64_t PageCachePool::DropFromLocked(Shard& shard, const SliceKey& slice, uint64_t first) {
  NodeId head = FindSliceLocked(shard, slice);
  if (head == kNone) {
    return 0;
  }
  // Erasing the slice's last page frees the head too; that page's successor
  // is the head, so the walk ends there.
  uint64_t dirty = 0;
  for (NodeId id = shard.nodes[head].slice.next; id != head;) {
    NodeId next = shard.nodes[id].slice.next;
    if (shard.nodes[id].key.idx >= first) {
      dirty += shard.nodes[id].dirty ? 1 : 0;
      EraseLocked(shard, id);
    }
    id = next;
  }
  return dirty;
}

void PageCachePool::EnsureExclusiveLocked(Node& page, bool preserve_content) {
  bool shared = page.data.use_count() > 1;
  if (!shared && !splice::IsLoan(page.data)) {
    return;
  }
  // Without preserve_content the caller overwrites the whole page.
  std::shared_ptr<char[]> fresh = NewPageFrame();
  if (preserve_content) {
    std::memcpy(fresh.get(), page.data.get(), kPageSize);
  }
  page.data = std::move(fresh);
  if (shared) {
    // An outside splice reference holds this buffer: writing in place would
    // mutate payload already handed out. Breaking the sharing with a
    // private copy is the real cost of a failed page reuse. An unshared
    // loan stands for the private copy of the disk bytes that a fill once
    // made, which was written in place for free, so its copy-out is not
    // charged.
    cow_breaks_->Add();
    clock_->Advance(costs_->copy_page_ns);
  }
}

void PageCachePool::TouchLocked(Shard& shard, NodeId id) {
  if (shard.nodes[kNone].lru.next != id) {
    Unlink(shard.nodes, &Node::lru, id);
    LinkAfter(shard.nodes, &Node::lru, kNone, id);
  }
}

void PageCachePool::EvictIfNeededLocked(Shard& shard) {
  while (shard.resident * kPageSize > capacity_per_shard_) {
    // Scan up to 129 pages from the cold end for a clean victim; dirty
    // pages are pinned.
    NodeId victim = kNone;
    size_t scanned = 0;
    for (NodeId id = shard.nodes[kNone].lru.prev; id != kNone; id = shard.nodes[id].lru.prev) {
      if (!shard.nodes[id].dirty) {
        victim = id;
        break;
      }
      if (++scanned > 128) {
        break;  // all-cold pages dirty: allow transient overshoot
      }
    }
    if (victim == kNone) {
      return;
    }
    EraseLocked(shard, victim);
    evictions_->Add();
  }
}

PageCachePool::NodeId PageCachePool::AllocNodeLocked(Shard& shard) {
  if (shard.free != kNone) {
    NodeId id = shard.free;
    shard.free = shard.nodes[id].lru.next;
    shard.nodes[id].lru = {};
    return id;
  }
  shard.nodes.emplace_back();
  return static_cast<NodeId>(shard.nodes.size() - 1);
}

void PageCachePool::FreeNodeLocked(Shard& shard, NodeId id) {
  shard.nodes[id] = Node{};  // releases the page buffer now
  shard.nodes[id].lru.next = shard.free;
  shard.free = id;
}

size_t PageCachePool::FreeSlotLocked(const Shard& shard, uint32_t tag) {
  size_t mask = shard.slots.size() - 1;
  size_t pos = tag >> shard.shift;
  while (shard.slots[pos].node != kNone) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void PageCachePool::PlaceLocked(Shard& shard, uint32_t tag, NodeId id) {
  if ((shard.used + 1) * 2 > shard.slots.size()) {
    std::vector<Slot> old =
        std::exchange(shard.slots, std::vector<Slot>(shard.slots.size() * 2));
    --shard.shift;
    for (const Slot& slot : old) {
      if (slot.node != kNone) {
        shard.slots[FreeSlotLocked(shard, slot.tag)] = slot;
      }
    }
  }
  shard.slots[FreeSlotLocked(shard, tag)] = Slot{id, tag};
  ++shard.used;
}

void PageCachePool::UnplaceLocked(Shard& shard, uint32_t tag, NodeId id) {
  size_t mask = shard.slots.size() - 1;
  size_t hole = tag >> shard.shift;
  while (shard.slots[hole].node != id) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift: pull each later entry of the run into the hole unless
  // its home lies after the hole (then moving it would hide it from its
  // own probe run).
  for (size_t pos = (hole + 1) & mask; shard.slots[pos].node != kNone; pos = (pos + 1) & mask) {
    size_t home = shard.slots[pos].tag >> shard.shift;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      shard.slots[hole] = shard.slots[pos];
      hole = pos;
    }
  }
  shard.slots[hole] = Slot{};
  --shard.used;
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
